import os
import sys

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile("suite", deadline=None, max_examples=40, derandomize=True, database=None)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
