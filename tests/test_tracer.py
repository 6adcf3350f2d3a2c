"""The benchmark's tracer (perfbench/tracer.py) still fits the package.

The tracer wraps package functions and methods under the names their callers
look them up by, so renaming or dropping one of those names breaks the
benchmark. Entering and leaving a Tracer here makes that fail the unit suite
too. The tracer is loaded from its file and left unchanged.
"""

import importlib.util
from pathlib import Path

from gevst import data, encoder, metrics, model, tensor, training

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_wraps_the_package_and_restores_it_on_exit():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    owners = (data, encoder, metrics, model, tensor, training,
              tensor.Tape, training.Adam, metrics.CiderScorer)
    before = [dict(vars(owner)) for owner in owners]
    with tracer.Tracer() as t:
        assert data.generate_dataset is not before[0]["generate_dataset"]
        data.generate_dataset(0, 2)
    assert [span[tracer.NAME] for span in t.spans] == ["data.generate"]
    for owner, names in zip(owners, before):
        assert all(vars(owner)[name] is value for name, value in names.items()), owner
