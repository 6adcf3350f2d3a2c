"""`TrainConfig`'s one validation path: a `--config` file or a checkpoint
header (both through `config_from_dict`), direct construction and
`replaced(...)` check each field's type first, then its range, and raise
the same ConfigError text; whatever the constructor accepts round-trips
through its dict and through a checkpoint."""

import dataclasses
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gevst import cli
from gevst import training as TR
from gevst.config import BRANCH_NAMES, FUSION_BASES, GESA_VARIANTS, TrainConfig, config_from_dict
from gevst.data import build_vocab
from gevst.errors import ConfigError
from gevst.model import init_model

KINDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
# a small legal model, so that a config built on it inits and saves in milliseconds
SMALL = dict(d_model=16, heads=2, expand_ratio=2, fusion_cells=1, layers=2, raw_feat_dim=8,
             enc_width=16, enc_heads=2, enc_layers=1, max_len=10)

BRANCH_LISTS = st.lists(st.sampled_from(BRANCH_NAMES), max_size=5)
ODD = st.booleans() | st.none() | st.lists(st.integers(), max_size=2) | st.dictionaries(st.text(max_size=2), st.integers())


def wrong_values(kind):
    """Values of another type than a field of this kind takes: a bool in a
    numeric field, a whole float such as 20.0 in an int field, a string, or
    a string or an int for `branches`."""
    numbers = st.integers(-3, 40) | st.floats(allow_nan=True, allow_infinity=True)
    return {"int": ODD | st.text(max_size=3) | st.floats(allow_nan=True, allow_infinity=True)
                   | st.integers(-3, 40).map(float),
            "float": ODD | st.text(max_size=3),
            "str": ODD | numbers | BRANCH_LISTS,
            "tuple": st.booleans() | st.none() | numbers | st.text(max_size=3)
                     | st.lists(st.sampled_from(BRANCH_NAMES) | st.integers(0, 3), min_size=1).filter(
                         lambda v: not all(isinstance(b, str) for b in v))}[kind]


def right_values(kind):
    """Values of the field's own type, in range or not."""
    return {"int": st.integers(1, 6) | st.integers(-2, 24),
            "float": st.integers(-2, 3) | st.floats(allow_nan=True, allow_infinity=True),
            "str": st.sampled_from(FUSION_BASES + GESA_VARIANTS) | st.text(max_size=3),
            "tuple": BRANCH_LISTS | BRANCH_LISTS.map(tuple)}[kind]


def refusals(kw):
    """The ConfigError text of each way to build SMALL with kw set, or None
    where that way accepts it."""
    def message(make):
        try:
            make()
        except ConfigError as e:
            return str(e)
        return None

    small = TrainConfig(**SMALL)
    return [message(lambda: config_from_dict(dict(SMALL, **kw))), message(lambda: TrainConfig(**dict(SMALL, **kw))),
            message(lambda: small.replaced(**kw))]


@pytest.mark.parametrize("name, value, text", [
    ("max_len", 20.0, "config 'max_len' must be an integer, got 20.0"),
    ("heads", True, "config 'heads' must be an integer, got True"),
    ("layers", 3.0, "config 'layers' must be an integer, got 3.0"),
    ("batch_size", 8.0, "config 'batch_size' must be an integer, got 8.0"),
    ("d_model", "64", "config 'd_model' must be an integer, got '64'"),
    ("lr_scale", False, "config 'lr_scale' must be a number, got False"),
    ("fusion_base", 1, "config 'fusion_base' must be a string, got 1"),
    ("branches", "ss", "config 'branches' must be a list of strings, got 'ss'"),
    ("branches", ["ss", 1], "config 'branches' must be a list of strings, got ['ss', 1]"),
])
def test_a_wrongly_typed_field_is_refused_with_one_text_on_every_path(name, value, text):
    assert refusals({name: value}) == [text] * 3
    with pytest.raises(ConfigError, match=f"^{re.escape(text)}$"):
        TrainConfig().replaced(**{name: value})


@pytest.mark.parametrize("name, value, shown", [
    ("lr_scale", float("nan"), "nan"),
    ("grad_clip", float("inf"), "inf"),
    ("scst_lr", float("-inf"), "-inf"),
    ("seed", 10 ** 400, "a value beyond float range"),
    ("lr_scale", 10 ** 400, "a value beyond float range"),
])
def test_a_number_that_is_not_finite_is_named_on_every_path(name, value, shown):
    assert refusals({name: value}) == [f"{name} must be a finite number, got {shown}"] * 3


@pytest.mark.parametrize("name, text, shown", [
    ("lr_scale", "NaN", "nan"), ("grad_clip", "Infinity", "inf"), ("scst_lr", "-Infinity", "-inf"),
    ("seed", "1" + "0" * 400, "a value beyond float range"),
])
def test_a_config_file_holding_a_number_that_is_not_finite_names_it(tmp_path, name, text, shown):
    path = tmp_path / "c.json"
    path.write_text(f'{{"{name}": {text}}}')
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be a finite number, got {re.escape(shown)}$"):
        cli._load_config(str(path), None)


@given(data=st.data())
def test_any_wrongly_typed_field_is_refused_with_one_text_on_every_path(data):
    name = data.draw(st.sampled_from(sorted(KINDS)))
    value = data.draw(wrong_values(KINDS[name]))
    got = refusals({name: value})
    assert got[0] is not None and got[0].startswith(f"config {name!r} must be ")
    assert got == [got[0]] * 3


@st.composite
def changes(draw):
    """One to three fields of SMALL set to a value of their own type, or one
    time in four of another."""
    names = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=3, unique=True))
    return {n: draw(draw(st.sampled_from([right_values] * 3 + [wrong_values]))(KINDS[n])) for n in names}


@given(kw=changes())
@example(kw={"max_len": 20.0})
def test_what_the_constructor_accepts_round_trips_and_what_it_refuses_every_path_refuses(kw):
    """A config the constructor accepts reads back equal from its dict and
    from a saved checkpoint; one it refuses, every path refuses with its
    text."""
    got = refusals(kw)
    assert got == [got[0]] * 3
    if got[0] is not None:
        return
    cfg = TrainConfig(**dict(SMALL, **kw))
    assert config_from_dict(cfg.to_dict()) == cfg
    vocab = build_vocab(["a red circle left of a blue square"], 1)
    params = init_model(cfg, len(vocab), np.random.default_rng(0))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.ckpt")
        TR.save_checkpoint(path, cfg, vocab, params)
        assert TR.load_checkpoint(path)[0] == cfg
