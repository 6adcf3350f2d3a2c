"""One flat configuration object for model structure and training schedule.

Defaults are the desk-scale values; full-scale settings (width 512,
batch 40) stay reachable through overrides. Validation runs before any math.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

from .errors import ConfigError

FUSION_BASES = ("c", "g", "cg")
GESA_VARIANTS = ("con", "con_intra", "con_intra_inter")
BRANCH_NAMES = ("ss", "sv", "vs", "vv")


@dataclass
class TrainConfig:
    # model structure
    d_model: int = 64  # d_o; 512 at full scale
    heads: int = 8
    expand_ratio: int = 5  # Er, fusion expand-then-pool factor
    fusion_cells: int = 2  # m
    layers: int = 3  # L, depth of every branch and of the decoder
    raw_feat_dim: int = 32
    enc_width: int = 64  # dense-caption encoder internals
    enc_heads: int = 4
    enc_layers: int = 3
    fusion_base: str = "cg"
    gesa_variant: str = "con_intra_inter"
    branches: tuple = BRANCH_NAMES
    max_len: int = 20
    # training schedule
    batch_size: int = 8  # 40 at full scale
    warmup_epochs: int = 4
    xe_epochs: int = 18
    scst_epochs: int = 30
    beam: int = 5
    seed: int = 0
    lr_scale: float = 0.25
    # the reward phase runs at a small constant rate: carrying the warmup
    # schedule's rate into policy-gradient updates destroys a converged model
    scst_lr: float = 1e-4
    grad_clip: float = 5.0
    val_every: int = 10
    min_count: int = 5

    def __post_init__(self):
        self.branches = tuple(self.branches)
        self.validate()

    def validate(self):
        c = self
        for f in fields(c):
            if f.type in ("int", "float") and not _finite(getattr(c, f.name)):
                raise ConfigError(f"{f.name} must be a finite number, got a value beyond float range")
        for name in ("heads", "enc_heads", "max_len", "batch_size", "warmup_epochs", "beam",
                     "val_every", "min_count", "expand_ratio", "enc_layers", "raw_feat_dim"):
            if getattr(c, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(c, name)}")
        if c.d_model < 2 or c.d_model % c.heads != 0:
            raise ConfigError(f"d_model {c.d_model} must be >= 2 and divisible by heads {c.heads}")
        if c.enc_width < 2 or c.enc_width % c.enc_heads != 0:
            raise ConfigError(f"enc_width {c.enc_width} must be >= 2 and divisible by enc_heads {c.enc_heads}")
        if c.layers not in (2, 3, 4, 5):
            raise ConfigError(f"layers must be in 2..5, got {c.layers}")
        if c.fusion_cells not in (1, 2, 3):
            raise ConfigError(f"fusion_cells must be in 1..3, got {c.fusion_cells}")
        if c.fusion_base not in FUSION_BASES:
            raise ConfigError(f"fusion_base must be one of {FUSION_BASES}, got {c.fusion_base!r}")
        if c.gesa_variant not in GESA_VARIANTS:
            raise ConfigError(f"gesa_variant must be one of {GESA_VARIANTS}, got {c.gesa_variant!r}")
        bad = [b for b in c.branches if b not in BRANCH_NAMES]
        if bad or not c.branches:
            raise ConfigError(f"branches must be a non-empty subset of {BRANCH_NAMES}, got {c.branches}")
        if len(set(c.branches)) != len(c.branches):
            raise ConfigError(f"duplicate branches in {c.branches}")
        for name in ("seed", "xe_epochs", "scst_epochs"):
            if getattr(c, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(c, name)}")
        for name in ("lr_scale", "grad_clip", "scst_lr"):
            if not 0 < getattr(c, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {getattr(c, name)}")

    def to_dict(self):
        d = asdict(self)
        d["branches"] = list(self.branches)
        return d

    def replaced(self, **kw):
        return replace(self, **kw)


def _finite(value):
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


_FIELDS = {f.name: f.type for f in fields(TrainConfig)}

# What each field annotation means for a decoded JSON value.
_WANTED = {"int": "an integer", "float": "a number", "str": "a string", "tuple": "a list of strings"}

# Retired keys that only `--config` files can still name (v1 checkpoints are
# refused, and no v2 checkpoint ever held them), each with the one value the
# model still computes.
_RETIRED = {"renorm_fused_attention": False, "gate_mode": "sigmoid"}


def _accepts(kind, value):
    if kind == "tuple":
        return isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)
    # bool subclasses int: numeric fields refuse it
    return not isinstance(value, bool) and isinstance(value, {"int": int, "float": (int, float), "str": str}[kind])


def config_from_dict(d):
    if not isinstance(d, dict):
        raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
    d = dict(d)
    for name, meant in _RETIRED.items():
        value = d.pop(name, meant)
        if type(value) is not type(meant) or value != meant:
            raise ConfigError(f"config {name!r} is retired and loads only as {json.dumps(meant)}, got {value!r}")
    unknown = d.keys() - _FIELDS.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for name, value in d.items():
        if not _accepts(_FIELDS[name], value):
            raise ConfigError(f"config {name!r} must be {_WANTED[_FIELDS[name]]}, got {value!r}")
    return TrainConfig(**d)
