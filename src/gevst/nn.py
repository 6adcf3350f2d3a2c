"""Shared building blocks on top of the tensor engine.

Parameter containers are small dataclasses of Tensors; `named_parameters`
walks any nesting of dataclasses / lists / dicts in declaration order, which
fixes a deterministic global parameter order for init, Adam and checkpoints.
The operations themselves, the vocabulary log-softmax among them, are the
engine's (`tensor`); this module composes them into layers.
"""

from __future__ import annotations

import dataclasses
import functools
import weakref
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


# ------------------------------------------------------------------- params


@dataclass
class Linear:
    w: Tensor  # [in x out]
    b: Tensor  # [out]


@dataclass
class LayerNorm:
    gain: Tensor
    bias: Tensor


@dataclass
class Ffn:
    """Position-wise feed-forward: relu(x W1 + b1) W2 + b2, hidden = 4x width."""

    inner: Linear
    outer: Linear


def init_linear(rng, d_in, d_out):
    limit = np.sqrt(6.0 / (d_in + d_out))
    w = Tensor(rng.uniform(-limit, limit, size=(d_in, d_out)), requires_grad=True)
    b = Tensor(np.zeros(d_out), requires_grad=True)
    return Linear(w, b)


def init_layer_norm(d):
    return LayerNorm(Tensor(np.ones(d), requires_grad=True), Tensor(np.zeros(d), requires_grad=True))


def init_ffn(rng, d):
    return Ffn(init_linear(rng, d, 4 * d), init_linear(rng, 4 * d, d))


def init_embedding(rng, vocab, d):
    return Tensor(rng.normal(0.0, 0.1, size=(vocab, d)), requires_grad=True)


def linear(x, p: Linear):
    return T.affine(x, p.w, p.b)


def ffn(x, p: Ffn):
    return T.affine(T.relu(T.affine(x, p.inner.w, p.inner.b)), p.outer.w, p.outer.b)


def layer_norm(x, p: LayerNorm):
    return T.layer_norm(x, p.gain, p.bias)


# id(first member) -> {member ids: memo entry}: the tapeless stacks that are
# views, each dropped with its first member (see `stacked`).
_VIEW_STACKS = {}


def _stack_fields(objs):
    first = objs[0]
    if isinstance(first, Tensor):
        return T.stack(objs)
    return type(first)(*(_stack_fields([getattr(o, f.name) for o in objs]) for f in dataclasses.fields(first)))


def stacked(objs):
    """Same-structured parameter dataclasses as one of that structure, each
    Tensor the members' `T.stack` on a leading axis: a view of the flat
    parameter vector when the members lie equally spaced in it.

    The result is memoized while every member parameter keeps its data
    array: on a live tape for that recording (`T.tape_memo`), so each stack
    is one node however many samples read it; without a tape for the life
    of the first member, when every stack is a view (a view reads the
    members' current values, where a copy could go stale)."""
    objs = tuple(objs)
    key = tuple(map(id, objs))
    memo = T.tape_memo()
    hit = (_VIEW_STACKS.get(key[0], {}) if memo is None else memo).get(key)
    if hit is not None and all(t.data is d for t, d in zip(hit[1], hit[2])):
        return hit[0]
    out = _stack_fields(objs)
    members = parameters(list(objs))
    entry = (out, members, [t.data for t in members])
    if memo is not None:
        memo[key] = entry
    elif all(t.data.base is not None for t in parameters(out)):
        if key[0] not in _VIEW_STACKS:
            _VIEW_STACKS[key[0]] = {}
            weakref.finalize(objs[0], _VIEW_STACKS.pop, key[0], None)
        _VIEW_STACKS[key[0]][key] = entry
    return out


def named_parameters(obj, prefix=""):
    """Yield (name, Tensor) pairs in a deterministic declaration order."""
    if isinstance(obj, Tensor):
        yield prefix, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            child = getattr(obj, f.name)
            if child is None:
                continue
            yield from named_parameters(child, f"{prefix}.{f.name}" if prefix else f.name)
    elif isinstance(obj, (list, tuple)):
        for i, child in enumerate(obj):
            yield from named_parameters(child, f"{prefix}.{i}" if prefix else str(i))
    elif isinstance(obj, dict):
        for k, child in obj.items():
            yield from named_parameters(child, f"{prefix}.{k}" if prefix else str(k))
    elif obj is None:
        return
    else:
        raise TypeError(f"cannot walk parameters of {type(obj)!r} at {prefix!r}")


def parameters(obj):
    return [t for _, t in named_parameters(obj)]


def flat_offsets(tensors):
    """Where each tensor starts in the flat parameter vector, in elements."""
    return np.cumsum([0] + [t.data.size for t in tensors[:-1]])


def flat_views(flat, tensors):
    """Views into `flat` shaped like each tensor, laid end to end."""
    return [flat[o : o + t.data.size].reshape(t.data.shape) for t, o in zip(tensors, flat_offsets(tensors))]


def flat_parameters(obj):
    """The float64 vector holding every parameter of `obj` end to end, each
    Tensor.data a view into it; later calls return the same vector unless a
    parameter was rebound to another array since."""
    tensors = parameters(obj)
    flat = tensors[0].data.base if tensors else None
    if flat is None or flat.shape != (sum(t.data.size for t in tensors),) or any(
            t.data.base is not flat for t in tensors):
        flat = np.concatenate([np.zeros(0)] + [t.data.ravel() for t in tensors])
        for t, view in zip(tensors, flat_views(flat, tensors)):
            t.data = view
    return flat


# ---------------------------------------------------------------- attention


def attend(q, k, v, h, mask=None):
    """Multi-head attention of projected queries q [..., n_q, d] over projected
    keys k and values v [..., n_k, d], with no output projection -> [..., n_q, d]."""
    return T.apply_attention(T.attention_weights(q, k, h, mask=mask), v, h)


# --------------------------------------------------------------- positions


@functools.cache
def sinusoidal_positions(n, d):
    """Fixed sin/cos position table [n x d], cached as a constant tensor (never written to)."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    i = np.arange(d, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / d)
    return Tensor(np.where(i % 2 == 0, np.sin(angles), np.cos(angles)))

