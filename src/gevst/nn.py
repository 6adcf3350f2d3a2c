"""Shared building blocks on top of the tensor engine.

Parameter containers are small dataclasses of Tensors; `named_parameters`
walks any nesting of dataclasses / lists / dicts in declaration order, which
fixes a deterministic global parameter order for init, Adam and checkpoints.
A weight that several branches use side by side is stored stacked, one
`[k x ...]` tensor on a leading branch axis (`Layout.stack`), so the
engine's stacked kernels read it as it lies.

Parameters are born flat. Init functions run on a `Layout`, which
allocates nothing: each leaf is a Tensor of its shape bound to no memory,
and the draw that fills it is recorded in the order the init code asks for
it. `bind_flat` then allocates the one float64 vector and binds each Tensor
to its view, in walk order, and `Layout.draw` fills each leaf's view (a
stacked member's slice of its stack) in the recorded order, so the values
are those of drawing each leaf on its own, then stacking and concatenating.
The operations themselves, the vocabulary log-softmax among them, are the
engine's (`tensor`); this module composes them into layers.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError
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


class Layout:
    """The layout pass of an init: `leaf` gives a trainable Tensor of a shape,
    bound to no memory yet, and records the draw that will fill it, in call
    order; `stack` lays same-structured members out on a leading axis."""

    def __init__(self):
        self.draws = []  # (leaf, draw(rng, its shape) -> its values), in the order the init code asks
        self.home = {}  # a stacked member -> (its stack, index)

    def leaf(self, shape, draw=None):
        """A leaf of `shape`; with `draw` None it keeps what its vector is
        allocated with (zeros at init)."""
        t = Tensor._wrap(np.ndarray(shape, buffer=_UNBOUND, strides=(0,) * len(shape)), requires_grad=True)
        if draw is not None:
            self.draws.append((t, draw))
        return t

    def stack(self, objs):
        """Same-structured parameter dataclasses (or Tensors) of this layout as
        one of that structure, each Tensor the members' on a leading axis; a
        field that is None in the members stays None."""
        first = objs[0]
        if first is None:
            return None
        if isinstance(first, Tensor):
            stacked = self.leaf((len(objs),) + first.data.shape)
            self.home.update((o, (stacked, i)) for i, o in enumerate(objs))
            return stacked
        return type(first)(*(self.stack([getattr(o, f.name) for o in objs]) for f in dataclasses.fields(first)))

    def draw(self, rng):
        """Fill each recorded leaf from `rng`, in call order, once bound (`bind_flat`)."""
        for t, fill in self.draws:
            stacked, i = self.home.get(t, (None, None))
            (t.data if stacked is None else stacked.data[i])[...] = fill(rng, t.data.shape)


_UNBOUND = bytes(8)  # the one read-only float64 zero that every entry of an unbound leaf reads


def init_linear(layout, d_in, d_out):
    limit = np.sqrt(6.0 / (d_in + d_out))
    return Linear(layout.leaf((d_in, d_out), lambda rng, size: rng.uniform(-limit, limit, size)), layout.leaf((d_out,)))


def init_layer_norm(layout, d):
    return LayerNorm(layout.leaf((d,), lambda rng, size: 1.0), layout.leaf((d,)))


def init_ffn(layout, d):
    return Ffn(init_linear(layout, d, 4 * d), init_linear(layout, 4 * d, d))


def init_embedding(layout, vocab, d):
    return layout.leaf((vocab, d), lambda rng, size: rng.normal(0.0, 0.1, size))


def linear(x, p: Linear):
    return T.matmul(x, p.w, p.b)


def ffn(x, p: Ffn):
    return linear(T.relu(linear(x, p.inner)), p.outer)


def layer_norm(x, p: LayerNorm):
    return T.layer_norm(x, p.gain, p.bias)


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


def bind_flat(obj, alloc=np.zeros):
    """Allocate the float64 vector of every parameter of `obj` end to end
    (`alloc(size)`) and bind each Tensor to its view; returns the vector."""
    tensors = parameters(obj)
    flat = alloc(sum(t.data.size for t in tensors))
    for t, view in zip(tensors, flat_views(flat, tensors)):
        t.data = view
    return flat


def flat_parameters(obj):
    """The float64 vector holding every parameter of `obj` end to end, each
    Tensor.data a view into it, as init or load bound them (`bind_flat`);
    nothing is copied."""
    tensors = parameters(obj)
    flat = tensors[0].data.base if tensors else None
    if flat is None or flat.shape != (sum(t.data.size for t in tensors),) or any(
            t.data.base is not flat for t in tensors):
        raise ContractError("parameters are not the views of one vector: build them with an init function")
    return flat


# ------------------------------------------------------------------ padding


def pad_rows(parts, counts, starts=None, index=None):
    """Rows laid out per entry and padded: `parts` are [n x d] tensors, read as
    their rows end to end, and entry e of `counts` (an int array of any shape)
    is counts[e] of those rows from row starts[e] on (`starts` shaped like
    counts; by default entry after entry, end to end). With `index` (an int
    array), row r of that layout is row index[r] of the parts instead, so
    entries may share a row. Returns ([*counts.shape x N x d], bool
    [*counts.shape x N]), N the largest count: entry e's rows first, zero rows
    after them, and the padding True at those zero rows. Recorded on the tape
    when the parts are: one concat and one row gather, whose backward sums
    the gradients of a shared row."""
    counts = np.asarray(counts)
    starts = np.cumsum(counts).reshape(counts.shape) - counts if starts is None else np.asarray(starts)
    padding = np.arange(counts.max()) >= counts[..., None]
    table = T.concat(list(parts) + [Tensor(np.zeros((1, parts[0].data.shape[1])))])
    rows = starts[..., None] + np.arange(counts.max())
    if index is not None:
        rows = np.asarray(index)[np.where(padding, 0, rows)]
    rows = np.where(padding, len(table.data) - 1, rows)
    return T.embedding_lookup(table, rows), padding


def key_bias(padding):
    """The key bias [... x 1 x N] of a padding (bool [... x N], True at a padded
    key), None for None: 0 at a real key, -1e9 at a padded one, for every query
    row of scores [... x n x N]. A per-head caller gives the padding a head axis."""
    return None if padding is None else np.where(padding, -1e9, 0.0)[..., None, :]


def real_mean(x, padding):
    """The mean over axis -2 of x [... x N x d] over its real rows (padding
    bool [... x N], or None when every row is real) -> [... x d]: the masked
    sum times one over the count."""
    shape, count = x.data.shape, x.data.shape[-2]
    if padding is not None:
        keep = ~padding
        x = T.mul(x, Tensor(np.broadcast_to(keep[..., None].astype(np.float64), shape)))
        count = keep.sum(axis=-1, keepdims=True)
    return T.mul(T.sum_axis(x, -2), Tensor(np.broadcast_to(1.0 / count, shape[:-2] + shape[-1:])))


# ---------------------------------------------------------------- attention


def attend(q, k, v, h, bias=None):
    """Multi-head attention of projected queries q [..., n_q, d] over projected
    keys k and values v [..., n_k, d], with no output projection -> [..., n_q, d];
    bias (`key_bias`) is added to the scores."""
    return T.apply_attention(T.attention_weights(q, k, h, bias=bias), v, h)


# --------------------------------------------------------------- positions


@functools.cache
def sinusoidal_positions(n, d):
    """Fixed sin/cos position table [n x d], cached as a read-only constant tensor."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    i = np.arange(d, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / d)
    table = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    table.flags.writeable = False
    return Tensor(table)

