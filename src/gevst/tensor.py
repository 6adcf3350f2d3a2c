"""Minimal reverse-mode differentiable tensor engine.

Design constraints, fixed for the whole package:
  * every value is float64 in a numpy array, row-major (C order) except the
    views that `index` returns and the broadcast view that `stack` returns
    for one tensor repeated;
  * no implicit broadcasting between tensors except scalars (size-1 tensors
    and python numbers); row-wise broadcast exists only INSIDE fused
    kernels: `matmul`'s weight, one [K x N] w and [N] b shared by every row
    of x, or paired slices, slice s of x [*S x ... x K] taking w[s] and b[s]
    for all its rows; layer_norm's gain and bias, paired the same way; the
    pairwise_add grid and the per-map gates of mix_maps;
  * ops work on any leading axes (a branch axis, a batch of scenes) unless
    they say otherwise, and padding is the caller's: attention_weights and
    softmax add a float bias that broadcasts to their scores (`nn.key_bias`),
    and every row must keep a key (a scene has a region and a dense caption,
    a caption a token, and causal row t sees key 0);
  * `stack` copies its members, or broadcasts one tensor repeated; weights
    never pass through it, as each is stored in the stacked layout its
    kernel reads (see `nn`);
  * forward ops execute eagerly; when a Tape is active and an input requires
    grad, the op appends one node to the tape: the output's gradient slot, its
    inputs' slots (None for an input that needs no gradient) and its backward
    rule. A slot (`Tensor.slot`) holds a gradient, never data, and a rule
    closes over only the arrays, shapes and requires-grad flags it reads,
    never a Tensor. So an activation no rule reads (a pre-ReLU hidden, a
    residual sum a layer norm consumes) is freed in the forward, as soon as
    the caller drops it; a rule that reads only an input's shape
    (`sum_axis`, `total_sum`, `index`, `reshape`, the table of
    `embedding_lookup`, the logits of `log_softmax`) keeps just the shape.
    Backward replays nodes in exact reverse recording order, which is a valid
    reverse topological order because recording order is execution order;
  * backward consumes the tape once: it drops each node as soon as that
    node's rule has run, so the arrays a rule kept and intermediate
    gradients are freed mid-walk unless the caller holds the tensor, and a
    walked tape refuses a second backward.

Gradients accumulate into each slot, read as Tensor.grad (never mutated in
place, so aliasing views returned by backward rules are safe), or, for the
tensors a backward call is given sinks for, in place into those
caller-owned arrays. Sinks are keyed by tensor and matched by its slot,
which the tape holds, so a tensor made after the forward cannot take the
gradient of a freed one that had its id().

Recorder (diagnostics only; never part of the math or the tape):
  * `recording()` is a context manager yielding `{scoped name: [array copy
    per call]}`; it collects what `record` is given while it is live;
  * `scope(name)` prefixes `name + "."` to every name recorded inside it;
  * `record(name, t)` stores a copy of `t`'s data, or does nothing when no
    recorder is live or `t` is None; `record_each(names, t)` stores slice i
    of `t`'s leading axis under names[i], and slices nothing when no
    recorder is live.
Both slots live beside the active tape in the thread-local `_STATE`, and
leaving either context restores the outer state, also on an exception.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, ShapeError, VocabularyError


class _State(threading.local):
    tape, records, scope = None, None, ""  # the active Tape, the live recorder, the name prefix


_STATE = _State()
LN_EPS = 1e-5  # added to layer_norm's variance inside the square root


class _Slot:
    """What the tape keeps of a tensor that needs a gradient: the gradient
    backward accumulates for it. Never the tensor's data."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad = None


class Tensor:
    __slots__ = ("data", "requires_grad", "slot")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.slot = _Slot() if requires_grad else None

    @staticmethod
    def _wrap(arr, requires_grad=False):
        t = Tensor.__new__(Tensor)
        t.data = arr
        t.requires_grad = requires_grad
        t.slot = _Slot() if requires_grad else None
        return t

    @property
    def grad(self):
        return None if self.slot is None else self.slot.grad

    @grad.setter
    def grad(self, value):
        if self.slot is None:
            self.slot = _Slot()
        self.slot.grad = value

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(())[()])

    def __repr__(self):
        return f"Tensor(shape={tuple(self.data.shape)}, requires_grad={self.requires_grad})"


class Tape:
    """Records ops in execution order; backward walks them reversed.

    Single-threaded per instance: a Tape must never be shared across
    concurrently recording callers (the active-tape slot is thread-local).
    """

    __slots__ = ("nodes", "_prev", "_walked")

    def __init__(self):
        self.nodes = []
        self._prev = None
        self._walked = False

    def __enter__(self):
        self._prev = _STATE.tape
        _STATE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.tape = self._prev
        return False

    def backward(self, loss, sinks=None):
        """Accumulate d loss / d t into the slot of every tensor t on the tape.
        `sinks` maps a tensor to a writable array shaped like it: that
        tensor's gradient is added into the array in place, and its .grad is
        left alone. Sinks are matched by the tensor's slot, which the tape
        holds, so a tensor made after the forward never receives a gradient
        recorded for a freed one, whatever its id().

        Consumes the tape: each node becomes None once its rule has run, so
        the slot of a tensor the caller does not hold is freed, with its
        gradient and the arrays its rule kept, as the walk goes on. The list
        keeps its length. A second backward raises ContractError."""
        if not isinstance(loss, Tensor):
            raise ContractError("backward target must be a Tensor")
        if loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if self._walked:
            raise ContractError("this tape was already walked by backward; record the graph again")
        self._walked = True
        nodes = self.nodes
        seed = np.ones_like(loss.data)
        loss.grad = seed if loss.grad is None else loss.grad + seed
        owned = {_slot(t): sink for t, sink in sinks.items()} if sinks else {}
        for i in range(len(nodes) - 1, -1, -1):
            out, inputs, bwd = nodes[i]
            nodes[i] = None
            g = out.grad
            if g is None:
                continue
            grads = bwd(g)
            for s, gs in zip(inputs, grads):
                if gs is None or s is None:
                    continue
                sink = owned.get(s)
                if sink is not None:
                    sink += gs
                else:
                    s.grad = gs if s.grad is None else s.grad + gs


@contextmanager
def _swapped(slot, value):
    """Set the state slot to `value` inside the block (yielded), and back after."""
    prev = getattr(_STATE, slot)
    setattr(_STATE, slot, value)
    try:
        yield value
    finally:
        setattr(_STATE, slot, prev)


def no_grad():
    return _swapped("tape", None)


def recording():
    """Collect every `record` call made inside; yields {scoped name: [copies]}."""
    return _swapped("records", {})


def scope(name):
    """Prefix `name + "."` to the names recorded inside."""
    return _swapped("scope", f"{_STATE.scope}{name}.")


def record(name, t):
    """Append a copy of `t`'s data under the scoped name, if a recorder is live."""
    if _STATE.records is not None and t is not None:
        _STATE.records.setdefault(_STATE.scope + name, []).append(t.data.copy())


def record_each(names, t):
    """`record(names[i], slice i of t's leading axis)`; nothing is sliced when
    no recorder is live."""
    if _STATE.records is not None:
        for name, row in zip(names, t.data):
            _STATE.records.setdefault(_STATE.scope + name, []).append(row.copy())


def _slot(t):
    """t's gradient slot, made on first need; None if t needs no gradient."""
    if not t.requires_grad:
        return None
    if t.slot is None:
        t.slot = _Slot()
    return t.slot


def _emit(data, inputs, bwd):
    """Wrap data; record a node when a tape is live and some input needs grad."""
    tape = _STATE.tape
    if tape is not None and any(t.requires_grad for t in inputs):
        out = Tensor._wrap(data, True)
        tape.nodes.append((out.slot, tuple([_slot(t) for t in inputs]), bwd))
        return out
    return Tensor._wrap(data)


# ---------------------------------------------------------------- binary ops


def matmul(x, w, b=None):
    """x @ w (+ b) as one fused op: x [*S x ... x K], w [*S x K x N] and b
    (optional) [*S x N]. Each slice is one GEMM over its rows flattened,
    slice s of the result being x[s] @ w[s] + b[s] with the bias broadcast
    over its rows; with S empty one w [K x N] is shared by every row of x."""
    xd, wd = x.data, w.data
    lead = wd.shape[:-2]
    if (wd.ndim < 2 or xd.ndim < wd.ndim or xd.shape[:len(lead)] != lead or xd.shape[-1] != wd.shape[-2]
            or (b is not None and b.data.shape != lead + wd.shape[-1:])):
        raise ShapeError(f"matmul needs x[*S,...,K], w[*S,K,N], b[*S,N]; "
                         f"got {xd.shape}, {wd.shape}, {None if b is None else b.data.shape}")
    n_in, n_out, x_shape = wd.shape[-2], wd.shape[-1], xd.shape
    x3 = xd.reshape(lead + (-1, n_in))
    out = x3 @ wd
    if b is not None:
        out += b.data[..., None, :]
    out = out.reshape(x_shape[:-1] + (n_out,))
    inputs = (x, w) if b is None else (x, w, b)
    rx, rw, rb, n = x.requires_grad, w.requires_grad, b is not None and b.requires_grad, len(inputs)
    x3, wd = (x3 if rw else None), (wd if rx else None)  # each operand only for the other's gradient

    def bwd(g):
        g3 = g.reshape(lead + (-1, n_out))
        gx = (g3 @ wd.swapaxes(-1, -2)).reshape(x_shape) if rx else None
        gw = x3.swapaxes(-1, -2) @ g3 if rw else None
        return (gx, gw, g3.sum(axis=-2) if rb else None)[:n]

    return _emit(out, inputs, bwd)


def _operands(a, b, opname):
    """The one elementwise rule of add and mul: equal shapes pair up entry by
    entry; otherwise a size-1 operand (a size-1 tensor or a python number)
    acts as a scalar. Returns b as a tensor and the two arrays to combine."""
    if not isinstance(b, Tensor):
        b = Tensor._wrap(np.asarray(float(b)))
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        if bd.size == 1:
            bd = bd.reshape(())
        elif ad.size == 1:
            ad = ad.reshape(())
        else:
            raise ShapeError(f"{opname}: shapes {a.data.shape} and {b.data.shape} differ and neither is scalar")
    return b, ad, bd


def _sum_to(g, shape, factor=None):
    """An operand's gradient: g (times `factor`), summed down to one entry if
    the operand acted as a scalar (shape being the operand's own); None if
    shape is None, the operand needing no gradient."""
    if shape is None:
        return None
    if factor is not None:
        g = g * factor
    return g if g.shape == shape else g.sum().reshape(shape)


def add(a, b):
    b, ad, bd = _operands(a, b, "add")
    sa, sb = (a.data.shape if a.requires_grad else None), (b.data.shape if b.requires_grad else None)
    return _emit(ad + bd, (a, b), lambda g: (_sum_to(g, sa), _sum_to(g, sb)))


def mul(a, b):
    b, ad, bd = _operands(a, b, "mul")
    sa, sb = (a.data.shape if a.requires_grad else None), (b.data.shape if b.requires_grad else None)
    fa, fb = (None if sa is None else bd), (None if sb is None else ad)  # each factor only for the other's gradient
    return _emit(ad * bd, (a, b), lambda g: (_sum_to(g, sa, fa), _sum_to(g, sb, fb)))


def pairwise_add(p, k):
    """Every row of p plus every row of k: [..., N, d], [..., M, d] ->
    [..., N*M, d], row i*M + j holding p[..., i, :] + k[..., j, :] (the
    score grid of additive attention, per scene of a batch)."""
    pd, kd = p.data, k.data
    if pd.ndim < 2 or pd.ndim != kd.ndim or pd.shape[:-2] != kd.shape[:-2] or pd.shape[-1] != kd.shape[-1]:
        raise ShapeError(f"pairwise_add needs [..., N x d] and [..., M x d], got {pd.shape} and {kd.shape}")
    lead, n, m, d = pd.shape[:-2], pd.shape[-2], kd.shape[-2], pd.shape[-1]
    out = (pd[..., :, None, :] + kd[..., None, :, :]).reshape(lead + (n * m, d))
    rp, rk = p.requires_grad, k.requires_grad

    def bwd(g):
        g4 = g.reshape(lead + (n, m, d))
        return g4.sum(axis=-2) if rp else None, g4.sum(axis=-3) if rk else None

    return _emit(out, (p, k), bwd)


def _head_view(xd, h, opname):
    """[..., n, d] data as the strided view [..., h, n, d/h] (h contiguous
    column blocks), plus the axis swap that maps one layout to the other."""
    nd = xd.ndim
    if nd < 2 or xd.shape[-1] % h != 0:
        raise ShapeError(f"{opname}: width of shape {xd.shape} not divisible by {h} heads")
    perm = tuple(range(nd - 2)) + (nd - 1, nd - 2, nd)
    return xd.reshape(xd.shape[:-1] + (h, xd.shape[-1] // h)).transpose(perm), perm


def _biased(scores, bias, opname):
    """scores plus an optional additive bias that broadcasts to them."""
    try:
        return scores if bias is None else np.add(scores, bias, out=np.empty(scores.shape))
    except ValueError:
        raise ShapeError(f"{opname}: bias shape {np.shape(bias)} does not broadcast to scores {scores.shape}") from None


def attention_weights(q, k, h, bias=None):
    """Per-head row-stochastic maps softmax(Q K^T / sqrt(d/h) + bias) as one op.

    q: [..., n_q, d], k: [..., n_k, d] -> [..., h, n_q, n_k]. bias (optional
    float array) broadcasts to the output's shape.
    """
    qd, kd = q.data, k.data
    qh, perm = _head_view(qd, h, "attention_weights")
    if (kd.ndim != qd.ndim or kd.shape[:-2] != qd.shape[:-2] or kd.shape[-1] != qd.shape[-1]
            or kd.shape[-2] == 0):
        raise ShapeError(f"attention_weights: keys {kd.shape} do not match queries {qd.shape}")
    kh, _ = _head_view(kd, h, "attention_weights")
    scale = np.asarray(1.0 / np.sqrt(qd.shape[-1] // h))
    out = softmax_rows(_biased((qh @ kh.swapaxes(-1, -2)) * scale, bias, "attention_weights"))
    rq, rk, q_shape, k_shape = q.requires_grad, k.requires_grad, qd.shape, kd.shape
    qh, kh = (qh if rk else None), (kh if rq else None)

    def bwd(g):
        gs = out * (g - (g * out).sum(axis=-1, keepdims=True)) * scale
        gq = (gs @ kh).transpose(perm).reshape(q_shape) if rq else None
        gk = (qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2).transpose(perm).reshape(k_shape) if rk else None
        return gq, gk

    return _emit(out, (q, k), bwd)


def apply_attention(weights, v, h):
    """Per-head maps applied to the values, heads merged back, as one op.

    weights: [..., h, n_q, n_k], v: [..., n_k, d] -> [..., n_q, d].
    """
    wd, vd = weights.data, v.data
    vh, perm = _head_view(vd, h, "apply_attention")
    if (wd.ndim != vd.ndim + 1 or wd.shape[:-3] != vd.shape[:-2] or wd.shape[-3] != h
            or wd.shape[-1] != vd.shape[-2]):
        raise ShapeError(f"apply_attention: weights {wd.shape} do not fit {h} heads over values {vd.shape}")
    merged = (wd @ vh).transpose(perm)
    out = merged.reshape(merged.shape[:-2] + (vd.shape[-1],))
    rw, rv, merged_shape, v_shape = weights.requires_grad, v.requires_grad, merged.shape, vd.shape
    wd, vh = (wd if rv else None), (vh if rw else None)

    def bwd(g):
        gh = g.reshape(merged_shape).transpose(perm)
        gw = gh @ vh.swapaxes(-1, -2) if rw else None
        gv = (wd.swapaxes(-1, -2) @ gh).transpose(perm).reshape(v_shape) if rv else None
        return gw, gv

    return _emit(out, (weights, v), bwd)


# ----------------------------------------------------------------- unary ops


def tanh(x):
    out = np.tanh(x.data)
    return _emit(out, (x,), lambda g: (g * (1.0 - out * out),))


def sigmoid(x):
    out = 1.0 / (1.0 + np.exp(-x.data))
    return _emit(out, (x,), lambda g: (g * out * (1.0 - out),))


def relu(x):
    keep = x.data > 0.0
    return _emit(np.where(keep, x.data, 0.0), (x,), lambda g: (np.where(keep, g, 0.0),))


# ------------------------------------------------------------ softmax / norm


def softmax_rows(a):
    """Softmax over the last axis of an array, max-subtracted for stability:
    the forward of `softmax` and `attention_weights`, and the decode step's."""
    e = np.exp(a - np.maximum.reduce(a, -1, keepdims=True))
    return e / np.add.reduce(e, -1, keepdims=True)


def softmax(x, bias=None):
    """Softmax over the last axis, max-subtracted for stability, of x plus
    bias (optional float array that broadcasts to x's shape)."""
    xd = x.data
    if xd.ndim < 1 or xd.shape[-1] == 0:
        raise ShapeError(f"softmax needs a non-empty last axis, got shape {xd.shape}")
    out = softmax_rows(_biased(xd, bias, "softmax"))

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _emit(out, (x,), bwd)


def log_softmax(x):
    """Log softmax over the last axis, max-subtracted for stability. Every
    entry is <= 0 exactly: the row max shifts to 0 and the exp-sum, which
    holds its exp(0) = 1, rounds to at least 1."""
    xd = x.data
    if xd.ndim < 1 or xd.shape[-1] == 0:
        raise ShapeError(f"log_softmax needs a non-empty last axis, got shape {xd.shape}")
    xs = xd - np.maximum.reduce(xd, -1, keepdims=True)
    e = np.exp(xs)
    row_sum = np.add.reduce(e, -1, keepdims=True)
    out = xs - np.log(row_sum)
    return _emit(out, (x,), lambda g: (g - e * (np.add.reduce(g, -1, keepdims=True) / row_sum),))


def _mean_last(a):
    """a.mean(axis=-1, keepdims=True), bit for bit (for float64, ndarray.mean
    is this sum and division), without NumPy's Python-level wrapper."""
    return np.add.reduce(a, -1, keepdims=True) / a.shape[-1]


def layer_norm_rows(a, gain, bias):
    """The forward of `layer_norm` on arrays, gain and bias broadcast against
    a: (out, the normalized rows, 1 / their standard deviation)."""
    xc = a - _mean_last(a)
    inv = 1.0 / np.sqrt(_mean_last(xc * xc) + LN_EPS)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def layer_norm(x, gain, bias):
    """Normalize the last axis to zero mean / unit variance, then gain*x + bias.

    Population variance; LN_EPS sits inside the square root. Feature axis must
    have length >= 2 so the variance is defined. gain and bias are [*S x d]
    for x [*S x ... x d], slice s of x taking gain[s] and bias[s] over its
    rows: S is empty for one [d] gain, or one slice axis [k x d] stacked.
    """
    xd = x.data
    d = xd.shape[-1] if xd.ndim else 0
    if d < 2:
        raise ShapeError(f"layer_norm needs a feature axis of length >= 2, got shape {xd.shape}")
    gd, bd = gain.data, bias.data
    lead = gd.shape[:-1]
    if (gd.shape != bd.shape or gd.shape[-1] != d or gd.ndim > 2
            or (lead and (xd.ndim < 3 or xd.shape[0] != lead[0]))):
        raise ShapeError(f"layer_norm gain/bias must be [{d}], or [k x {d}] for x [k x ... x {d}]; "
                         f"got {gd.shape}, {bd.shape} for x {xd.shape}")
    rows = lead + (-1, d)  # what the gain and bias gradients sum over
    spread = lead + (1,) * (xd.ndim - gd.ndim) + (d,)  # each slice's gain and bias over that slice's rows
    gd, bd = gd.reshape(spread), bd.reshape(spread)
    out, xhat, inv = layer_norm_rows(xd, gd, bd)
    rx, rgain, rbias = x.requires_grad, gain.requires_grad, bias.requires_grad

    def bwd(g):
        ggain = (g * xhat).reshape(rows).sum(axis=-2) if rgain else None
        gbias = g.reshape(rows).sum(axis=-2) if rbias else None
        if rx:
            dxhat = g * gd
            gx = inv * (dxhat - _mean_last(dxhat) - xhat * _mean_last(dxhat * xhat))
        else:
            gx = None
        return gx, ggain, gbias

    return _emit(out, (x, gain, bias), bwd)


# ------------------------------------------------------- shape / reductions


def sum_axis(x, axis):
    xd = x.data
    if not -xd.ndim <= axis < xd.ndim:
        raise ShapeError(f"sum_axis: axis {axis} out of range for shape {xd.shape}")
    ax, shape = axis % xd.ndim, xd.shape
    return _emit(np.add.reduce(xd, ax), (x,), lambda g: (np.broadcast_to(np.expand_dims(g, ax), shape),))


def total_sum(x):
    xd = x.data
    shape = xd.shape
    return _emit(xd.sum(), (x,), lambda g: (np.broadcast_to(g, shape),))


def concat(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of an empty list")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def bwd(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _emit(out, tuple(tensors), bwd)


def stack(tensors):
    """Tensors of one shape stacked on a new leading axis, as one op: a copy,
    or, when every member is one tensor, a read-only broadcast view of it.
    Either way the backward hands each member its slice."""
    tensors = tuple(tensors)
    if not tensors or any(t.data.shape != tensors[0].data.shape for t in tensors):
        raise ShapeError(f"stack needs tensors of one shape, got {[t.data.shape for t in tensors]}")
    first = tensors[0].data
    repeated = all(t is tensors[0] for t in tensors)
    out = np.broadcast_to(first, (len(tensors),) + first.shape) if repeated else np.stack([t.data for t in tensors])
    return _emit(out, tensors, tuple)


def mix_maps(maps, gates):
    """sum_i gates[..., i] * maps[i] for m maps [*L x ...] of one shape and
    gates [*L x m], each map slice mixed by its own gates (GESA's convex map
    mix, per branch and scene; L empty, one gate per whole map), as one op.
    Forward and backward repeat, in order, the NumPy arithmetic of the
    narrow/mul/add composite that tests/oracles.py keeps as the reference,
    so the two agree bit for bit."""
    maps = tuple(maps)
    gd = gates.data
    lead = gd.shape[:-1]
    if (not maps or gd.ndim < 1 or gd.shape[-1] != len(maps)
            or maps[0].data.shape[:len(lead)] != lead or maps[0].data.ndim <= len(lead)):
        raise ShapeError(f"mix_maps: gates of shape {gd.shape} do not weight {len(maps)} maps")
    if any(m.data.shape != maps[0].data.shape for m in maps):
        raise ShapeError(f"mix_maps: map shapes differ: {[m.data.shape for m in maps]}")
    # column i of the gates, broadcast over each map slice
    weights = np.moveaxis(gd, -1, 0).reshape((len(maps),) + lead + (1,) * (maps[0].data.ndim - len(lead)))
    out = maps[0].data * weights[0]
    for m, gi in zip(maps[1:], weights[1:]):
        out = out + m.data * gi
    wanted = [m.requires_grad for m in maps]
    datas = [m.data for m in maps] if gates.requires_grad else None  # read only by the gates' gradient

    def bwd(g):
        if datas is not None:
            ggates = np.stack([(g * md).reshape(lead + (-1,)).sum(axis=-1) for md in datas], axis=-1)
        else:
            ggates = None
        return (*[g * gi if r else None for r, gi in zip(wanted, weights)], ggates)

    return _emit(out, maps + (gates,), bwd)


def index(x, key):
    """x.data[key] for a basic index (an int, a slice or a tuple of them), as
    one op: a view, whose backward scatters g into zeros shaped like x."""
    keys = key if isinstance(key, tuple) else (key,)
    if not all(isinstance(k, (int, np.integer, slice)) for k in keys):
        raise ShapeError(f"index takes ints and slices, got {key!r}")
    xd = x.data
    try:
        out = xd[key]
    except IndexError as e:
        raise ShapeError(f"index {key!r} does not fit shape {xd.shape}: {e}") from None

    shape = xd.shape

    def bwd(g):
        z = np.zeros(shape)
        z[key] = g
        return (z,)

    return _emit(out, (x,), bwd)


def reshape(x, shape):
    in_shape = x.data.shape
    return _emit(x.data.reshape(shape), (x,), lambda g: (g.reshape(in_shape),))


def embedding_lookup(table, ids):
    """Rows of a [V x d] table selected by an integer id array of any shape
    (the result has shape ids.shape + [d]); grads scatter-add."""
    td = table.data
    if td.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got shape {td.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim < 1:
        raise ShapeError(f"embedding ids need at least one axis, got shape {idx.shape}")
    v = td.shape[0]
    bad = (idx < 0) | (idx >= v)
    if bad.any():
        offender = int(idx[bad][0])
        raise VocabularyError(f"token id {offender} outside vocabulary of size {v}")
    out, shape = td[idx], td.shape

    def bwd(g):
        z = np.zeros(shape)
        np.add.at(z, idx, g)
        return (z,)

    return _emit(out, (table,), bwd)
