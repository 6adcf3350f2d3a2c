"""Minimal reverse-mode differentiable tensor engine.

Design constraints, fixed for the whole package:
  * every value is float64 in a numpy array, row-major (C order) except the
    strided views that `stack` and `index` return;
  * no implicit broadcasting between tensors except scalars (size-1 tensors
    and python numbers); row-wise broadcast exists only INSIDE the fused
    affine and layer_norm kernels (per slice, when stacked), the pairwise_add
    grid and the per-map gates of mix_maps;
  * `stack` of equally spaced, same-shape views of one buffer (parameters in
    the flat vector are) is a strided view of that buffer, not a copy;
  * forward ops execute eagerly; when a Tape is active and an input requires
    grad, the op appends one node to the tape. Backward replays nodes in exact
    reverse recording order, which is a valid reverse topological order because
    recording order is execution order;
  * backward consumes the tape once: it drops each node as soon as that
    node's rule has run, so activations, the arrays a rule kept and
    intermediate gradients are freed mid-walk unless the caller holds the
    tensor, and a walked tape refuses a second backward.

Gradients accumulate into Tensor.grad (never mutated in place, so aliasing
views returned by backward rules are safe), or, for the tensors a backward
call is given sinks for, in place into those caller-owned arrays.

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


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @staticmethod
    def _wrap(arr, requires_grad=False):
        t = Tensor.__new__(Tensor)
        t.data = arr
        t.requires_grad = requires_grad
        t.grad = None
        return t

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

    __slots__ = ("nodes", "memo", "_prev", "_walked")

    def __init__(self):
        self.nodes = []
        self.memo = {}  # values derived once per recording (see `tape_memo`)
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
        """Accumulate d loss / d t into every tensor t on the tape. `sinks`
        maps id(t) to a writable array shaped like t: such a t has its
        gradient added into that array in place, and its .grad is left alone.

        Consumes the tape: each node's slot becomes None once its rule has
        run, so a node output the caller does not hold is freed, with its
        gradient and the forward arrays its rule kept, as the walk goes on.
        The list keeps its length. A second backward raises ContractError."""
        if not isinstance(loss, Tensor):
            raise ContractError("backward target must be a Tensor")
        if loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if self._walked:
            raise ContractError("this tape was already walked by backward; record the graph again")
        self._walked = True
        self.memo = {}
        nodes = self.nodes
        seed = np.ones_like(loss.data)
        loss.grad = seed if loss.grad is None else loss.grad + seed
        sinks = sinks or {}
        for i in range(len(nodes) - 1, -1, -1):
            out, inputs, bwd = nodes[i]
            nodes[i] = None
            g = out.grad
            if g is None:
                continue
            grads = bwd(g)
            for t, gt in zip(inputs, grads):
                if gt is None or not t.requires_grad:
                    continue
                sink = sinks.get(id(t))
                if sink is not None:
                    sink += gt
                else:
                    t.grad = gt if t.grad is None else t.grad + gt


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


def tape_memo():
    """The live tape's memo dict, or None with no tape: a caller keeps there
    tensors it derives once per recording (`nn.stacked` keeps its parameter
    stacks). Backward empties it."""
    tape = _STATE.tape
    return None if tape is None else tape.memo


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


def record_each(names, t, shape=None):
    """`record(names[i], slice i of t's leading axis)`, each slice reshaped to
    `shape` if given; nothing is sliced when no recorder is live."""
    if _STATE.records is not None:
        for name, row in zip(names, t.data):
            _STATE.records.setdefault(_STATE.scope + name, []).append(row.reshape(shape or row.shape).copy())


def _emit(data, inputs, bwd):
    """Wrap data; record a node when a tape is live and some input needs grad."""
    tape = _STATE.tape
    if tape is not None and any(t.requires_grad for t in inputs):
        out = Tensor._wrap(data, True)
        tape.nodes.append((out, inputs, bwd))
        return out
    return Tensor._wrap(data)


# ---------------------------------------------------------------- binary ops


def matmul(a, b):
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2] or ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul shapes incompatible: {ad.shape} @ {bd.shape}")
    out = ad @ bd

    def bwd(g):
        ga = g @ bd.swapaxes(-1, -2) if a.requires_grad else None
        gb = ad.swapaxes(-1, -2) @ g if b.requires_grad else None
        return ga, gb

    return _emit(out, (a, b), bwd)


def affine(x, w, b):
    """x @ w + b with the bias broadcast over rows, as one fused op.

    x: [..., K], w: [K, N], b: [N]. Stacked on a leading slice axis, x: [k, ..., K],
    w: [k, K, N], b: [k, N], slice i of the result being x[i] @ w[i] + b[i].
    """
    if w.data.ndim == 3:
        return _stacked_affine(x, w, b)
    xd, wd, bb = x.data, w.data, b.data
    if xd.ndim < 2 or wd.ndim != 2 or bb.ndim != 1:
        raise ShapeError(f"affine needs x[...,K], w[K,N], b[N]; got {xd.shape}, {wd.shape}, {bb.shape}")
    if xd.shape[-1] != wd.shape[0] or wd.shape[1] != bb.shape[0]:
        raise ShapeError(f"affine shapes incompatible: {xd.shape} @ {wd.shape} + {bb.shape}")
    out = xd @ wd + bb

    def bwd(g):
        gx = g @ wd.T if x.requires_grad else None
        if w.requires_grad:
            gw = xd.reshape(-1, xd.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            gw = None
        gb = g.reshape(-1, g.shape[-1]).sum(axis=0) if b.requires_grad else None
        return gx, gw, gb

    return _emit(out, (x, w, b), bwd)


def _stacked_affine(x, w, b):
    xd, wd, bb = x.data, w.data, b.data
    k, n_in, n_out = wd.shape
    if xd.ndim < 3 or xd.shape[0] != k or xd.shape[-1] != n_in or bb.shape != (k, n_out):
        raise ShapeError(f"stacked affine needs x[k,...,K], w[k,K,N], b[k,N]; got {xd.shape}, {wd.shape}, {bb.shape}")
    x3 = xd.reshape(k, -1, n_in)
    out = (x3 @ wd + bb[:, None, :]).reshape(xd.shape[:-1] + (n_out,))

    def bwd(g):
        g3 = g.reshape(k, -1, n_out)
        gx = (g3 @ wd.swapaxes(1, 2)).reshape(xd.shape) if x.requires_grad else None
        gw = x3.swapaxes(1, 2) @ g3 if w.requires_grad else None
        gb = g3.sum(axis=1) if b.requires_grad else None
        return gx, gw, gb

    return _emit(out, (x, w, b), bwd)


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


def _sum_to(t, g, factor=None):
    """Operand t's gradient: g (times `factor`), summed down to one entry if t
    acted as a scalar; None if t needs no gradient."""
    if not t.requires_grad:
        return None
    if factor is not None:
        g = g * factor
    return g if g.shape == t.data.shape else g.sum().reshape(t.data.shape)


def add(a, b):
    b, ad, bd = _operands(a, b, "add")
    return _emit(ad + bd, (a, b), lambda g: (_sum_to(a, g), _sum_to(b, g)))


def mul(a, b):
    b, ad, bd = _operands(a, b, "mul")
    return _emit(ad * bd, (a, b), lambda g: (_sum_to(a, g, bd), _sum_to(b, g, ad)))


def pairwise_add(p, k):
    """Every row of p plus every row of k: [N x d], [M x d] -> [N*M x d], row
    i*M + j holding p[i] + k[j] (the score grid of additive attention)."""
    pd, kd = p.data, k.data
    if pd.ndim != 2 or kd.ndim != 2 or pd.shape[1] != kd.shape[1]:
        raise ShapeError(f"pairwise_add needs [N x d] and [M x d], got {pd.shape} and {kd.shape}")
    n, m, d = pd.shape[0], kd.shape[0], pd.shape[1]
    out = (pd[:, None, :] + kd[None, :, :]).reshape(n * m, d)

    def bwd(g):
        g3 = g.reshape(n, m, d)
        return (g3.sum(axis=1) if p.requires_grad else None,
                g3.sum(axis=0) if k.requires_grad else None)

    return _emit(out, (p, k), bwd)


def _head_view(xd, h, opname):
    """[..., n, d] data as the strided view [..., h, n, d/h] (h contiguous
    column blocks), plus the axis swap that maps one layout to the other."""
    nd = xd.ndim
    if nd < 2 or xd.shape[-1] % h != 0:
        raise ShapeError(f"{opname}: width of shape {xd.shape} not divisible by {h} heads")
    perm = tuple(range(nd - 2)) + (nd - 1, nd - 2, nd)
    return xd.reshape(xd.shape[:-1] + (h, xd.shape[-1] // h)).transpose(perm), perm


def attention_weights(q, k, h, mask=None):
    """Per-head row-stochastic maps softmax(Q K^T / sqrt(d/h)) as one op.

    q: [..., n_q, d], k: [..., n_k, d] -> [..., h, n_q, n_k]. mask (optional
    bool array of the output's shape) marks scores set to -1e9 before the
    softmax.
    """
    qd, kd = q.data, k.data
    qh, perm = _head_view(qd, h, "attention_weights")
    if (kd.ndim != qd.ndim or kd.shape[:-2] != qd.shape[:-2] or kd.shape[-1] != qd.shape[-1]
            or kd.shape[-2] == 0):
        raise ShapeError(f"attention_weights: keys {kd.shape} do not match queries {qd.shape}")
    kh, _ = _head_view(kd, h, "attention_weights")
    scale = np.asarray(1.0 / np.sqrt(qd.shape[-1] // h))
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != scores.shape:
            raise ShapeError(f"attention_weights: mask shape {mask.shape} != score shape {scores.shape}")
        scores = np.where(mask, -1e9, scores)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        gs = out * (g - (g * out).sum(axis=-1, keepdims=True))
        if mask is not None:
            gs = np.where(mask, 0.0, gs)
        gs = gs * scale
        gq = (gs @ kh).transpose(perm).reshape(qd.shape) if q.requires_grad else None
        if k.requires_grad:
            gk = (qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2).transpose(perm).reshape(kd.shape)
        else:
            gk = None
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

    def bwd(g):
        gh = g.reshape(merged.shape).transpose(perm)
        gw = gh @ vh.swapaxes(-1, -2) if weights.requires_grad else None
        gv = (wd.swapaxes(-1, -2) @ gh).transpose(perm).reshape(vd.shape) if v.requires_grad else None
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


def softmax(x):
    """Softmax over the last axis, max-subtracted for stability."""
    xd = x.data
    if xd.ndim < 1 or xd.shape[-1] == 0:
        raise ShapeError(f"softmax needs a non-empty last axis, got shape {xd.shape}")
    m = xd.max(axis=-1, keepdims=True)
    e = np.exp(xd - m)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _emit(out, (x,), bwd)


def log_softmax(x):
    """Log softmax over the last axis, max-subtracted for stability.

    Forward and backward repeat, in order, the NumPy arithmetic of the
    engine-op composite that tests/oracles.py keeps as the reference, so the
    two agree bit for bit.
    """
    xd = x.data
    if xd.ndim < 1 or xd.shape[-1] == 0:
        raise ShapeError(f"log_softmax needs a non-empty last axis, got shape {xd.shape}")
    v = xd.shape[-1]
    x2 = xd.reshape(-1, v)
    xs = x2 - x2.max(axis=-1, keepdims=True)
    e = np.exp(xs)
    row_sum = np.add.reduce(e, -1) / v * float(v)
    out = (xs - np.log(row_sum)[:, None]).reshape(xd.shape)

    def bwd(g):
        g2 = g.reshape(-1, v)
        # Each step rounds as the composite's did: the row sums of g come from
        # a product with ones (g2.sum(-1) rounds differently and would change
        # training), and `* v / v` is its mul and mean, left unsimplified.
        gz = ((g2 * -1.0) @ np.ones((v, 1))).reshape(-1)
        ge = ((gz / row_sum) * float(v)) / v
        return ((g2 + ge[:, None] * e).reshape(xd.shape),)

    return _emit(out, (x,), bwd)


def _mean_last(a):
    """a.mean(axis=-1, keepdims=True), bit for bit (for float64, ndarray.mean
    is this sum and division), without NumPy's Python-level wrapper."""
    return np.add.reduce(a, -1, keepdims=True) / a.shape[-1]


def layer_norm(x, gain, bias):
    """Normalize the last axis to zero mean / unit variance, then gain*x + bias.

    Population variance; LN_EPS sits inside the square root. Feature axis must
    have length >= 2 so the variance is defined. gain and bias are [d], or,
    stacked on a leading slice axis, [k x d] for x [k x ... x d], slice i of
    x taking gain[i] and bias[i].
    """
    xd = x.data
    d = xd.shape[-1] if xd.ndim else 0
    if d < 2:
        raise ShapeError(f"layer_norm needs a feature axis of length >= 2, got shape {xd.shape}")
    gd, bd = gain.data, bias.data
    stacked = gd.ndim == 2
    if (gd.shape != bd.shape or gd.shape[-1] != d or gd.ndim > 2
            or (stacked and (xd.ndim < 3 or xd.shape[0] != gd.shape[0]))):
        raise ShapeError(f"layer_norm gain/bias must be [{d}], or [k x {d}] for x [k x ... x {d}]; "
                         f"got {gd.shape}, {bd.shape} for x {xd.shape}")
    if stacked:  # each slice's row broadcast over that slice's rows
        lead = (gd.shape[0],) + (1,) * (xd.ndim - 2) + (d,)
        gd, bd = gd.reshape(lead), bd.reshape(lead)
    mu = _mean_last(xd)
    xc = xd - mu
    var = _mean_last(xc * xc)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    out = xhat * gd + bd

    def bwd(g):
        rows = (gain.data.shape[0], -1, d) if stacked else (-1, d)  # summed over axis 1 or 0: the rows of one slice
        ggain = (g * xhat).reshape(rows).sum(axis=-2) if gain.requires_grad else None
        gbias = g.reshape(rows).sum(axis=-2) if bias.requires_grad else None
        if x.requires_grad:
            dxhat = g * gd
            gx = inv * (dxhat - _mean_last(dxhat) - xhat * _mean_last(dxhat * xhat))
        else:
            gx = None
        return gx, ggain, gbias

    return _emit(out, (x, gain, bias), bwd)


# ------------------------------------------------------- shape / reductions


def sum_pool_stride(x, stride):
    """Sum consecutive groups of `stride` entries along the last axis."""
    xd = x.data
    if stride < 1 or xd.ndim < 1 or xd.shape[-1] % stride != 0:
        raise ShapeError(f"sum_pool_stride: last axis {xd.shape} not divisible by stride {stride}")
    lead = xd.shape[:-1]
    out_w = xd.shape[-1] // stride
    out = xd.reshape(*lead, out_w, stride).sum(axis=-1)
    return _emit(out, (x,), lambda g: (np.repeat(g, stride, axis=-1),))


def mean(x, axis):
    xd = x.data
    if not -xd.ndim <= axis < xd.ndim:
        raise ShapeError(f"mean: axis {axis} out of range for shape {xd.shape}")
    ax = axis % xd.ndim
    n = xd.shape[ax]
    out = np.add.reduce(xd, ax) / n  # xd.mean(axis=ax), bit for bit
    return _emit(out, (x,), lambda g: (np.broadcast_to(np.expand_dims(g / n, ax), xd.shape),))


def sum_axis(x, axis):
    xd = x.data
    if not -xd.ndim <= axis < xd.ndim:
        raise ShapeError(f"sum_axis: axis {axis} out of range for shape {xd.shape}")
    ax = axis % xd.ndim
    return _emit(np.add.reduce(xd, ax), (x,), lambda g: (np.broadcast_to(np.expand_dims(g, ax), xd.shape),))


def total_sum(x):
    xd = x.data
    return _emit(xd.sum(), (x,), lambda g: (np.broadcast_to(g, xd.shape),))


def concat(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of an empty list")
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)

    def bwd(g):
        return tuple(np.split(g, np.cumsum([d.shape[axis] for d in datas])[:-1], axis=axis))

    return _emit(out, tuple(tensors), bwd)


def _strided_stack(datas):
    """The arrays as one [k x ...] view of the buffer they share, when they are
    same-shape, C-contiguous views of it at equally spaced addresses (the
    parameters in the flat vector are, as is one array repeated); else None."""
    first = datas[0]
    if len(datas) == 1:
        view = first[None]
    elif not first.flags.c_contiguous:
        return None
    elif all(d is first for d in datas):  # one array repeated: a zero stride over it
        view = np.ndarray((len(datas),) + first.shape, first.dtype, first, 0, (0,) + first.strides)
    else:
        buf = first.base
        if not isinstance(buf, np.ndarray) or not buf.flags.c_contiguous:
            return None
        if any(d.base is not buf or d.shape != first.shape or not d.flags.c_contiguous for d in datas):
            return None
        addresses = [d.ctypes.data for d in datas]
        step = addresses[1] - addresses[0]
        if step < 0 or any(b - a != step for a, b in zip(addresses[1:], addresses[2:])):
            return None
        view = np.ndarray((len(datas),) + first.shape, first.dtype, buf, addresses[0] - buf.ctypes.data,
                          (step,) + first.strides)
    view.flags.writeable = False
    return view


def stack(tensors):
    """Tensors of one shape stacked on a new leading axis, as one op. Same-shape
    views of one buffer at equally spaced addresses stack to a strided view
    of it (zero-copy); other tensors are copied. Either way the backward
    hands each member its slice."""
    tensors = tuple(tensors)
    if not tensors or any(t.data.shape != tensors[0].data.shape for t in tensors):
        raise ShapeError(f"stack needs tensors of one shape, got {[t.data.shape for t in tensors]}")
    datas = [t.data for t in tensors]
    out = _strided_stack(datas)
    return _emit(np.stack(datas) if out is None else out, tensors, tuple)


def mix_maps(maps, gates):
    """sum_i gates[..., i] * maps[i] for m maps of one shape and gates [m], or,
    stacked on a leading slice axis, [k x m] for maps [k x ...], slice j of
    the result mixed by gates[j] (GESA's convex map mix), as one op. Forward
    and backward repeat, in order, the NumPy arithmetic of the
    narrow/mul/add composite that tests/oracles.py keeps as the reference,
    so the two agree bit for bit."""
    maps = tuple(maps)
    gd = gates.data
    lead = gd.shape[:-1]
    if (not maps or gd.ndim not in (1, 2) or gd.shape[-1] != len(maps)
            or maps[0].data.shape[:len(lead)] != lead or maps[0].data.ndim <= len(lead)):
        raise ShapeError(f"mix_maps: gates of shape {gd.shape} do not weight {len(maps)} maps")
    if any(m.data.shape != maps[0].data.shape for m in maps):
        raise ShapeError(f"mix_maps: map shapes differ: {[m.data.shape for m in maps]}")
    # column i of the gates, broadcast over each map slice (a scalar when unstacked)
    weights = gd.T.reshape((len(maps),) + lead + (1,) * (maps[0].data.ndim - len(lead))) if lead else gd
    out = maps[0].data * weights[0]
    for m, gi in zip(maps[1:], weights[1:]):
        out = out + m.data * gi

    def bwd(g):
        if gates.requires_grad:
            ggates = np.stack([(g * m.data).reshape(lead + (-1,)).sum(axis=-1) for m in maps], axis=-1)
        else:
            ggates = None
        return (*[g * gi if m.requires_grad else None for m, gi in zip(maps, weights)], ggates)

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

    def bwd(g):
        z = np.zeros(xd.shape)
        z[key] = g
        return (z,)

    return _emit(out, (x,), bwd)


def reshape(x, shape):
    xd = x.data
    out = xd.reshape(shape)
    return _emit(out, (x,), lambda g: (g.reshape(xd.shape),))


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
    out = td[idx]

    def bwd(g):
        z = np.zeros_like(td)
        np.add.at(z, idx, g)
        return (z,)

    return _emit(out, (table,), bwd)
