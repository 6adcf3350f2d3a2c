"""Engine-level checks: gradients against central differences, tape
mechanics, the no-implicit-broadcasting contract, and the recorder."""

import ast
import importlib
import inspect
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as O
from gevst import tensor as T
from gevst.config import BRANCH_NAMES
from gevst.encoder import active_groups, encode_all
from gevst.errors import ContractError, ShapeError
from gevst.tensor import Tape, Tensor, no_grad
from util import init_ffn, init_fusion_cell, init_gesa_group
from util import grad_check

RNG = np.random.default_rng(77)


def check(f, x, tol=1e-6):
    err = grad_check(f, x)
    assert err < tol, f"grad check failed: {err}"


def test_add_mul_sub_chain_grads():
    a = Tensor(RNG.normal(0, 1, (3, 4)), requires_grad=True)
    b = Tensor(RNG.normal(0, 1, (3, 4)))
    check(lambda t: T.total_sum(T.mul(O.sub(T, T.add(t, b), T.mul(t, 0.3)), t)), a)


def test_scalar_tensor_mul_grad():
    # gates are size-1 tensors multiplied against whole maps; add and mul
    # (and the oracle sub) share one rule for a size-1 operand on either side
    # or equal shapes
    g = Tensor(np.array([0.7]), requires_grad=True)
    m = Tensor(RNG.normal(0, 1, (4, 4)), requires_grad=True)
    m2 = Tensor(RNG.normal(0, 1, (4, 4)), requires_grad=True)
    w = Tensor(RNG.normal(0, 1, (4, 4)))
    for op in (T.add, lambda a, b: O.sub(T, a, b), T.mul):
        for a, b in ((m, g), (g, m), (m, m2)):
            check(lambda t: T.total_sum(T.mul(op(t, b), w)), a)
            check(lambda t: T.total_sum(T.mul(op(a, t), w)), b)
        check(lambda t: T.total_sum(T.mul(op(t, 0.7), w)), m)  # python number


def test_matmul_2d_and_batched_grads():
    a = Tensor(RNG.normal(0, 1, (3, 5)), requires_grad=True)
    b = Tensor(RNG.normal(0, 1, (5, 2)))
    check(lambda t: T.total_sum(T.matmul(t, b)), a)

    ba = Tensor(RNG.normal(0, 1, (2, 3, 4)), requires_grad=True)
    bb = Tensor(RNG.normal(0, 1, (2, 4, 3)))
    check(lambda t: T.total_sum(T.matmul(t, bb)), ba)


@pytest.mark.parametrize("lead", [(), (2, 3)], ids=["rank3", "rank5"])
def test_stacked_matmul_matches_per_slice_matmuls(lead):
    """T.matmul over [k x ... x K] inputs, [k x K x N] weights and [k x N]
    biases against one shared-weight matmul per slice: outputs and the
    gradients of every slice's input, weight and bias, through `T.stack`."""
    k, n_in, n_out = 3, 5, 4
    data = [(RNG.normal(0, 1, lead + (6, n_in)), RNG.normal(0, 1, (n_in, n_out)), RNG.normal(0, 1, n_out))
            for _ in range(k)]
    probe = Tensor(RNG.normal(0, 1, (k,) + lead + (6, n_out)))
    runs = []
    for stacked in (True, False):
        leaves = [[Tensor(a, requires_grad=True) for a in slice_data] for slice_data in data]
        with Tape() as tape:
            if stacked:
                out = T.matmul(*(T.stack(column) for column in zip(*leaves)))
            else:
                out = T.stack([T.matmul(x, w, b) for x, w, b in leaves])
            tape.backward(T.total_sum(T.mul(out, probe)))
        runs.append([out.data] + [t.grad for slice_leaves in leaves for t in slice_leaves])
    for got, want in zip(*runs):
        assert np.abs(got - want).max() <= 1e-12
    x, w, b = (Tensor(np.stack(column), requires_grad=True) for column in zip(*data))
    with Tape() as tape:
        T.matmul(x, w, b)
    assert len(tape.nodes) == 1
    for t in (x, w, b):
        check(lambda _: T.total_sum(T.mul(T.matmul(x, w, b), probe)), t)
    for bad in ((x, w, Tensor(np.ones((k + 1, n_out)))), (Tensor(np.ones((k + 1, 6, n_in))), w, b),
                (Tensor(np.ones((k, 6, n_in + 1))), w, b), (Tensor(np.ones((k, n_in))), w, b)):
        with pytest.raises(ShapeError, match="matmul needs"):
            T.matmul(*bad)


def test_stack_and_sum_axis_are_one_node_each():
    parts = [Tensor(RNG.normal(0, 1, (2, 3)), requires_grad=True) for _ in range(4)]
    with Tape() as tape:
        stacked = T.stack(parts)
        summed = T.sum_axis(stacked, 0)
    assert len(tape.nodes) == 2 and stacked.data.shape == (4, 2, 3)
    # the sum over the leading axis adds the slices in order, as a chain of T.add does
    chain = parts[0].data
    for p in parts[1:]:
        chain = chain + p.data
    assert np.array_equal(summed.data, chain)
    probe = Tensor(RNG.normal(0, 1, (4, 2, 3)))
    check(lambda t: T.total_sum(T.mul(T.stack([parts[0], t, parts[2], t]), probe)), parts[1])
    x = Tensor(RNG.normal(0, 1, (4, 2, 3)), requires_grad=True)
    for axis, shape in ((0, (2, 3)), (1, (4, 3)), (-1, (4, 2))):
        w = Tensor(RNG.normal(0, 1, shape))
        check(lambda t: T.total_sum(T.mul(T.sum_axis(t, axis), w)), x)
    with pytest.raises(ShapeError, match="one shape"):
        T.stack([parts[0], Tensor(np.ones((3, 2)))])
    with pytest.raises(ShapeError, match="one shape"):
        T.stack([])
    with pytest.raises(ShapeError, match="out of range"):
        T.sum_axis(x, 3)


def test_stack_copies_its_members_or_broadcasts_one_repeated():
    """Distinct members are copied, so the stack keeps the values they had;
    one tensor repeated (or a single tensor) stacks to a read-only broadcast
    view of it. Either way every member gets its slice of the gradient,
    summed where a member repeats."""
    buf = RNG.normal(0, 1, 100)
    view = lambda lo: Tensor._wrap(buf[lo : lo + 6].reshape(2, 3), True)
    owned = Tensor(RNG.normal(0, 1, (2, 3)), requires_grad=True)
    cases = [
        ([view(0), view(10), view(20)], False),  # equally spaced views of one buffer
        ([view(0), owned], False),
        ([owned, view(0), owned], False),  # a repeat among others
        ([owned, owned, owned], True),  # one tensor repeated
        ([owned], True),
    ]
    for members, is_view in cases:
        probe = RNG.normal(0, 1, (len(members), 2, 3))
        for t in members:
            t.grad = None
        with Tape() as tape:
            out = T.stack(members)
            tape.backward(T.total_sum(T.mul(out, Tensor(probe))))
        assert np.array_equal(out.data, np.stack([t.data for t in members]))
        assert np.shares_memory(out.data, members[0].data) == is_view
        assert not (is_view and out.data.flags.writeable)
        want = {}
        for t, p in zip(members, probe):
            want[id(t)] = want.get(id(t), 0.0) + p
        assert all(np.array_equal(t.grad, want[id(t)]) for t in members)
    stacked = T.stack(cases[0][0])
    before = buf[3]
    buf[3] = before + 1.0  # a copy keeps the values it was made from
    assert stacked.data[0, 1, 0] == before
    check(lambda t: T.total_sum(T.tanh(T.stack([t, t]))), owned)


def test_stacked_layer_norm_matches_per_slice_layer_norms():
    """layer_norm with [k x d] gain and bias over x [k x ... x d] against one
    layer_norm per slice: the same bits forward, gradients within 1e-12."""
    k, d = 3, 5
    data = [(RNG.normal(0, 1, (2, 4, d)), RNG.normal(0, 1, d), RNG.normal(0, 1, d)) for _ in range(k)]
    probe = Tensor(RNG.normal(0, 1, (k, 2, 4, d)))
    runs = []
    for together in (True, False):
        leaves = [[Tensor(a, requires_grad=True) for a in slice_data] for slice_data in data]
        with Tape() as tape:
            if together:
                out = T.layer_norm(*(T.stack(column) for column in zip(*leaves)))
            else:
                out = T.stack([T.layer_norm(x, g, b) for x, g, b in leaves])
            tape.backward(T.total_sum(T.mul(out, probe)))
        runs.append([out.data] + [t.grad for slice_leaves in leaves for t in slice_leaves])
    assert np.array_equal(runs[0][0], runs[1][0])
    for got, want in zip(runs[0][1:], runs[1][1:]):
        assert np.abs(got - want).max() <= 1e-12
    x, g, b = (Tensor(np.stack(column), requires_grad=True) for column in zip(*data))
    for t in (x, g, b):
        check(lambda _: T.total_sum(T.mul(T.layer_norm(x, g, b), probe)), t)
    for bad in ((x, Tensor(np.ones((k + 1, d))), Tensor(np.ones((k + 1, d)))), (x, g, Tensor(np.ones(d))),
                (Tensor(np.ones((k, d))), g, b), (x, Tensor(np.ones((k, 1, d))), Tensor(np.ones((k, 1, d))))):
        with pytest.raises(ShapeError, match="gain/bias"):
            T.layer_norm(*bad)


def test_mix_maps_with_per_slice_gates_matches_per_slice_mixes():
    """[k x m] gates over maps [k x ...] against one unstacked mix per slice:
    the same bits forward and in every gradient."""
    k, m = 2, 3
    maps_data = [RNG.random((k, 2, 4, 4)) for _ in range(m)]
    gates_data = RNG.dirichlet(np.ones(m), size=k)
    probe = RNG.normal(0, 1, (k, 2, 4, 4))
    maps = [Tensor(a, requires_grad=True) for a in maps_data]
    gates = Tensor(gates_data, requires_grad=True)
    with Tape() as tape:
        out = T.mix_maps(maps, gates)
        tape.backward(T.total_sum(T.mul(out, Tensor(probe))))
    for j in range(k):
        slice_maps = [Tensor(a[j], requires_grad=True) for a in maps_data]
        slice_gates = Tensor(gates_data[j], requires_grad=True)
        with Tape() as tape:
            want = T.mix_maps(slice_maps, slice_gates)
            tape.backward(T.total_sum(T.mul(want, Tensor(probe[j]))))
        assert np.array_equal(out.data[j], want.data)
        assert np.array_equal(gates.grad[j], slice_gates.grad)
        assert all(np.array_equal(t.grad[j], s.grad) for t, s in zip(maps, slice_maps))
    with pytest.raises(ShapeError, match="do not weight 3 maps"):
        T.mix_maps(maps, Tensor(np.ones((k + 1, m))))
    check(lambda t: T.total_sum(T.mul(T.mix_maps(maps, t), Tensor(probe))), gates)


def test_index_is_a_view_whose_backward_scatters():
    x = Tensor(RNG.normal(0, 1, (6, 2, 3)), requires_grad=True)
    with Tape() as tape:
        out = T.index(x, slice(1, None, 3))
    assert len(tape.nodes) == 1 and np.shares_memory(out.data, x.data)
    assert np.array_equal(out.data, x.data[1::3])
    w = Tensor(RNG.normal(0, 1, (2, 2, 3)))
    check(lambda t: T.total_sum(T.mul(T.index(t, slice(1, None, 3)), w)), x)
    check(lambda t: T.total_sum(T.tanh(T.index(t, (4, 1)))), x)
    for bad in (7, [0, 1], (0, 0, 0, 0)):
        with pytest.raises(ShapeError, match="index"):
            T.index(x, bad)


def test_record_each_stores_one_slice_per_name_only_when_recording():
    t = Tensor(RNG.normal(0, 1, (2, 2, 3)))
    T.record_each(("a", "b"), t)  # no recorder live: nothing
    with T.recording() as rec:
        with T.scope("s"):
            T.record_each(("a", "b"), t)
    assert list(rec) == ["s.a", "s.b"]
    assert [r.shape for r in rec["s.a"] + rec["s.b"]] == [(2, 3), (2, 3)]
    assert np.array_equal(rec["s.b"][0], t.data[1]) and not np.shares_memory(rec["s.b"][0], t.data)


def test_unary_grads():
    x = Tensor(RNG.uniform(0.2, 2.0, (3, 3)), requires_grad=True)
    for op in (T.tanh, T.sigmoid, lambda t: O.exp(T, t), lambda t: O.log(T, t)):
        check(lambda t, op=op: T.total_sum(op(t)), x)
    xr = Tensor(RNG.normal(0, 1, (6,)) + 0.05, requires_grad=True)  # keep off the relu kink
    check(lambda t: T.total_sum(T.relu(t)), xr)


def test_softmax_layer_norm_grads():
    x = Tensor(RNG.normal(0, 2, (3, 6)), requires_grad=True)
    w = Tensor(RNG.normal(0, 1, (6, 1)))
    check(lambda t: T.total_sum(T.matmul(T.softmax(t), w)), x)

    gain = Tensor(RNG.normal(1, 0.2, 6), requires_grad=True)
    bias = Tensor(RNG.normal(0, 0.2, 6), requires_grad=True)
    check(lambda t: T.total_sum(T.tanh(T.layer_norm(t, gain, bias))), x)
    check(lambda t: T.total_sum(T.layer_norm(x, t, bias)), gain)
    check(lambda t: T.total_sum(T.layer_norm(x, gain, t)), bias)


def _fused_and_composite_log_softmax(xd, gd):
    """[(output, input gradient)] of T.log_softmax and of the engine-op
    composite it replaced, each backpropagated from sum(out * gd)."""
    runs = []
    for f in (T.log_softmax, lambda t: O.log_softmax(T, t)):
        x = Tensor(xd, requires_grad=True)
        with Tape() as tape:
            out = f(x)
            tape.backward(T.total_sum(T.mul(out, Tensor(gd))))
        runs.append((out.data, x.grad))
    return runs


def test_log_softmax_matches_the_composite():
    """T.log_softmax against the engine-op composite it replaced: output and
    input gradient within 1e-12 (relative to the entry, for the +-1e15 row)."""
    one_hot = np.zeros((9, 19))
    one_hot[np.arange(9), RNG.integers(0, 19, 9)] = RNG.normal(0, 1, 9)  # the XE loss's weights
    ties = np.array([[2.0, 2.0, 2.0, -1.0], [0.0] * 4, [1e4, 1e4, -1e4, 3.0],
                     [-745.0, 745.0, 1e-300, -1e-300], [1e15, -1e15, 1e15 + 1.0, 0.5]])
    cases = ((RNG.normal(0, 3, (9, 19)), RNG.normal(0, 1, (9, 19))),
             (RNG.normal(0, 3, (9, 19)), one_hot),
             (RNG.normal(0, 2, (2, 3, 7)), RNG.normal(0, 1, (2, 3, 7))),
             (RNG.normal(0, 1, (5, 1)), RNG.normal(0, 1, (5, 1))),
             (ties, RNG.normal(0, 1, ties.shape)))
    for xd, gd in cases:
        (out, gx), (want_out, want_gx) = _fused_and_composite_log_softmax(xd, gd)
        assert out.shape == xd.shape and gx.shape == xd.shape
        for got, want in ((out, want_out), (gx, want_gx)):
            assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all(), xd.shape
        assert np.isfinite(out).all() and np.allclose(np.exp(out).sum(axis=-1), 1.0, atol=1e-12)


EXTREME_LOGITS = (1e15, -1e15, -745.0, 745.0, 0.0, 1.0)


@given(st.data())
def test_log_softmax_is_at_most_zero_and_matches_logsumexp(data):
    """0 to 3 leading axes, a last axis of 1 to 300, and logits that are
    normal, extreme (+-1e15, +-745), tied across the row or one-hot: every
    entry is <= 0 exactly, and each equals x - logsumexp(x) to 1e-12
    relative. The grad check runs on the logits clipped to +-10, where a
    central difference can still move an entry. The differenced sum, over
    up to 8100 entries, rounds at about 1e-12, some 5e-8 of a gradient
    entry, so the check allows 1e-5 relative, or 1e-7 absolute below 0.01."""
    shape = tuple(data.draw(st.lists(st.integers(1, 3), max_size=3))) + (data.draw(st.integers(1, 300)),)
    kind = data.draw(st.sampled_from(["normal", "extreme", "tied", "one_hot"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "normal":
        xd = rng.normal(0, 10, shape)
    elif kind == "extreme":
        xd = rng.choice(EXTREME_LOGITS, shape)
    elif kind == "tied":
        xd = np.full(shape, rng.choice(EXTREME_LOGITS))
    else:
        xd = np.zeros(shape)
        np.put_along_axis(xd, rng.integers(0, shape[-1], shape[:-1] + (1,)), rng.choice(EXTREME_LOGITS), axis=-1)
    out = T.log_softmax(Tensor(xd)).data
    assert out.shape == shape and (out <= 0.0).all()
    shifted = xd - xd.max(axis=-1, keepdims=True)  # exact; adding the max back to the log-sum would round at 1e15
    want = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    assert (np.abs(out - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all()
    w = Tensor(rng.normal(0, 1, shape))
    x = Tensor(np.clip(xd, -10.0, 10.0), requires_grad=True)
    assert grad_check(lambda t: T.total_sum(T.mul(T.log_softmax(t), w)), x, max_coords=40, rng=rng, floor=1e-2) < 1e-5


# ------------------------------------------- kernels over generated shapes


def _axes(data, most, least=0, top=3):
    """A drawn tuple of `least` to `most` axis sizes, each from 1 to `top`."""
    return tuple(data.draw(st.lists(st.integers(1, top), min_size=least, max_size=most)))


def _check_generated(data, rng, op, arrays, want, splits=False):
    """op over tensors of `arrays`, a drawn non-empty subset of them needing a
    gradient, against `want`, its plain NumPy forward, within 1e-12. The op
    records one node, which may take one tensor more than once. Its rule
    keeps no Tensor, gives each input that needs a gradient one of that
    input's shape, and gives None to each input that needs none, unless the
    rule only `splits` g into views (the tape drops those). grad_check
    passes on each input that needs a gradient (12 sampled coordinates)."""
    needs = data.draw(st.lists(st.booleans(), min_size=len(arrays), max_size=len(arrays)).filter(any))
    inputs = [Tensor(a, requires_grad=r) for a, r in zip(arrays, needs)]
    with Tape() as tape:
        out = op(*inputs)
    assert out.data.shape == want.shape and np.abs(out.data - want).max() <= 1e-12
    (_, slots, rule), = tape.nodes
    assert _tensors_in(_cells(rule)) == 0
    probe = rng.normal(0, 1, want.shape)
    grads = rule(probe)
    shapes = {t.slot: t.data.shape for t in inputs if t.requires_grad}
    assert len(grads) == len(slots)
    for g, s in zip(grads, slots):
        if s is not None:
            assert g.shape == shapes[s]
        elif not splits:
            assert g is None
    for t in inputs:
        if t.requires_grad:
            loss = lambda _: T.total_sum(T.mul(op(*inputs), Tensor(probe)))
            assert grad_check(loss, t, max_coords=12, rng=rng, floor=1e-4) < 1e-6


@given(st.data())
def test_matmul_pairs_slices_over_generated_shapes(data):
    """x [*S x ... x n x K] @ w [*S x K x N] (+ b [*S x N]) for S of 0 to 2
    axes, 0 to 2 middle axes when S is not empty, with and without a bias:
    slice s of the result is x[s] @ w[s] + b[s], the bias on every row."""
    lead = _axes(data, 2)
    middle = _axes(data, 2) if lead else ()
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    xd, wd, bd = rng.normal(0, 1, lead + middle + (n, k)), rng.normal(0, 1, lead + (k, m)), rng.normal(0, 1, lead + (m,))
    biased = data.draw(st.booleans())
    want = np.empty(lead + middle + (n, m))
    for s in np.ndindex(*lead):
        want[s] = np.einsum("...k,kn->...n", xd[s], wd[s]) + (bd[s] if biased else 0.0)
    arrays = (xd, wd, bd) if biased else (xd, wd)
    _check_generated(data, rng, T.matmul, arrays, want)


@given(st.data())
def test_matmul_shares_its_weight_over_generated_shapes(data):
    """x [*L x K] @ w [K x N] (+ b [N]) for L of 1 to 3 axes and N from 1
    on, with and without a bias: one weight and bias for every row."""
    lead = _axes(data, 3, 1)
    k, m = (data.draw(st.integers(1, 4)) for _ in range(2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    xd, wd, bd = rng.normal(0, 1, lead + (k,)), rng.normal(0, 1, (k, m)), rng.normal(0, 1, m)
    biased = data.draw(st.booleans())
    want = np.einsum("...k,kn->...n", xd, wd) + (bd if biased else 0.0)
    _check_generated(data, rng, T.matmul, (xd, wd, bd) if biased else (xd, wd), want)


@given(st.data())
def test_sum_axis_over_generated_shapes(data):
    """x of 1 to 4 axes summed over one of them, counted from either end."""
    shape = _axes(data, 4, 1)
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    xd = rng.normal(0, 1, shape)
    _check_generated(data, rng, lambda t: T.sum_axis(t, axis), (xd,), xd.sum(axis=axis))


@given(st.data())
def test_reshape_over_generated_shapes(data):
    """x [*L x g*r] for L of 0 to 3 axes to a shape of its entries: the last
    axis split into g groups of r (the fusion pool's split, also by -1), all
    entries in one axis, or L moved behind the last axis's entries."""
    lead = _axes(data, 3)
    g, r = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    shape = data.draw(st.sampled_from([lead + (g, r), lead + (-1, r), (-1,), (g * r,) + lead]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    xd = rng.normal(0, 1, lead + (g * r,))
    _check_generated(data, rng, lambda t: T.reshape(t, shape), (xd,), xd.reshape(shape))


@given(st.data())
def test_layer_norm_over_generated_shapes(data):
    """A [d] gain and bias over x [... x d] with 0 to 3 leading axes, or a
    [k x d] pair over x [k x ... x d] with 1 or 2 more, slice i taking row i."""
    d = data.draw(st.integers(2, 5))
    stacked = data.draw(st.booleans())
    lead = _axes(data, 1, 1) if stacked else ()
    rows = _axes(data, 2, 1) if stacked else _axes(data, 3)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    xd, gd, bd = rng.normal(0, 1, lead + rows + (d,)), rng.normal(0, 1, lead + (d,)), rng.normal(0, 1, lead + (d,))
    spread = lead + (1,) * len(rows) + (d,)
    xhat = (xd - xd.mean(axis=-1, keepdims=True)) / np.sqrt(xd.var(axis=-1, keepdims=True) + T.LN_EPS)
    want = xhat * gd.reshape(spread) + bd.reshape(spread)
    _check_generated(data, rng, T.layer_norm, (xd, gd, bd), want)


@given(st.data())
def test_mix_maps_over_generated_shapes(data):
    """1 to 3 maps [*L x ...] mixed by gates [*L x m], L of 0 to 2 axes and
    1 or 2 axes after it: each map slice weighted by its own gates."""
    lead, rest = _axes(data, 2), _axes(data, 2, 1)
    m = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    maps, gd = [rng.random(lead + rest) for _ in range(m)], rng.dirichlet(np.ones(m), size=lead)
    want = sum(gd[..., i].reshape(lead + (1,) * len(rest)) * md for i, md in enumerate(maps))
    _check_generated(data, rng, lambda *ts: T.mix_maps(ts[:-1], ts[-1]), (*maps, gd), want)


@given(st.data())
def test_apply_attention_over_generated_shapes(data):
    """Maps [*L x h x n x m] over values [*L x m x h*dh], L of 0 to 3 axes:
    head j of each row is its map row applied to head j's columns of the
    values, the heads merged back in order."""
    lead = _axes(data, 3)
    h, dh, n, m = (data.draw(st.integers(1, 3)) for _ in range(4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    wd, vd = rng.random(lead + (h, n, m)), rng.normal(0, 1, lead + (m, h * dh))
    want = np.einsum("...jnm,...mje->...nje", wd, vd.reshape(lead + (m, h, dh))).reshape(lead + (n, h * dh))
    _check_generated(data, rng, lambda w, v: T.apply_attention(w, v, h), (wd, vd), want)


@given(st.data())
def test_concat_over_generated_shapes(data):
    """1 to 3 tensors of 1 to 4 axes, each of its own size on the axis they
    are joined on, counted from either end."""
    shape = list(_axes(data, 4, 1))
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    arrays = []
    for _ in range(data.draw(st.integers(1, 3))):
        shape[axis] = data.draw(st.integers(1, 3))
        arrays.append(rng.normal(0, 1, shape))
    want = np.concatenate(arrays, axis=axis)
    _check_generated(data, rng, lambda *ts: T.concat(ts, axis=axis), arrays, want, splits=True)


@given(st.data())
def test_stack_copies_over_generated_shapes(data):
    """2 or 3 distinct tensors of one shape, of 0 to 3 axes, copied onto a
    new leading axis, slice i being member i."""
    shape = _axes(data, 3)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    arrays = [rng.normal(0, 1, shape) for _ in range(data.draw(st.integers(2, 3)))]
    _check_generated(data, rng, lambda *ts: T.stack(ts), arrays, np.stack(arrays), splits=True)


@given(st.data())
def test_stack_of_one_tensor_repeated_over_generated_shapes(data):
    """One tensor of 0 to 3 axes repeated 1 to 4 times: a broadcast view,
    whose gradient is the sum of its slices' gradients."""
    shape, k = _axes(data, 3), data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    xd = rng.normal(0, 1, shape)
    _check_generated(data, rng, lambda t: T.stack([t] * k), (xd,), np.stack([xd] * k), splits=True)


@given(st.data())
def test_index_over_generated_shapes(data):
    """x of 1 to 4 axes under a basic index of its first 1 to all axes, each
    an int counted from either end or a non-empty slice of a step from -2
    to 3; a one-axis index is also given bare."""
    shape = _axes(data, 4, 1)
    key = []
    for n in shape[:data.draw(st.integers(1, len(shape)))]:
        if data.draw(st.booleans()):
            key.append(data.draw(st.integers(-n, n - 1)))
        else:
            key.append(slice(data.draw(st.integers(0, n - 1)), None, data.draw(st.sampled_from([1, 2, 3, -1, -2]))))
    key = key[0] if len(key) == 1 and data.draw(st.booleans()) else tuple(key)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    xd = rng.normal(0, 1, shape)
    _check_generated(data, rng, lambda t: T.index(t, key), (xd,), np.asarray(xd[key]))


@pytest.mark.parametrize("op, reference", [(T.add, np.add), (T.mul, np.multiply)], ids=["add", "mul"])
@given(data=st.data())
def test_add_and_mul_over_generated_shapes(op, reference, data):
    """x of 0 to 3 leading axes (sizes 1 to 5) and a last axis, with y of
    x's shape entry by entry, or with a size-1 y of 0 to 2 axes on either
    side or a python number after x, which acts as a scalar (the second
    operand, when both are size 1), its gradient summed to one entry."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    xd = rng.normal(0, 1, _axes(data, 3, top=5) + (data.draw(st.integers(1, 5)),))
    kind = data.draw(st.sampled_from(["same", "size1", "number"]))
    if kind == "number":
        c = data.draw(st.floats(-2, 2))
        _check_generated(data, rng, lambda t: op(t, c), (xd,), reference(xd, c))
        return
    yd = rng.normal(0, 1, xd.shape if kind == "same" else (1,) * data.draw(st.integers(0, 2)))
    a, b = (yd, xd) if data.draw(st.booleans()) else (xd, yd)
    pair = (a, b) if a.shape == b.shape else (a, b.reshape(())) if b.size == 1 else (a.reshape(()), b)
    _check_generated(data, rng, op, (a, b), np.asarray(reference(*pair)))


@given(st.data())
def test_pairwise_add_over_generated_shapes(data):
    """p [*L x N x d] and k [*L x M x d], L of 0 to 3 axes: row i*M + j of
    each slice is p's row i plus k's row j."""
    lead = _axes(data, 3, top=5)
    n, m, d = (data.draw(st.integers(1, 5)) for _ in range(3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pd, kd = rng.normal(0, 1, lead + (n, d)), rng.normal(0, 1, lead + (m, d))
    want = np.empty(lead + (n * m, d))
    for i, j in np.ndindex(n, m):
        want[..., i * m + j, :] = pd[..., i, :] + kd[..., j, :]
    _check_generated(data, rng, T.pairwise_add, (pd, kd), want)


@given(st.data())
def test_total_sum_over_generated_shapes(data):
    """Every entry of x, of 0 to 4 axes, summed to one; g reaches each."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    xd = rng.normal(0, 1, _axes(data, 4, top=5))
    _check_generated(data, rng, T.total_sum, (xd,), np.asarray(xd.sum()))


@given(st.data())
def test_embedding_lookup_over_generated_shapes(data):
    """Rows of a [V x d] table picked by ids of 0 to 3 leading axes and a
    last axis, one id at least repeated: the gradient of a row adds the g of
    every place that picked it."""
    v, d = (data.draw(st.integers(1, 5)) for _ in range(2))
    shape = _axes(data, 3, top=5) + (data.draw(st.integers(2, 5)),)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ids = rng.integers(0, v, shape)
    ids.flat[-1] = ids.flat[0]
    td = rng.normal(0, 1, (v, d))
    want = np.array([td[i] for i in ids.ravel()]).reshape(shape + (d,))
    _check_generated(data, rng, lambda t: T.embedding_lookup(t, ids), (td,), want)


@pytest.mark.parametrize("op, reference", [(T.tanh, np.tanh), (T.sigmoid, lambda a: 1.0 / (1.0 + np.exp(-a))),
                                           (T.relu, lambda a: np.maximum(a, 0.0))], ids=["tanh", "sigmoid", "relu"])
@given(data=st.data())
def test_pointwise_over_generated_shapes(op, reference, data):
    """tanh, sigmoid and relu over x of 0 to 3 leading axes and a last axis.
    Entries sit at least 0.1 from 0, so relu's kink is beyond the reach of a
    central difference."""
    shape = _axes(data, 3, top=5) + (data.draw(st.integers(1, 5)),)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    xd = rng.uniform(0.1, 3.0, shape) * rng.choice([-1.0, 1.0], shape)
    _check_generated(data, rng, op, (xd,), reference(xd))


def _bits(a):
    return None if a is None else (a.shape, a.tobytes())


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("trainable", ["all", "maps", "gates", "last_map"])
def test_mix_maps_matches_the_composite_bit_for_bit(k, trainable):
    """T.mix_maps against the narrow/mul/add composite it replaced: output and
    every input gradient carry the same bits, signed zeros included (a -0.0
    probe makes every map gradient -0.0)."""
    map_data = [RNG.random((2, 5, 5)) for _ in range(k)]
    gate_data = RNG.dirichlet(np.ones(k))
    for probe in (RNG.normal(0, 1, (2, 5, 5)), np.full((2, 5, 5), -0.0)):
        runs = []
        for mix in (T.mix_maps, partial(O.mix_maps, T)):
            maps = [Tensor(m, requires_grad=trainable in ("all", "maps") or
                           (trainable == "last_map" and i == k - 1)) for i, m in enumerate(map_data)]
            gates = Tensor(gate_data, requires_grad=trainable in ("all", "gates", "last_map"))
            with Tape() as tape:
                out = mix(maps, gates)
                tape.backward(T.total_sum(T.mul(out, Tensor(probe))))
            runs.append([_bits(out.data)] + [_bits(t.grad) for t in maps + [gates]])
        assert runs[0] == runs[1]


def test_mix_maps_is_one_node_and_checks_shapes():
    maps = [Tensor(RNG.random((2, 3, 3)), requires_grad=True) for _ in range(3)]
    gates = Tensor(RNG.dirichlet(np.ones(3)), requires_grad=True)
    with Tape() as tape:
        T.mix_maps(maps, gates)
    assert len(tape.nodes) == 1
    for bad_gates in (np.ones(2), np.ones(4), np.ones((3, 1)), np.ones(())):
        with pytest.raises(ShapeError, match="do not weight 3 maps"):
            T.mix_maps(maps, Tensor(bad_gates))
    with pytest.raises(ShapeError, match="do not weight 0 maps"):
        T.mix_maps([], Tensor(np.ones(0)))
    with pytest.raises(ShapeError, match="map shapes differ"):
        T.mix_maps(maps[:2] + [Tensor(np.ones((2, 3, 4)))], gates)
    probe = Tensor(RNG.normal(0, 1, (2, 3, 3)))
    check(lambda t: T.total_sum(T.mul(T.mix_maps([t, maps[1], maps[2]], gates), probe)), maps[0])
    check(lambda t: T.total_sum(T.mul(T.mix_maps(maps, t), probe)), gates)


def test_log_softmax_is_one_node_and_rejects_an_empty_last_axis():
    x = Tensor(RNG.normal(0, 1, (2, 4, 19)), requires_grad=True)
    with Tape() as tape:
        T.log_softmax(x)
    assert len(tape.nodes) == 1
    for bad in (np.zeros((3, 0)), np.zeros((0,)), np.array(1.0)):
        with pytest.raises(ShapeError):
            T.log_softmax(Tensor(bad))
    w = Tensor(RNG.normal(0, 1, (2, 4, 19)))
    check(lambda t: T.total_sum(T.mul(T.log_softmax(t), w)), x)


def test_shape_op_grads():
    x = Tensor(RNG.normal(0, 1, (2, 8)), requires_grad=True)
    check(lambda t: T.total_sum(T.sum_axis(T.reshape(T.mul(t, t), (2, 2, 4)), -1)), x)
    check(lambda t: T.total_sum(T.mul(T.reshape(t, (4, 4)), 2.0)), x)
    check(lambda t: T.total_sum(T.tanh(O.transpose(T, t))), x)
    x3 = Tensor(RNG.normal(0, 1, (2, 3, 4)), requires_grad=True)
    w3 = Tensor(RNG.normal(0, 1, (3, 4, 2)))
    check(lambda t: T.total_sum(T.mul(T.tanh(O.transpose(T, t, (1, 2, 0))), w3)), x3)
    check(lambda t: T.total_sum(O.narrow(T, t, 1, 2, 3)), x)
    check(lambda t: T.total_sum(T.tanh(T.sum_axis(t, 0))), x)
    check(lambda t: T.total_sum(T.concat([t, t], axis=0)), x)


def test_pairwise_add_grads_and_shapes():
    p = Tensor(RNG.normal(0, 1, (3, 4)), requires_grad=True)
    k = Tensor(RNG.normal(0, 1, (5, 4)), requires_grad=True)
    out = T.pairwise_add(p, k)
    assert np.array_equal(out.data, (p.data[:, None] + k.data[None]).reshape(15, 4))
    w = Tensor(RNG.normal(0, 1, (15, 4)))
    check(lambda t: T.total_sum(T.mul(T.tanh(T.pairwise_add(t, k)), w)), p)
    check(lambda t: T.total_sum(T.mul(T.tanh(T.pairwise_add(p, t)), w)), k)
    for bad_p, bad_k in (((3, 4), (5, 3)), ((12,), (5, 4)), ((3, 4), (1, 5, 4))):
        with pytest.raises(ShapeError):
            T.pairwise_add(Tensor(np.ones(bad_p)), Tensor(np.ones(bad_k)))


def test_batched_pairwise_add_is_each_scene_grid():
    """[B x N x d] and [B x M x d] give each scene's own [N*M x d] grid, bit
    for bit, forward and backward."""
    p = Tensor(RNG.normal(0, 1, (2, 3, 4)), requires_grad=True)
    k = Tensor(RNG.normal(0, 1, (2, 5, 4)), requires_grad=True)
    w = RNG.normal(0, 1, (2, 15, 4))
    with Tape() as tape:
        out = T.pairwise_add(p, k)
        tape.backward(T.total_sum(T.mul(out, Tensor(w))))
    for b in range(2):
        pb, kb = Tensor(p.data[b], requires_grad=True), Tensor(k.data[b], requires_grad=True)
        with Tape() as tape:
            want = T.pairwise_add(pb, kb)
            tape.backward(T.total_sum(T.mul(want, Tensor(w[b]))))
        assert np.array_equal(out.data[b], want.data)
        assert np.array_equal(p.grad[b], pb.grad) and np.array_equal(k.grad[b], kb.grad)
    check(lambda t: T.total_sum(T.mul(T.tanh(T.pairwise_add(t, k)), Tensor(w))), p)
    with pytest.raises(ShapeError):
        T.pairwise_add(p, Tensor(np.ones((3, 5, 4))))


def test_softmax_mask_zeroes_masked_entries_and_their_gradient():
    x = Tensor(RNG.normal(0, 1, (2, 3, 5)), requires_grad=True)
    mask = np.zeros((2, 3, 5), dtype=bool)
    mask[0, :, 3:] = mask[1, 1, 0] = True
    w = Tensor(RNG.normal(0, 1, (2, 3, 5)))
    bias = np.where(mask, -1e9, 0.0)
    with Tape() as tape:
        out = T.softmax(x, bias)
        tape.backward(T.total_sum(T.mul(out, w)))
    assert (out.data[mask] == 0.0).all() and (x.grad[mask] == 0.0).all()
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
    assert np.allclose(out.data[0, :, :3], T.softmax(Tensor(x.data[0, :, :3])).data, atol=1e-15)
    check(lambda t: T.total_sum(T.mul(T.softmax(t, bias), w)), x)
    with pytest.raises(ShapeError, match="bias"):
        T.softmax(x, bias[..., :4])


def test_mix_maps_takes_gates_with_many_leading_axes():
    """Gates [k x B x m] over maps [k x B x ...] mix each (k, B) slice by its
    own gates, bit for bit as an unstacked mix of that slice."""
    k, b, m = 2, 3, 2
    maps = [Tensor(RNG.random((k, b, 2, 4, 4)), requires_grad=True) for _ in range(m)]
    gates = Tensor(RNG.dirichlet(np.ones(m), size=(k, b)), requires_grad=True)
    probe = RNG.normal(0, 1, (k, b, 2, 4, 4))
    with Tape() as tape:
        out = T.mix_maps(maps, gates)
        tape.backward(T.total_sum(T.mul(out, Tensor(probe))))
    for i, j in np.ndindex(k, b):
        want = T.mix_maps([Tensor(a.data[i, j]) for a in maps], Tensor(gates.data[i, j]))
        assert np.array_equal(out.data[i, j], want.data)
        ggates = [(probe[i, j] * a.data[i, j]).sum() for a in maps]
        assert np.allclose(gates.grad[i, j], ggates, atol=1e-12)
    check(lambda t: T.total_sum(T.mul(T.mix_maps(maps, t), Tensor(probe))), gates)


def test_embedding_lookup_scatter_grad():
    table = Tensor(RNG.normal(0, 1, (7, 4)), requires_grad=True)
    ids = [3, 0, 3, 6]  # repeated row exercises accumulation
    check(lambda t: T.total_sum(T.tanh(T.embedding_lookup(t, ids))), table)


def test_masked_fill_underflows_to_exact_zero():
    x = Tensor(RNG.normal(0, 1, (2, 5)))
    mask = np.zeros((2, 5), dtype=bool)
    mask[0, 2] = mask[1, 4] = True
    out = T.softmax(O.masked_fill(T, x, mask, -1e9))
    assert out.data[0, 2] == 0.0
    assert out.data[1, 4] == 0.0
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)


# Public names that no package module uses, each kept for a caller outside
# the package; delete a name with its last such caller.
KEPT_FOR_OUTSIDE_CALLERS = {
    ("training", "greedy_caption"): "perfbench/workloads.py calls it by name",
    ("training", "scst_rollouts"): "perfbench/tracer.py wraps it and tests/util.py::reference_train_scst calls it",
    ("training", "sequence_logprob"): "perfbench/workloads.py calls it by name",
}


def test_every_public_name_has_a_caller_in_the_package():
    """Each public function and class of every package module is used in the
    package: imported by name or read as `<module alias>.<name>` by another
    module (also uncalled, as in `map(T.sigmoid, ...)`), or, outside the
    engine, named in its own module. An engine function only the tests use
    belongs with them; the exceptions above are kept for outside callers."""
    package = Path(T.__file__).parent
    used, own = set(), set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    aliases.update({a.asname or a.name: a.name for a in node.names})
                else:
                    used.update((node.module, a.name) for a in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                used.add((aliases[node.value.id], node.attr))
            elif isinstance(node, ast.Name) and path.stem != "tensor":
                own.add((path.stem, node.id))
    public = set()
    for path in package.glob("*.py"):
        module = importlib.import_module(f"gevst.{path.stem}")
        public.update((path.stem, name) for name, obj in vars(module).items()
                      if (inspect.isfunction(obj) or inspect.isclass(obj))
                      and obj.__module__ == module.__name__ and not name.startswith("_"))
    assert public >= KEPT_FOR_OUTSIDE_CALLERS.keys()
    assert sorted(public - used - own) == sorted(KEPT_FOR_OUTSIDE_CALLERS)


def test_no_implicit_broadcasting():
    a = Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        T.add(a, Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        T.mul(a, Tensor(np.ones((2, 1))))
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 3, 2))))
    # the sanctioned exceptions: size-1 tensors act as scalars, and one 2-D
    # weight is shared by every row of x
    assert T.mul(a, Tensor(np.array([2.0]))).data.sum() == 12.0
    assert T.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 2)))).data.shape == (2, 2, 2)


def test_grad_accumulates_when_input_reused():
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    with Tape() as tape:
        y = T.total_sum(T.add(x, x))
        tape.backward(y)
    assert np.array_equal(x.grad, np.array([[2.0, 2.0]]))


def test_no_tape_no_graph():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        y = T.mul(x, 3.0)
    assert y.requires_grad is False
    with Tape() as tape:
        z = T.mul(x, 3.0)
        tape.backward(T.total_sum(z))
    assert x.grad is not None


def test_backward_leaves_forward_values_intact():
    # view-aliasing safety: grads must accumulate without mutating arrays in place
    x = Tensor(RNG.normal(0, 1, (3, 4)), requires_grad=True)
    with Tape() as tape:
        top = O.narrow(T, x, 0, 0, 2)
        bottom = O.narrow(T, x, 0, 1, 2)  # overlaps `top` in x
        y = T.total_sum(T.mul(T.add(top, bottom), 1.5))
        keep = top.data.copy()
        tape.backward(y)
    assert np.array_equal(top.data, keep)
    expected = np.array([[1.5] * 4, [3.0] * 4, [1.5] * 4])
    assert np.array_equal(x.grad, expected)


def test_a_walked_tape_refuses_a_second_backward():
    """Walking a tape again would re-propagate the intermediate gradients
    the first walk left, inflating x.grad; it raises before touching
    anything, and a freshly recorded tape gives the gradient again."""
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)

    def loss():
        return T.total_sum(T.mul(T.mul(x, x), 3.0))

    with Tape() as tape:
        y = loss()
        tape.backward(y)
    assert np.array_equal(x.grad, [6.0, -12.0])
    with pytest.raises(ContractError, match="already walked"):
        tape.backward(y)
    assert np.array_equal(x.grad, [6.0, -12.0]) and np.array_equal(y.grad, 1.0)
    x.grad = None
    with Tape() as tape:
        tape.backward(loss())
    assert np.array_equal(x.grad, [6.0, -12.0])


def test_backward_frees_what_the_caller_dropped_as_it_walks():
    """Each node is dropped once its rule has run: an intermediate the
    caller let go is already freed when the first node's rule runs, and
    stays freed, while the list keeps its length and an intermediate the
    caller holds keeps its .grad."""
    x = Tensor(RNG.normal(0, 1, (4, 3)), requires_grad=True)
    freed_in_walk = []

    def first_rule(g):
        freed_in_walk.append(dropped() is None)
        return (g,)

    with Tape() as tape:
        probe = T._emit(x.data.copy(), (x,), first_rule)
        held = T.tanh(probe)
        mid = T.relu(T.mul(held, 2.0))
        dropped = weakref.ref(mid.data)
        y = T.total_sum(T.mul(mid, mid))
        del mid
        recorded = len(tape.nodes)
        tape.backward(y)
    assert freed_in_walk == [True] and dropped() is None
    assert len(tape.nodes) == recorded == 6
    assert np.array_equal(held.grad, np.where(held.data > 0.0, 8.0 * held.data, 0.0))
    assert x.grad is not None


def test_backward_adds_into_sinks_in_place_as_grad_would_sum():
    """A tensor given a sink gets its gradient summed into that array in
    place, bit for bit what .grad plus a final add into zeros would hold, and
    no array a backward rule returned is written (add returns g for both)."""
    w, u = (Tensor(RNG.normal(0, 1, shape), requires_grad=True) for shape in ((3, 4), (5, 4)))
    x = Tensor(RNG.normal(0, 1, (5, 3)))

    def loss():
        h = T.add(T.tanh(T.matmul(x, w)), u)
        return T.total_sum(T.mul(T.add(h, T.matmul(T.relu(x), w)), h))

    with Tape() as tape:
        tape.backward(loss())
    want = [np.zeros((3, 4)) + w.grad, np.zeros((5, 4)) + u.grad]
    w.grad = u.grad = None
    sinks = [np.zeros((3, 4)), np.zeros((5, 4))]
    with Tape() as tape:
        out = loss()
        tape.backward(out, {w: sinks[0], u: sinks[1]})
    assert w.grad is None and u.grad is None
    assert all(np.array_equal(got, exp) for got, exp in zip(sinks, want))
    a, b = (Tensor(np.zeros((2, 2)), requires_grad=True) for _ in range(2))
    sink = np.full((2, 2), 5.0)
    with Tape() as tape:
        s = T.add(a, b)
        tape.backward(T.total_sum(s), {a: sink})
    assert np.array_equal(sink, np.full((2, 2), 6.0))
    assert np.array_equal(b.grad, np.ones((2, 2))) and np.array_equal(s.grad, np.ones((2, 2)))


def test_a_sink_never_takes_a_freed_tensors_gradient():
    """The tape keeps slots, not tensors, so an intermediate the caller drops
    is freed during the forward and a tensor made afterwards may reuse its
    id(). Sinks are matched by slot: that tensor's sink stays untouched while
    the weight's sink gets exactly the gradient .grad would hold."""
    w = Tensor(RNG.normal(0, 1, (3, 3)), requires_grad=True)
    x = Tensor(RNG.normal(0, 1, (4, 3)))

    def loss():
        mid = T.tanh(T.matmul(x, w))
        return T.total_sum(T.mul(mid, mid)), id(mid)

    with Tape() as tape:
        out, _ = loss()
        tape.backward(out)
    want = w.grad
    w.grad = None
    zeros = np.zeros((4, 3))
    with Tape() as tape:
        out, freed_id = loss()
        made = [Tensor._wrap(zeros, True)]  # the allocator reuses the freed address once its pool's turn comes
        while id(made[-1]) != freed_id and len(made) < 100_000:
            made.append(Tensor._wrap(zeros, True))
        impostor = made[-1]
        assert id(impostor) == freed_id
        sinks = {w: np.zeros((3, 3)), impostor: np.zeros((4, 3))}
        tape.backward(out, sinks)
    assert np.array_equal(sinks[w], np.zeros((3, 3)) + want)
    assert not sinks[impostor].any() and impostor.grad is None and w.grad is None


def test_an_activation_no_rule_reads_dies_in_the_forward(monkeypatch):
    """A node keeps only what its rule reads: relu keeps its mask, not its
    input, so an FFN's pre-ReLU hidden is freed as soon as the forward drops
    it, before backward starts, while the same hidden held by the caller
    stays alive; the gradients agree either way."""
    from gevst.nn import ffn

    p = init_ffn(np.random.default_rng(3), 6)
    x = Tensor(RNG.normal(0, 1, (5, 6)), requires_grad=True)
    hidden = []
    relu = T.relu

    def spying_relu(h):
        hidden.append(weakref.ref(h.data))
        return relu(h)

    monkeypatch.setattr(T, "relu", spying_relu)
    with Tape() as tape:
        y = T.total_sum(ffn(x, p))
        dropped_before_backward = hidden[0]() is None
        tape.backward(y)
    monkeypatch.undo()
    assert dropped_before_backward
    grads = [x.grad, p.inner.w.grad, p.outer.w.grad]
    for t in (x, p.inner.w, p.inner.b, p.outer.w, p.outer.b):
        t.grad = None
    with Tape() as tape:
        held = T.matmul(x, p.inner.w, p.inner.b)
        y = T.total_sum(T.matmul(T.relu(held), p.outer.w, p.outer.b))
        kept = weakref.ref(held.data)
        tape.backward(y)
        assert kept() is not None
    assert all(np.array_equal(a, b) for a, b in zip(grads, [x.grad, p.inner.w.grad, p.outer.w.grad]))


def _cells(rule):
    """What a backward rule closes over."""
    return [c.cell_contents for c in getattr(rule, "__closure__", None) or ()]


def _tensors_in(value):
    if isinstance(value, Tensor):
        return 1
    return sum(map(_tensors_in, value)) if isinstance(value, (list, tuple)) else 0


def test_no_backward_rule_keeps_a_tensor():
    """Every op's rule closes over arrays, shapes and flags, never a Tensor
    or a list of them, so recording a node keeps no activation alive through
    its Tensor; sum_axis, total_sum, index and reshape keep no array,
    and embedding_lookup and log_softmax keep no array of their input."""
    def leaf(*shape):
        return Tensor(RNG.normal(0, 1, shape), requires_grad=True)

    x, w, b = leaf(4, 3), leaf(3, 5), leaf(5)
    ws, bs, xs = leaf(2, 3, 5), leaf(2, 5), leaf(2, 4, 3)
    q, k, v, att = leaf(4, 6), leaf(5, 6), leaf(5, 6), leaf(2, 4, 5)
    gains = leaf(2, 3)
    ops = [lambda: T.matmul(x, w), lambda: T.matmul(x, w, b), lambda: T.matmul(xs, ws, bs),
           lambda: T.add(x, x), lambda: T.mul(x, 2.0), lambda: T.pairwise_add(x, x),
           lambda: T.attention_weights(q, k, 2), lambda: T.apply_attention(att, v, 2),
           lambda: T.tanh(x), lambda: T.sigmoid(x), lambda: T.relu(x), lambda: T.softmax(x),
           lambda: T.log_softmax(x), lambda: T.layer_norm(x, leaf(3), leaf(3)),
           lambda: T.layer_norm(xs, gains, leaf(2, 3)), lambda: T.sum_axis(x, 1), lambda: T.total_sum(x),
           lambda: T.concat([x, x]), lambda: T.stack([x, x]), lambda: T.mix_maps([x, x], leaf(2)),
           lambda: T.index(x, 1), lambda: T.reshape(x, (12,)), lambda: T.embedding_lookup(w, [0, 2])]

    def cells_of(op):
        with Tape() as tape:
            op()
        (_, _, bwd), = tape.nodes
        return bwd, _cells(bwd)

    for op in ops:
        bwd, cells = cells_of(op)
        assert _tensors_in(cells) == 0, (op, bwd.__qualname__)
    # rules that read only their input's shape keep no array at all
    for op in (lambda: T.sum_axis(x, 1), lambda: T.total_sum(x), lambda: T.index(x, 1), lambda: T.reshape(x, (12,))):
        bwd, cells = cells_of(op)
        assert not any(isinstance(c, np.ndarray) for c in cells), (bwd.__qualname__, cells)
    # nor do rules that read only the shape of one input keep that input
    for op, t in ((lambda: T.embedding_lookup(w, [0, 2]), w), (lambda: T.log_softmax(x), x)):
        bwd, cells = cells_of(op)
        assert not any(isinstance(c, np.ndarray) and np.shares_memory(c, t.data) for c in cells), bwd.__qualname__


def test_means_equal_ndarray_mean_bit_for_bit():
    """layer_norm sums and divides (np.add.reduce / n) instead of calling
    ndarray.mean, which computes exactly that."""
    for shape in ((7,), (3, 64), (2, 5, 19), (4, 257)):
        x = RNG.normal(0, 3, shape)
        assert np.array_equal(T._mean_last(x), x.mean(axis=-1, keepdims=True))


def test_grad_check_samples_coordinates():
    x = Tensor(RNG.normal(0, 1, (10, 10)), requires_grad=True)
    err = grad_check(lambda t: T.total_sum(T.tanh(t)), x, max_coords=7,
                     rng=np.random.default_rng(0))
    assert err < 1e-6


def test_grad_check_floor_absorbs_inert_coordinates():
    # a parameter that cancels out of the loss has a true gradient of zero;
    # the default tight floor turns finite-difference noise into a large
    # ratio, a floor at the noise scale reports agreement
    x = Tensor(np.array([0.3, -0.7]), requires_grad=True)

    def cancels(t):
        s = T.add(t, T.mul(t, -1.0))  # t - t: identically zero, still taped
        return T.total_sum(T.mul(s, s))

    assert grad_check(cancels, x, floor=1e-5) < 1e-4


def test_same_seed_same_numbers():
    a = np.random.default_rng(42).normal(size=5)
    b = np.random.default_rng(42).normal(size=5)
    assert np.array_equal(a, b)


def test_record_outside_recording_stores_nothing():
    t = Tensor(np.ones((2, 2)))
    with T.recording() as closed:
        pass
    T.record("x", t)  # no recorder live: a no-op
    with T.scope("s"):
        T.record("x", t)
    assert closed == {} and getattr(T._STATE, "records", None) is None
    with T.recording() as rec:
        T.record("y", t)
        T.record("none", None)  # skipped, not stored
        t.data[0, 0] = 5.0  # the record is a copy
        T.record("y", t)
    assert list(rec) == ["y"]
    assert rec["y"][0][0, 0] == 1.0 and rec["y"][1][0, 0] == 5.0


def test_recorder_adds_no_tape_nodes():
    rng = np.random.default_rng(5)
    d = 8
    vc, vg = Tensor(rng.normal(size=(3, d))), Tensor(rng.normal(size=(3, d)))
    sc, sg = Tensor(rng.normal(size=(2, d))), Tensor(rng.normal(size=(2, d)))
    f_vs = [init_fusion_cell(rng, d, 2) for _ in range(2)]
    f_sv = [init_fusion_cell(rng, d, 2) for _ in range(2)]
    groups = {key: init_gesa_group(rng, d, 2, "con_intra_inter", len(members), 2)
              for key, members in active_groups(BRANCH_NAMES).items()}

    def forward():
        with Tape() as tape:
            outs = encode_all(vc, vg, sc, sg, f_vs, f_sv, groups, h=2, er=2)
            T.total_sum(T.concat(list(outs.values()), axis=0))
        return len(tape.nodes), {b: o.data for b, o in outs.items()}

    plain_nodes, plain = forward()
    with T.recording() as rec:
        rec_nodes, recorded = forward()
    assert rec_nodes == plain_nodes > 0
    assert all(np.array_equal(plain[b], recorded[b]) for b in BRANCH_NAMES)
    assert len(rec["fusion_vs.content"]) == 2 and len(rec["vv.gesa_gates"]) == 2


def test_nested_recording_and_scope_restore_outer_state():
    t = Tensor(np.zeros(1))
    with T.recording() as outer:
        with T.scope("a"):
            T.record("x", t)
            with T.recording() as inner:
                with T.scope("b"):
                    T.record("x", t)
                T.record("y", t)
            T.record("z", t)
        T.record("w", t)
    assert sorted(outer) == ["a.x", "a.z", "w"]
    assert sorted(inner) == ["a.b.x", "a.y"]

    with T.recording() as outer:
        with pytest.raises(RuntimeError):
            with T.scope("a"):
                with T.recording():
                    with T.scope("b"):
                        raise RuntimeError("boom")
        T.record("after", t)
    assert list(outer) == ["after"]
    T.record("gone", t)
    assert list(outer) == ["after"]
