"""Building-block checks: attention heads, log-softmax, parameter walking."""

import math
from functools import partial

import numpy as np
import pytest

import oracles as O
from gevst import nn
from gevst import tensor as T
from gevst.errors import ContractError, ShapeError
from gevst.nn import (LayerNorm, Layout, Linear, Tensor, bind_flat, ffn, flat_parameters, layer_norm, linear,
                      named_parameters, parameters, sinusoidal_positions)
from util import eager_ffn, eager_linear, flatten, grad_check, init_ffn, init_linear, np_stack

RNG = np.random.default_rng(31)


def test_split_merge_heads_round_trip():
    x = Tensor(RNG.normal(0, 1, (5, 8)))
    back = O.merge_heads(T, O.split_heads(T, x, 2))
    assert np.array_equal(back.data, x.data)


def test_split_heads_rejects_indivisible_width():
    with pytest.raises(ShapeError):
        O.split_heads(T, Tensor(np.ones((3, 7))), 2)


def test_attention_weights_rows_stochastic_per_head():
    q = Tensor(RNG.normal(0, 1, (4, 8)))
    k = Tensor(RNG.normal(0, 1, (6, 8)))
    w = T.attention_weights(q, k, 4)
    assert w.data.shape == (4, 4, 6)
    assert np.allclose(w.data.sum(axis=-1), 1.0, atol=1e-12)


def test_attention_matches_scalar_oracle():
    q = Tensor(RNG.normal(0, 1, (3, 6)))
    k = Tensor(RNG.normal(0, 1, (5, 6)))
    v = Tensor(RNG.normal(0, 1, (5, 6)))
    got = T.apply_attention(T.attention_weights(q, k, 2), v, 2)
    maps = O.multi_head_maps(O.mat(q.data), O.mat(k.data), 2)
    want = O.apply_maps(maps, O.mat(v.data), 2)
    assert np.abs(got.data - np.array(want)).max() < 1e-13


def test_attention_mask_zeroes_and_grads():
    q = Tensor(RNG.normal(0, 1, (4, 4)), requires_grad=True)
    k = Tensor(RNG.normal(0, 1, (4, 4)))
    mask = np.broadcast_to(np.triu(np.ones((4, 4), dtype=bool), k=1), (2, 4, 4))
    w = T.attention_weights(q, k, 2, mask=mask)
    assert (w.data[:, 0, 1:] == 0.0).all()
    probe = Tensor(RNG.normal(0, 1, (2, 4, 4)))
    err = grad_check(lambda t: T.total_sum(T.mul(T.attention_weights(t, k, 2, mask=mask), probe)), q)
    assert err < 1e-6


# The fused attention ops against the composite they replaced (the oracle):
# same forward bits and same gradient bits for every input, in the shapes each
# caller uses.

FUSED = (T.attention_weights, T.apply_attention)
COMPOSITE = (partial(O.attention_weights, T), partial(O.apply_attention, T))


def _pad_key_mask(lens, h, n):
    pad_key = np.arange(n)[None, :] >= np.array(lens)[:, None]
    return np.broadcast_to(pad_key[:, None, None, :], (len(lens), h, n, n))


def _attend(mask):
    def build(weights_op, apply_op, q, k, v):
        w = weights_op(q, k, 2, mask=mask)
        return [w, apply_op(w, v, 2)]
    return build


def _gate_mixed(weights_op, apply_op, q, k, q2, k2, v, gate):
    gates = T.softmax(gate)
    combined = O.mix_maps(T, [weights_op(q, k, 2), weights_op(q2, k2, 2)], gates)
    return [combined, apply_op(combined, v, 2)]


CAUSAL = np.broadcast_to(np.triu(np.ones((5, 5), dtype=bool), k=1), (2, 5, 5))
ATTENTION_CASES = {
    "gesa_2d": ({"q": (5, 8), "k": (5, 8), "v": (5, 8)}, _attend(None)),
    "caption_pad_mask": ({"q": (3, 4, 8), "k": (3, 4, 8), "v": (3, 4, 8)},
                         _attend(_pad_key_mask([4, 2, 3], 2, 4))),
    "causal": ({"q": (5, 8), "k": (5, 8), "v": (5, 8)}, _attend(CAUSAL)),
    "cached_step": ({"q": (3, 1, 8), "k": (3, 4, 8), "v": (3, 4, 8)}, _attend(None)),
    "gate_mixed": ({"q": (4, 6), "k": (4, 6), "q2": (4, 6), "k2": (4, 6), "v": (4, 6), "gate": (2,)},
                   _gate_mixed),
}


def _probed_loss(outs):
    """Fixed random weighted sum of the map and the attended values."""
    rng = np.random.default_rng(5)
    w, attended = (T.total_sum(T.mul(o, Tensor(rng.normal(0, 1, o.data.shape)))) for o in outs)
    return T.add(w, attended)


def _run(ops, build, arrays, trainable):
    tensors = {n: Tensor(a.copy(), requires_grad=n in trainable) for n, a in arrays.items()}
    with T.Tape() as tape:
        outs = build(*ops, **tensors)
        tape.backward(_probed_loss(outs))
    return [o.data for o in outs], {n: tensors[n].grad for n in trainable}


@pytest.mark.parametrize("trainable", [None, ("q",), ("k",), ("v",)], ids=["all", "q", "k", "v"])
@pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
def test_fused_attention_equals_composite_bit_for_bit(case, trainable):
    shapes, build = ATTENTION_CASES[case]
    rng = np.random.default_rng(11)
    arrays = {n: rng.normal(0, 1, s) for n, s in shapes.items()}
    trainable = tuple(shapes) if trainable is None else trainable
    fused_outs, fused_grads = _run(FUSED, build, arrays, trainable)
    ref_outs, ref_grads = _run(COMPOSITE, build, arrays, trainable)
    for got, want in zip(fused_outs, ref_outs):
        assert np.array_equal(got, want)
    for n in trainable:
        assert fused_grads[n] is not None and np.array_equal(fused_grads[n], ref_grads[n]), n

    for n in trainable:
        others = {m: Tensor(a) for m, a in arrays.items() if m != n}
        err = grad_check(lambda t: _probed_loss(build(*FUSED, **others, **{n: t})),
                         Tensor(arrays[n].copy(), requires_grad=True))
        assert err < 1e-6, (n, err)


def test_fused_attention_records_one_node_per_op():
    q, k, v = (Tensor(RNG.normal(0, 1, (4, 8)), requires_grad=True) for _ in range(3))
    with T.Tape() as tape:
        T.apply_attention(T.attention_weights(q, k, 2), v, 2)
    assert len(tape.nodes) == 2


def test_fused_attention_shape_errors():
    ones = lambda *s: Tensor(np.ones(s))  # noqa: E731
    bad_weights = [
        (ones(3, 7), ones(3, 7), 2, None),  # width not divisible by h
        (ones(3, 8), ones(3, 6), 2, None),  # query and key widths differ
        (ones(2, 3, 8), ones(3, 3, 8), 2, None),  # batch dims differ
        (ones(3, 8), ones(0, 8), 2, None),  # no keys
        (ones(3, 8), ones(4, 8), 2, np.zeros((2, 3, 3), dtype=bool)),  # mask shape
    ]
    for q, k, h, mask in bad_weights:
        with pytest.raises(ShapeError):
            T.attention_weights(q, k, h, mask=mask)
    bad_apply = [
        (ones(2, 3, 4), ones(4, 7), 2),  # width not divisible by h
        (ones(2, 3, 4), ones(4, 8), 4),  # map has 2 heads, not 4
        (ones(2, 3, 4), ones(5, 8), 2),  # map covers 4 keys, not 5
        (ones(3, 4), ones(4, 8), 2),  # map without a head axis
    ]
    for w, v, h in bad_apply:
        with pytest.raises(ShapeError):
            T.apply_attention(w, v, h)


def test_linear_ffn_layer_norm_grads():
    p = init_linear(RNG, 4, 3)
    f = init_ffn(RNG, 4)
    x = Tensor(RNG.normal(0, 1, (5, 4)), requires_grad=True)
    assert grad_check(lambda t: T.total_sum(T.tanh(linear(t, p))), x) < 1e-6
    assert grad_check(lambda t: T.total_sum(ffn(t, f)), x) < 1e-6


def test_log_softmax_valid_distribution_and_grad():
    x = Tensor(RNG.normal(0, 3, (4, 9)), requires_grad=True)
    lp = T.log_softmax(x)
    assert np.allclose(np.exp(lp.data).sum(axis=-1), 1.0, atol=1e-12)
    manual = x.data - x.data.max(axis=-1, keepdims=True)
    manual = manual - np.log(np.exp(manual).sum(axis=-1, keepdims=True))
    assert np.abs(lp.data - manual).max() < 1e-12

    w = Tensor(RNG.normal(0, 1, (4, 9)))
    assert grad_check(lambda t: T.total_sum(T.mul(T.log_softmax(t), w)), x) < 1e-6


def test_log_softmax_3d():
    x = Tensor(RNG.normal(0, 1, (2, 3, 5)))
    lp = T.log_softmax(x)
    assert lp.data.shape == (2, 3, 5)
    assert np.allclose(np.exp(lp.data).sum(axis=-1), 1.0, atol=1e-12)


def test_sinusoidal_positions_formula():
    pe = sinusoidal_positions(6, 8).data
    want = O.positional_rows(6, 8)
    assert np.abs(pe - np.array(want)).max() < 1e-15
    assert pe[0, 0] == 0.0 and pe[0, 1] == 1.0


def test_named_parameters_order_is_stable_and_complete():
    rng1 = np.random.default_rng(0)
    f1 = init_ffn(rng1, 4)
    names = [n for n, _ in named_parameters(f1)]
    assert names == ["inner.w", "inner.b", "outer.w", "outer.b"]
    # dict insertion order respected
    d = {"b": f1.inner, "a": f1.outer}
    names2 = [n for n, _ in named_parameters(d)]
    assert names2 == ["b.w", "b.b", "a.w", "a.b"]


def test_flat_parameters_are_views_in_walk_order():
    """An init function called on a generator binds its parameters, in walk
    order, to one vector of their own; flat_parameters finds that vector and
    copies nothing, and refuses parameters that are not views of one vector."""
    p = init_ffn(np.random.default_rng(0), 2)
    flat = flat_parameters(p)
    assert flat.shape == (2 * 8 + 8 + 8 * 2 + 2,)
    assert all(t.data.base is flat and t.data.flags["C_CONTIGUOUS"] for t in parameters(p))
    assert flat_parameters(p) is flat
    assert flat.tobytes() == b"".join(t.data.tobytes() for t in parameters(p))
    flat[-1] = -1.0
    assert p.outer.b.data[-1] == -1.0
    p.inner.w.data = p.inner.w.data * 2.0  # rebound to an array of its own
    with pytest.raises(ContractError, match="not the views of one vector"):
        flat_parameters(p)
    loose = {"w": Tensor(np.ones((2, 3)), requires_grad=True)}
    with pytest.raises(ContractError):
        flat_parameters(loose)


def test_layout_pass_allocates_nothing_and_draws_in_call_order():
    """A layout pass shapes every leaf, binds none to memory and draws
    nothing; bound and drawn, a stacked member's draw lands in its slice of
    the stack in the order the init code asked for it, as drawing each leaf
    on its own and then stacking it does."""
    layout = Layout()
    members = [nn.init_linear(layout, 3, 2) for _ in range(2)]
    p = {"stacked": layout.stack(members), "ffn": nn.init_ffn(layout, 2)}
    assert [t.data.shape for t in parameters(p)] == [(2, 3, 2), (2, 2), (2, 8), (8,), (8, 2), (2,)]
    assert all(t.data.strides == (0,) * t.data.ndim for t in parameters(p))
    flat = bind_flat(p)
    layout.draw(np.random.default_rng(4))
    rng = np.random.default_rng(4)
    eager = [eager_linear(rng, 3, 2) for _ in range(2)]
    want = flatten({"stacked": Linear(np_stack([m.w for m in eager]), np_stack([m.b for m in eager])),
                    "ffn": eager_ffn(rng, 2)})
    assert flat.tobytes() == flat_parameters(want).tobytes()
    assert all(t.data.base is flat for t in parameters(p))


def test_layer_norm_matches_scalar():
    x = Tensor(RNG.normal(0, 2, (3, 5)))
    gain = Tensor(RNG.normal(1, 0.3, 5))
    bias = Tensor(RNG.normal(0, 0.3, 5))
    got = layer_norm(x, LayerNorm(gain, bias))
    want = O.layer_norm_rows(O.mat(x.data), O.vec(gain.data), O.vec(bias.data))
    assert np.abs(got.data - np.array(want)).max() < 1e-13
