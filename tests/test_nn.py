"""Building-block checks: attention heads, log-softmax, parameter walking."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as O
from gevst import nn
from gevst import tensor as T
from gevst.decoder import causal_bias
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
    bias = causal_bias(4)  # [4 x 4], over both heads
    w = T.attention_weights(q, k, 2, bias=bias)
    assert (w.data[:, 0, 1:] == 0.0).all()
    probe = Tensor(RNG.normal(0, 1, (2, 4, 4)))
    err = grad_check(lambda t: T.total_sum(T.mul(T.attention_weights(t, k, 2, bias=bias), probe)), q)
    assert err < 1e-6


# The fused attention ops against the composite they replaced (the oracle):
# same forward bits and same gradient bits for every input, in the shapes each
# caller uses.

FUSED = (T.attention_weights, T.apply_attention)
COMPOSITE = (partial(O.attention_weights, T), partial(O.apply_attention, T))


def _pad_key(lens, h, n):
    """(the bool mask [b x h x n x n] of the padded keys of captions of
    `lens` tokens, padded to n, and their per-head key bias [b x 1 x 1 x n])."""
    pad_key = np.arange(n)[None, :] >= np.array(lens)[:, None]
    return np.broadcast_to(pad_key[:, None, None, :], (len(lens), h, n, n)), nn.key_bias(pad_key[:, None])


def _attend(mask=None, bias=None):
    """The fused op takes `bias`, the composite the bool `mask` of the same keys."""
    def build(weights_op, apply_op, q, k, v):
        w = weights_op(q, k, 2, bias=bias) if weights_op is T.attention_weights else weights_op(q, k, 2, mask=mask)
        return [w, apply_op(w, v, 2)]
    return build


def _gate_mixed(weights_op, apply_op, q, k, q2, k2, v, gate):
    gates = T.softmax(gate)
    combined = O.mix_maps(T, [weights_op(q, k, 2), weights_op(q2, k2, 2)], gates)
    return [combined, apply_op(combined, v, 2)]


CAUSAL = np.broadcast_to(np.triu(np.ones((5, 5), dtype=bool), k=1), (2, 5, 5))
ATTENTION_CASES = {
    "gesa_2d": ({"q": (5, 8), "k": (5, 8), "v": (5, 8)}, _attend()),
    "caption_pad_mask": ({"q": (3, 4, 8), "k": (3, 4, 8), "v": (3, 4, 8)},
                         _attend(*_pad_key([4, 2, 3], 2, 4))),
    "causal": ({"q": (5, 8), "k": (5, 8), "v": (5, 8)}, _attend(CAUSAL, causal_bias(5))),
    "cached_step": ({"q": (3, 1, 8), "k": (3, 4, 8), "v": (3, 4, 8)}, _attend()),
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
        (ones(3, 8), ones(4, 8), 2, np.zeros((2, 3, 3))),  # a bias that does not broadcast to the scores
    ]
    for q, k, h, bias in bad_weights:
        with pytest.raises(ShapeError):
            T.attention_weights(q, k, h, bias=bias)
    bad_apply = [
        (ones(2, 3, 4), ones(4, 7), 2),  # width not divisible by h
        (ones(2, 3, 4), ones(4, 8), 4),  # map has 2 heads, not 4
        (ones(2, 3, 4), ones(5, 8), 2),  # map covers 4 keys, not 5
        (ones(3, 4), ones(4, 8), 2),  # map without a head axis
    ]
    for w, v, h in bad_apply:
        with pytest.raises(ShapeError):
            T.apply_attention(w, v, h)


def _padding(data, shape):
    """A bool padding of `shape` that keeps at least one real key in every row."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    padding = rng.random(shape) < data.draw(st.sampled_from([0.0, 0.5, 0.9]))
    np.put_along_axis(padding, rng.integers(0, shape[-1], shape[:-1] + (1,)), False, axis=-1)
    return padding


def _forward_and_grads(build, inputs, trainable):
    """build's output and the gradient of a fixed probe of it for each input
    (None for one that needs none)."""
    tensors = [Tensor(a.copy(), requires_grad=t) for a, t in zip(inputs, trainable)]
    with T.Tape() as tape:
        out = build(*tensors)
        if any(trainable):
            tape.backward(T.total_sum(T.mul(out, Tensor(np.random.default_rng(1).normal(size=out.data.shape)))))
    return [out.data] + [t.grad for t in tensors]


@given(st.data())
def test_key_bias_ops_equal_the_bool_mask_composite(data):
    """`T.attention_weights` and `T.softmax` with the key bias of a padding
    (`nn.key_bias`) give the bool-mask composite's forward and gradients bit
    for bit, over 0-3 leading axes (the padding leaving out some of them, as
    a branch axis), any padding that keeps a real key in every row and any
    inputs needing a gradient; a bias that does not broadcast to the scores
    is refused."""
    lead = tuple(data.draw(st.lists(st.integers(1, 3), max_size=3)))
    h, dh = data.draw(st.sampled_from([1, 2, 4])), data.draw(st.integers(1, 2))
    n_q, n_k = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    padding = _padding(data, lead[data.draw(st.integers(0, len(lead))):] + (n_k,))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    q, k, x = (rng.normal(size=lead + shape) for shape in ((n_q, h * dh), (n_k, h * dh), (n_q, n_k)))
    trainable = data.draw(st.tuples(st.booleans(), st.booleans()))
    mask = np.broadcast_to(padding[..., None, None, :], lead + (h, n_q, n_k))
    bias = nn.key_bias(padding[..., None, :])
    fused = _forward_and_grads(lambda q, k: T.attention_weights(q, k, h, bias=bias), [q, k], trainable)
    composite = _forward_and_grads(lambda q, k: O.attention_weights(T, q, k, h, mask=mask), [q, k], trainable)
    fused += _forward_and_grads(lambda x: T.softmax(x, nn.key_bias(padding)), [x], trainable[:1])
    composite += _forward_and_grads(lambda x: T.softmax(O.masked_fill(T, x, mask[..., 0, :, :], -1e9)), [x],
                                    trainable[:1])
    for got, want in zip(fused, composite):
        assert (got is None) == (want is None) and (got is None or np.array_equal(got, want))

    wrong_keys = nn.key_bias(np.zeros(lead + (n_k + 1,), bool))
    for bad in (wrong_keys, np.zeros((2,) + lead + (h, n_q, n_k))):
        with pytest.raises(ShapeError, match="bias"):
            T.attention_weights(Tensor(q), Tensor(k), h, bias=bad)
    for bad in (wrong_keys, np.zeros((2,) + x.shape)):
        with pytest.raises(ShapeError, match="bias"):
            T.softmax(Tensor(x), bad)


@given(st.data())
def test_real_mean_ignores_padded_rows(data):
    """`nn.real_mean` of rows [... x N x d] whose padded rows hold large
    garbage is NumPy's mean over each entry's real rows."""
    lead = tuple(data.draw(st.lists(st.integers(1, 3), max_size=3)))
    n, d = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    cut = data.draw(st.integers(0, len(lead)))
    padding = _padding(data, lead[cut:] + (n,))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=lead + (n, d))
    x[..., padding, :] = rng.normal(0.0, 1e6, x[..., padding, :].shape) + 3e2
    got = nn.real_mean(Tensor(x), padding).data
    assert got.shape == lead + (d,)
    for i in np.ndindex(lead):
        assert np.allclose(got[i], x[i][~padding[i[cut:]]].mean(axis=0), rtol=1e-15, atol=1e-15)


def test_cached_tables_are_read_only():
    """The position table and the causal bias are cached and shared by every
    caller, so a write to either raises instead of changing later calls."""
    with pytest.raises(ValueError):
        sinusoidal_positions(4, 8).data[0, 0] = 9.0
    with pytest.raises(ValueError):
        causal_bias(3)[0, 1] = 0.0
    assert sinusoidal_positions(4, 8).data[0, 0] == 0.0 and causal_bias(3)[0, 1] == -1e9


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
