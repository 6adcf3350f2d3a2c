"""Building-block checks: attention heads, log-softmax, parameter walking."""

import math

import numpy as np
import pytest

import oracles as O
from gevst import tensor as T
from gevst.errors import ShapeError
from gevst.nn import (LayerNorm, Tensor, apply_attention, attention_weights,
                      ffn, flat_parameters, init_ffn, init_linear, layer_norm, linear,
                      log_softmax, merge_heads, named_parameters,
                      sinusoidal_positions, split_heads)
from gevst.tensor import grad_check

RNG = np.random.default_rng(31)


def test_split_merge_heads_round_trip():
    x = Tensor(RNG.normal(0, 1, (5, 8)))
    back = merge_heads(split_heads(x, 2))
    assert np.array_equal(back.data, x.data)


def test_split_heads_rejects_indivisible_width():
    with pytest.raises(ShapeError):
        split_heads(Tensor(np.ones((3, 7))), 2)


def test_attention_weights_rows_stochastic_per_head():
    q = Tensor(RNG.normal(0, 1, (4, 8)))
    k = Tensor(RNG.normal(0, 1, (6, 8)))
    w = attention_weights(q, k, 4)
    assert w.data.shape == (4, 4, 6)
    assert np.allclose(w.data.sum(axis=-1), 1.0, atol=1e-12)


def test_attention_matches_scalar_oracle():
    q = Tensor(RNG.normal(0, 1, (3, 6)))
    k = Tensor(RNG.normal(0, 1, (5, 6)))
    v = Tensor(RNG.normal(0, 1, (5, 6)))
    got = apply_attention(attention_weights(q, k, 2), v, 2)
    maps = O.multi_head_maps(O.mat(q.data), O.mat(k.data), 2)
    want = O.apply_maps(maps, O.mat(v.data), 2)
    assert np.abs(got.data - np.array(want)).max() < 1e-13


def test_attention_mask_zeroes_and_grads():
    q = Tensor(RNG.normal(0, 1, (4, 4)), requires_grad=True)
    k = Tensor(RNG.normal(0, 1, (4, 4)))
    mask = np.broadcast_to(np.triu(np.ones((4, 4), dtype=bool), k=1), (2, 4, 4))
    w = attention_weights(q, k, 2, mask=mask)
    assert (w.data[:, 0, 1:] == 0.0).all()
    probe = Tensor(RNG.normal(0, 1, (2, 4, 4)))
    err = grad_check(lambda t: T.total_sum(T.mul(attention_weights(t, k, 2, mask=mask), probe)), q)
    assert err < 1e-6


def test_linear_ffn_layer_norm_grads():
    p = init_linear(RNG, 4, 3)
    f = init_ffn(RNG, 4)
    x = Tensor(RNG.normal(0, 1, (5, 4)), requires_grad=True)
    assert grad_check(lambda t: T.total_sum(T.tanh(linear(t, p))), x) < 1e-6
    assert grad_check(lambda t: T.total_sum(ffn(t, f)), x) < 1e-6


def test_log_softmax_valid_distribution_and_grad():
    x = Tensor(RNG.normal(0, 3, (4, 9)), requires_grad=True)
    lp = log_softmax(x)
    assert np.allclose(np.exp(lp.data).sum(axis=-1), 1.0, atol=1e-12)
    manual = x.data - x.data.max(axis=-1, keepdims=True)
    manual = manual - np.log(np.exp(manual).sum(axis=-1, keepdims=True))
    assert np.abs(lp.data - manual).max() < 1e-12

    w = Tensor(RNG.normal(0, 1, (4, 9)))
    assert grad_check(lambda t: T.total_sum(T.mul(log_softmax(t), w)), x) < 1e-6


def test_log_softmax_3d():
    x = Tensor(RNG.normal(0, 1, (2, 3, 5)))
    lp = log_softmax(x)
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
    p = {"w": Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True),
         "b": Tensor(np.array([7.0]), requires_grad=True)}
    flat = flat_parameters(p)
    assert np.array_equal(flat, [0, 1, 2, 3, 4, 5, 7])
    assert p["w"].data.shape == (2, 3) and p["w"].data.flags["C_CONTIGUOUS"]
    assert flat_parameters(p) is flat
    flat[6] = -1.0
    assert p["b"].data[0] == -1.0
    # a parameter rebound to a new array starts a fresh vector
    p["w"].data = p["w"].data * 2.0
    flat2 = flat_parameters(p)
    assert flat2 is not flat and np.array_equal(flat2, [0, 2, 4, 6, 8, 10, -1])
    assert np.shares_memory(p["w"].data, flat2) and np.shares_memory(p["b"].data, flat2)


def test_layer_norm_matches_scalar():
    x = Tensor(RNG.normal(0, 2, (3, 5)))
    gain = Tensor(RNG.normal(1, 0.3, 5))
    bias = Tensor(RNG.normal(0, 0.3, 5))
    got = layer_norm(x, LayerNorm(gain, bias))
    want = O.layer_norm_rows(O.mat(x.data), O.vec(gain.data), O.vec(bias.data))
    assert np.abs(got.data - np.array(want)).max() < 1e-13
