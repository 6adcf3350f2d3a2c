import numpy as np
import pytest

import oracles as O
import util as U
from gevst import tensor as T
from gevst.errors import ConfigError, InputError
from gevst.fusion import attention_map, fusion_cell, stack_fusion
from gevst.nn import Tensor, parameters
from util import init_fusion_cell


def rand_inputs(rng, n, m, d):
    return (Tensor(rng.normal(size=(n, d))), Tensor(rng.normal(size=(n, d))),
            Tensor(rng.normal(size=(m, d))), Tensor(rng.normal(size=(m, d))))


def rand_cell(rng, d, er, base="cg"):
    cell = init_fusion_cell(rng, d, er, base)
    U.randomize(cell, rng)
    return cell


def test_attention_rows_sum_to_one(rng):
    for _ in range(25):
        n, m, d = rng.integers(1, 6), rng.integers(1, 6), 4
        cell = rand_cell(rng, d, 2)
        cq, gq, ck, gk = rand_inputs(rng, n, m, d)
        _, a_con, a_geo = fusion_cell(cell, 2, cq, gq, ck, gk)
        assert np.allclose(a_con.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(a_geo.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose((a_con.data + a_geo.data).sum(axis=1), 2.0, atol=1e-9)


def test_inter_geometry_in_convex_hull(rng):
    for _ in range(25):
        n, m, d = rng.integers(1, 5), rng.integers(1, 5), 6
        cell = rand_cell(rng, d, 2)
        cq, gq, ck, gk = rand_inputs(rng, n, m, d)
        inter = stack_fusion([cell], 2, cq, gq, ck, gk).inter_geometry
        lo = gk.data.min(axis=0) - 1e-12
        hi = gk.data.max(axis=0) + 1e-12
        assert (inter.data >= lo).all() and (inter.data <= hi).all()


def test_base_c_ignores_geometry_and_zeroes_inter(rng):
    cell = rand_cell(rng, 4, 2, base="c")
    cq, gq, ck, gk = rand_inputs(rng, 3, 4, 4)
    up1, _, a_geo = fusion_cell(cell, 2, cq, gq, ck, gk)
    gq2, gk2 = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4, 4)))
    up2, _, _ = fusion_cell(cell, 2, cq, gq2, ck, gk2)
    assert a_geo is None
    assert (stack_fusion([cell], 2, cq, gq, ck, gk).inter_geometry.data == 0.0).all()
    assert np.array_equal(up1.data, up2.data)


def test_base_g_attention_ignores_content(rng):
    cell = rand_cell(rng, 4, 2, base="g")
    cq, gq, ck, gk = rand_inputs(rng, 3, 4, 4)
    _, a_con, a_geo = fusion_cell(cell, 2, cq, gq, ck, gk)
    cq2, ck2 = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4, 4)))
    _, _, a_geo2 = fusion_cell(cell, 2, cq2, gq, ck2, gk)
    assert a_con is None
    assert np.array_equal(a_geo.data, a_geo2.data)


def test_matches_scalar_oracle(rng):
    worst = 0.0
    for _ in range(5):
        n, m, d, er = 3, 4, 4, 2
        cell = rand_cell(rng, d, er)
        cq, gq, ck, gk = rand_inputs(rng, n, m, d)
        up, a_con, a_geo = fusion_cell(cell, er, cq, gq, ck, gk)
        inter = stack_fusion([cell], er, cq, gq, ck, gk).inter_geometry
        ref = O.fusion_cell_oracle(O.mat(cq.data), O.mat(gq.data), O.mat(ck.data),
                                   O.mat(gk.data), U.fusion_oracle_params(cell), er)
        worst = max(worst,
                    U.max_abs_delta(up.data, ref["updated"]),
                    U.max_abs_delta(a_con.data, ref["content_map"]),
                    U.max_abs_delta(a_geo.data, ref["geometry_map"]),
                    U.max_abs_delta(inter.data, ref["inter"]))
    assert worst < 1e-12


def test_stack_trace_and_last_cell_maps(rng):
    cells = [rand_cell(rng, 4, 2) for _ in range(3)]
    cq, gq, ck, gk = rand_inputs(rng, 2, 3, 4)
    with T.recording() as rec:
        out = stack_fusion(cells, 2, cq, gq, ck, gk)
    assert sorted(rec) == ["content", "geometry"]
    assert len(rec["content"]) == 3 and len(rec["geometry"]) == 3
    x = cq
    for cell in cells:
        x, a_con, a_geo = fusion_cell(cell, 2, x, gq, ck, gk)
    assert np.array_equal(rec["content"][-1], a_con.data)
    assert np.array_equal(rec["geometry"][-1], a_geo.data)
    assert np.array_equal(out.fused_content.data, x.data)
    assert np.array_equal(out.inter_geometry.data, a_geo.data @ gk.data)
    assert out.fused_content.data.shape == (2, 4)


def test_fusion_gradients(rng):
    cell = init_fusion_cell(rng, 4, 2)
    gq, ck, gk = (Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(3, 4))),
                  Tensor(rng.normal(size=(3, 4))))
    x0 = rng.normal(size=(2, 4))

    def f(t):
        out = stack_fusion([cell], 2, t, gq, ck, gk)
        return T.total_sum(T.add(T.mul(out.fused_content, out.fused_content), out.inter_geometry))

    rel = U.grad_check(f, Tensor(x0.copy(), requires_grad=True))
    assert rel < 1e-6
    # and through a parameter tensor
    relw = U.grad_check(
        lambda w: f(Tensor(x0.copy())),
        cell.geometry.out.w,
    )
    assert relw < 1e-6


def test_attention_map_equals_kron_gather_reference(rng):
    # pairwise_add replaced two constant kron gather matmuls plus an add:
    # the map and every gradient must come out bit for bit the same
    n, m, d = 3, 5, 4
    att = rand_cell(rng, d, 2).content
    q = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    k = Tensor(rng.normal(size=(m, d)), requires_grad=True)
    w = Tensor(rng.normal(size=(n, m)))
    leaves = [q, k] + parameters(att)

    def run(build):
        for t in leaves:
            t.grad = None
        with T.Tape() as tape:
            a = build(att, q, k)
            tape.backward(T.total_sum(T.mul(a, w)))
        return a.data, [t.grad for t in leaves]

    got_map, got_grads = run(attention_map)
    ref_map, ref_grads = run(lambda *args: O.kron_attention_map(T, *args))
    assert np.array_equal(got_map, ref_map)
    assert len(got_grads) == 8
    for got, ref in zip(got_grads, ref_grads):
        assert np.array_equal(got, ref)


def test_error_cases(rng):
    with pytest.raises(ConfigError):
        init_fusion_cell(rng, 4, 2, base="x")
    cell = init_fusion_cell(rng, 4, 2)
    with pytest.raises(InputError):
        fusion_cell(cell, 2, Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4))),
                    Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))))
    with pytest.raises(ConfigError):
        stack_fusion([], 2, *rand_inputs(rng, 2, 3, 4))
