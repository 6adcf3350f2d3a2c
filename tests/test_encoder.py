import numpy as np
import pytest

import oracles as O
import util as U
from gevst import tensor as T
from gevst.encoder import (BRANCHES, VARIANTS, branch_forward, encode_all,
                           gesa_gates, gesa_layer, init_gesa_layer,
                           variant_map_count)
from gevst.errors import ConfigError, ShapeError
from gevst.fusion import init_fusion_cell
from gevst.nn import Tensor, linear


def rand_layer(rng, d, h, variant="con_intra_inter"):
    lp = init_gesa_layer(rng, d, h, variant)
    U.randomize(lp, rng)
    return lp


def rand_xgg(rng, n, d):
    return (Tensor(rng.normal(size=(n, d))), Tensor(rng.normal(size=(n, d))),
            Tensor(rng.normal(size=(n, d))))


def test_variant_map_counts():
    assert [variant_map_count(v) for v in VARIANTS] == [1, 2, 3]
    with pytest.raises(ConfigError):
        variant_map_count("intra")


def test_gates_are_probability_vectors(rng):
    for variant, k in zip(VARIANTS, (1, 2, 3)):
        for _ in range(7):
            lp = rand_layer(rng, 8, 2, variant)
            x = Tensor(rng.normal(size=(4, 8)))
            g = gesa_gates(x, lp).data
            assert g.shape == (k,)
            assert (g > 0).all() and abs(g.sum() - 1.0) < 1e-12


def test_combined_map_row_stochastic(rng):
    for _ in range(10):
        lp = rand_layer(rng, 8, 2)
        x, gi, ge = rand_xgg(rng, 5, 8)
        ref = O.gesa_layer_oracle(O.mat(x.data), O.mat(gi.data), O.mat(ge.data),
                                  U.gesa_oracle_params(lp), 2)
        for head_map in ref["combined"]:
            for row in head_map:
                assert abs(sum(row) - 1.0) < 1e-9


def test_variant_containment_exact(rng):
    """Zeroing the richer model's extra gates reproduces the poorer variant."""
    d, h, n = 8, 2, 4
    rich = rand_layer(rng, d, h, "con_intra_inter")
    x, gi, ge = rand_xgg(rng, n, d)

    for keep in (1, 2):
        # drive the softmax scores of the dropped maps to exactly zero
        with T.no_grad():
            rich.gate.w.data[:, keep:] = 0.0
            rich.gate.b.data[keep:] = -1e9
        out_rich = gesa_layer(x, gi, ge, rich, h).data

        poorer = init_gesa_layer(np.random.default_rng(0), d, h, VARIANTS[keep - 1])
        poorer.q_c, poorer.k_c, poorer.v_c = rich.q_c, rich.k_c, rich.v_c
        if keep >= 2:
            poorer.q_intra, poorer.k_intra = rich.q_intra, rich.k_intra
        poorer.ln1, poorer.ffn, poorer.ln2 = rich.ln1, rich.ffn, rich.ln2
        poorer.gate.w.data = rich.gate.w.data[:, :keep].copy()
        poorer.gate.b.data = rich.gate.b.data[:keep].copy()
        out_poor = gesa_layer(x, gi, ge, poorer, h).data
        assert np.array_equal(out_rich, out_poor)


def test_geometry_maps_static_across_layers(rng):
    """With shared geometry, the intra map is identical at every layer of a
    branch whose layers share intra projections."""
    d, h = 8, 2
    lp = rand_layer(rng, d, h)
    x, gi, ge = rand_xgg(rng, 4, d)
    m1 = T.attention_weights(linear(gi, lp.q_intra), linear(gi, lp.k_intra), h).data
    y = gesa_layer(x, gi, ge, lp, h)
    m2 = T.attention_weights(linear(gi, lp.q_intra), linear(gi, lp.k_intra), h).data
    assert np.array_equal(m1, m2)
    assert y.data.shape == x.data.shape


def test_matches_scalar_oracle(rng):
    worst = 0.0
    for _ in range(5):
        lp = rand_layer(rng, 8, 2)
        x, gi, ge = rand_xgg(rng, 4, 8)
        with T.recording() as rec:
            got = gesa_layer(x, gi, ge, lp, 2)
        ref = O.gesa_layer_oracle(O.mat(x.data), O.mat(gi.data), O.mat(ge.data),
                                  U.gesa_oracle_params(lp), 2)
        worst = max(worst, U.max_abs_delta(got.data, ref["out"]),
                    U.max_abs_delta(rec["gesa_gates"][0], ref["gates"]))
    assert worst < 1e-12


def test_branch_forward_traces_every_layer(rng):
    layers = [rand_layer(rng, 8, 2) for _ in range(3)]
    x, gi, ge = rand_xgg(rng, 4, 8)
    with T.recording() as rec:
        branch_forward(layers, 2, x, gi, ge)
    assert list(rec) == ["gesa_gates"] and len(rec["gesa_gates"]) == 3
    for g in rec["gesa_gates"]:
        assert g.shape == (3,) and abs(g.sum() - 1.0) < 1e-12


def make_encode_inputs(rng, d=8, nv=3, ns=2):
    vc, vg = Tensor(rng.normal(size=(nv, d))), Tensor(rng.normal(size=(nv, d)))
    sc, sg = Tensor(rng.normal(size=(ns, d))), Tensor(rng.normal(size=(ns, d)))
    f_vs = [init_fusion_cell(rng, d, 2)]
    f_sv = [init_fusion_cell(rng, d, 2)]
    layers = {b: [init_gesa_layer(rng, d, 2) for _ in range(2)] for b in BRANCHES}
    return vc, vg, sc, sg, f_vs, f_sv, layers


def test_encode_all_shapes_and_trace(rng):
    vc, vg, sc, sg, f_vs, f_sv, layers = make_encode_inputs(rng)
    with T.recording() as rec:
        outs = encode_all(vc, vg, sc, sg, f_vs, f_sv, layers, h=2, er=2)
    assert list(outs) == ["ss", "sv", "vs", "vv"]
    assert outs["vv"].data.shape == (3, 8) and outs["ss"].data.shape == (2, 8)
    for direction, shape in (("fusion_vs", (3, 2)), ("fusion_sv", (2, 3))):
        for kind in ("content", "geometry"):
            maps = rec[f"{direction}.{kind}"]
            assert len(maps) == 1 and maps[0].shape == shape
    assert {k for k in rec if k.endswith(".gesa_gates")} == {f"{b}.gesa_gates" for b in BRANCHES}
    assert all(len(rec[f"{b}.gesa_gates"]) == 2 for b in BRANCHES)
    assert len(rec) == 4 + len(BRANCHES)


def test_encode_all_branch_subsets(rng):
    vc, vg, sc, sg, f_vs, f_sv, layers = make_encode_inputs(rng)
    outs = encode_all(vc, vg, sc, sg, f_vs, f_sv, layers, h=2, er=2,
                      active_branches=("vv", "vs"))
    assert list(outs) == ["vs", "vv"]
    with pytest.raises(ConfigError):
        encode_all(vc, vg, sc, sg, f_vs, f_sv, layers, h=2, er=2, active_branches=())
    with pytest.raises(ConfigError):
        encode_all(vc, vg, sc, sg, f_vs, f_sv, layers, h=2, er=2,
                   active_branches=("vv", "zz"))


def test_shape_errors(rng):
    lp = init_gesa_layer(rng, 8, 2)
    x = Tensor(rng.normal(size=(4, 8)))
    bad = Tensor(rng.normal(size=(3, 8)))
    with pytest.raises(ShapeError):
        gesa_layer(x, bad, x, lp, 2)
    with pytest.raises(ConfigError):
        init_gesa_layer(rng, 9, 2)
