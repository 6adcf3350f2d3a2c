import numpy as np
import pytest

import oracles as O
import util as U
from gevst import tensor as T
from gevst.ablation import axis_configs
from gevst.config import BRANCH_NAMES, GESA_VARIANTS, TrainConfig
from gevst.encoder import active_groups, branch_forward, encode_all, gesa_gates, variant_map_count
from gevst.errors import ConfigError, ShapeError
from gevst.nn import Tensor, parameters
from util import init_fusion_cell, init_gesa_group


def rand_group(rng, d, h, variant="con_intra_inter", layers=1):
    """A randomized group of one branch, and that branch's first layer as a
    view (`U.per_branch`)."""
    group = init_gesa_group(rng, d, h, variant, 1, layers)
    U.randomize(group, rng)
    return group, U.per_branch(group)[0][0]


def rand_xgg(rng, n, d):
    return (Tensor(rng.normal(size=(n, d))), Tensor(rng.normal(size=(n, d))),
            Tensor(rng.normal(size=(n, d))))


def test_variant_map_counts():
    assert [variant_map_count(v) for v in GESA_VARIANTS] == [1, 2, 3]
    with pytest.raises(ConfigError):
        variant_map_count("intra")


def test_gates_are_probability_vectors(rng):
    for variant, k in zip(GESA_VARIANTS, (1, 2, 3)):
        for _ in range(7):
            _, lp = rand_group(rng, 8, 2, variant)
            x = Tensor(rng.normal(size=(4, 8)))
            g = gesa_gates(x, lp).data
            assert g.shape == (k,)
            assert (g > 0).all() and abs(g.sum() - 1.0) < 1e-12


def test_combined_map_row_stochastic(rng):
    for _ in range(10):
        _, lp = rand_group(rng, 8, 2)
        x, gi, ge = rand_xgg(rng, 5, 8)
        ref = O.gesa_layer_oracle(O.mat(x.data), O.mat(gi.data), O.mat(ge.data),
                                  U.gesa_oracle_params(lp), 2)
        for head_map in ref["combined"]:
            for row in head_map:
                assert abs(sum(row) - 1.0) < 1e-9


def test_variant_containment_exact(rng):
    """Zeroing the richer model's extra gates reproduces the poorer variant."""
    d, h, n = 8, 2, 4
    rich_group, rich = rand_group(rng, d, h, "con_intra_inter")
    x, gi, ge = rand_xgg(rng, n, d)

    for keep in (1, 2):
        # drive the softmax scores of the dropped maps to exactly zero
        with T.no_grad():
            rich.gate.w.data[:, keep:] = 0.0
            rich.gate.b.data[keep:] = -1e9
        out_rich = U.gesa_layer(x, gi, ge, rich_group, h).data

        poorer_group = init_gesa_group(np.random.default_rng(0), d, h, GESA_VARIANTS[keep - 1], 1, 1)
        poorer = U.per_branch(poorer_group)[0][0]
        shared = ("q_c", "k_c", "v_c", "ln1", "ffn", "ln2") + (("q_intra", "k_intra") if keep >= 2 else ())
        U.copy_values([getattr(poorer, f) for f in shared], [getattr(rich, f) for f in shared])
        poorer.gate.w.data[...] = rich.gate.w.data[:, :keep]
        poorer.gate.b.data[...] = rich.gate.b.data[:keep]
        out_poor = U.gesa_layer(x, gi, ge, poorer_group, h).data
        assert np.array_equal(out_rich, out_poor)


def test_geometry_maps_static_across_layers(rng, monkeypatch):
    """The maps each layer of a three-layer branch hands `T.mix_maps`, for
    two different content inputs: at every layer the intra and inter maps
    are bit-identical, since geometry is static; only the content map
    changes with the content."""
    d, h, layers = 8, 2, 3
    group, _ = rand_group(rng, d, h, layers=layers)
    _, gi, ge = rand_xgg(rng, 4, d)
    mixed, mix_maps = [], T.mix_maps

    def recording_mix(maps, gates):
        mixed.append([m.data.copy() for m in maps])
        return mix_maps(maps, gates)

    monkeypatch.setattr(T, "mix_maps", recording_mix)
    for _ in range(2):
        branch_forward(group, h, T.stack([Tensor(rng.normal(size=(4, d)))]), gi, ge, ["gesa_gates"])
    assert len(mixed) == 2 * layers
    for first, second in zip(mixed[:layers], mixed[layers:]):
        content, intra, inter = first
        assert np.array_equal(intra, second[1]) and np.array_equal(inter, second[2])
        assert not np.array_equal(content, second[0])


def test_matches_scalar_oracle(rng):
    worst = 0.0
    for _ in range(5):
        group, lp = rand_group(rng, 8, 2)
        x, gi, ge = rand_xgg(rng, 4, 8)
        with T.recording() as rec:
            got = U.gesa_layer(x, gi, ge, group, 2)
        ref = O.gesa_layer_oracle(O.mat(x.data), O.mat(gi.data), O.mat(ge.data),
                                  U.gesa_oracle_params(lp), 2)
        worst = max(worst, U.max_abs_delta(got.data, ref["out"]),
                    U.max_abs_delta(rec["gesa_gates"][0], ref["gates"]))
    assert worst < 1e-12


def test_branch_forward_traces_every_layer(rng):
    group, _ = rand_group(rng, 8, 2, layers=3)
    x, gi, ge = rand_xgg(rng, 4, 8)
    with T.recording() as rec:
        branch_forward(group, 2, T.stack([x]), gi, ge, ["gesa_gates"])
    assert list(rec) == ["gesa_gates"] and len(rec["gesa_gates"]) == 3
    for g in rec["gesa_gates"]:
        assert g.shape == (3,) and abs(g.sum() - 1.0) < 1e-12


def make_encode_inputs(rng, d=8, nv=3, ns=2):
    vc, vg = Tensor(rng.normal(size=(nv, d))), Tensor(rng.normal(size=(nv, d)))
    sc, sg = Tensor(rng.normal(size=(ns, d))), Tensor(rng.normal(size=(ns, d)))
    f_vs = [init_fusion_cell(rng, d, 2)]
    f_sv = [init_fusion_cell(rng, d, 2)]
    groups = {key: init_gesa_group(rng, d, 2, "con_intra_inter", len(members), 2)
              for key, members in active_groups(BRANCH_NAMES).items()}
    return vc, vg, sc, sg, f_vs, f_sv, groups


def test_encode_all_shapes_and_trace(rng):
    vc, vg, sc, sg, f_vs, f_sv, groups = make_encode_inputs(rng)
    with T.recording() as rec:
        outs = encode_all(vc, vg, sc, sg, f_vs, f_sv, groups, h=2, er=2)
    assert list(outs) == ["ss", "sv", "vs", "vv"]
    assert outs["vv"].data.shape == (3, 8) and outs["ss"].data.shape == (2, 8)
    for direction, shape in (("fusion_vs", (3, 2)), ("fusion_sv", (2, 3))):
        for kind in ("content", "geometry"):
            maps = rec[f"{direction}.{kind}"]
            assert len(maps) == 1 and maps[0].shape == shape
    assert {k for k in rec if k.endswith(".gesa_gates")} == {f"{b}.gesa_gates" for b in BRANCH_NAMES}
    assert all(len(rec[f"{b}.gesa_gates"]) == 2 for b in BRANCH_NAMES)
    assert len(rec) == 4 + len(BRANCH_NAMES)


def test_encode_all_branch_subsets(rng):
    vc, vg, sc, sg, f_vs, f_sv, groups = make_encode_inputs(rng)
    outs = encode_all(vc, vg, sc, sg, f_vs, f_sv, {"vs+vv": groups["vs+vv"]}, h=2, er=2)
    assert list(outs) == ["vs", "vv"]
    for bad in ({}, {"vv+zz": groups["vs+vv"]}, {"vv+vs": groups["vs+vv"]},
                {"vs+vv": groups["vs+vv"], "ss+sv": groups["ss+sv"]}):
        with pytest.raises(ConfigError, match="must be the active members"):
            encode_all(vc, vg, sc, sg, f_vs, f_sv, bad, h=2, er=2)


def test_shape_errors(rng):
    group = init_gesa_group(rng, 8, 2, "con_intra_inter", 1, 1)
    x = Tensor(rng.normal(size=(4, 8)))
    bad = Tensor(rng.normal(size=(3, 8)))
    with pytest.raises(ShapeError):
        U.gesa_layer(x, bad, x, group, 2)
    with pytest.raises(ConfigError):
        init_gesa_group(rng, 9, 2, "con_intra_inter", 1, 1)


BRANCH_ROWS = [cfg.branches for _, cfg in axis_configs("branches", TrainConfig())]


@pytest.mark.parametrize("variant", GESA_VARIANTS)
@pytest.mark.parametrize("flat", [True, False], ids=["views", "copies"])
def test_branch_groups_match_the_per_branch_loop(variant, flat):
    """encode_all's groups on one branch axis against the per-branch loop it
    replaced (tests/util.py, reading the groups per branch), for every
    ablation branch row: the same bits in every output and every recorded
    gate, gradients within 1e-12, whether the parameters are views of a flat
    vector or arrays of their own."""
    rng = np.random.default_rng(8)
    d, h = 8, 2
    vc, vg, sc, sg = (Tensor(rng.normal(size=(n, d)), requires_grad=True) for n in (3, 3, 5, 5))
    f_vs, f_sv = [init_fusion_cell(rng, d, 2)], [init_fusion_cell(rng, d, 2)]
    probes = {b: Tensor(rng.normal(size=(3 if b[0] == "v" else 5, d))) for b in BRANCH_NAMES}
    for row in BRANCH_ROWS:
        groups = {key: init_gesa_group(rng, d, h, variant, len(m), 2) for key, m in active_groups(row).items()}
        model = (f_vs, f_sv, groups)
        U.randomize(model, rng)
        if flat:
            U.flatten(model)
        else:
            for t in parameters(model):
                t.data = t.data.copy()
        leaves = parameters(model) + [vc, vg, sc, sg]
        runs = []
        for encode in (encode_all, U.branch_loop_encode_all):
            for t in leaves:
                t.grad = None
            with T.recording() as rec, T.Tape() as tape:
                outs = encode(vc, vg, sc, sg, f_vs, f_sv, groups, h, 2)
                loss = T.total_sum(T.concat([T.mul(outs[b], probes[b]) for b in outs], axis=0))
                tape.backward(loss)
            runs.append((outs, rec, [t.grad for t in leaves]))
        (outs, rec, grads), (want_outs, want_rec, want_grads) = runs
        assert list(outs) == list(want_outs)
        assert all(np.array_equal(outs[b].data, want_outs[b].data) for b in outs)
        assert list(rec) == list(want_rec)
        assert all(len(rec[k]) == len(want_rec[k]) and all(map(np.array_equal, rec[k], want_rec[k])) for k in rec)
        for g, w in zip(grads, want_grads):
            assert (g is None) == (w is None)
            if w is not None:
                assert U.max_abs_delta(g, w) <= 1e-12



def garbage(shape):
    return np.random.default_rng(99).normal(0.0, 1e3, shape) + 3e2


def padded_leaf(seed, counts, d, fill, lead=()):
    """A leaf [*lead x B x N x d] of random rows for scenes of `counts` real
    rows, each padded row `fill`ed."""
    padding = np.arange(max(counts)) >= np.array(counts)[:, None]
    x = np.random.default_rng(seed).normal(size=lead + (len(counts), max(counts), d))
    x[..., padding, :] = fill(x[..., padding, :].shape)
    return Tensor(x, requires_grad=True)


def padded_runs(run, inputs, out_counts, params):
    """`run(leaves)` -> (outputs [... x B x N x d], records), with the leaves
    made from `inputs` ((seed, counts, lead axes) each) once with zero padded
    rows and once with garbage in them. A loss reads every real output row
    (scene b's first out_counts[i][b] rows of output i). Returns, per run,
    the bytes of every real output row, of every real leaf row's gradient,
    of every parameter gradient and of every record's real block."""
    runs = []
    for fill in (np.zeros, garbage):
        leaves = [padded_leaf(seed, counts, 8, fill, lead) for seed, counts, lead in inputs]
        with T.Tape() as tape:
            outs, rec = run(leaves)
            probe_rng, loss = np.random.default_rng(3), None
            for out, counts in zip(outs, out_counts):
                probe = probe_rng.normal(size=out.data.shape)
                probe[..., np.arange(out.data.shape[-2]) >= np.array(counts)[:, None], :] = 0.0
                term = T.total_sum(T.mul(out, Tensor(probe)))
                loss = term if loss is None else T.add(loss, term)
            tape.backward(loss)

        def real(a, counts):  # None for an input no output depends on
            return None if a is None else b"".join(a[..., b, :n, :].tobytes() for b, n in enumerate(counts))

        runs.append(([real(o.data, c) for o, c in zip(outs, out_counts)],
                     [real(t.grad, c) for t, (_, c, _) in zip(leaves, inputs)],
                     [t.grad.tobytes() for t in params], rec))
        for t in params:
            t.grad = None
    return runs


@pytest.mark.parametrize("base", ["c", "g", "cg"])
@pytest.mark.parametrize("variant", GESA_VARIANTS)
def test_padded_rows_never_reach_a_real_row(variant, base):
    """Large finite garbage in every padded row, and so every padded key, of
    the fusion inputs (`encode_all`), and then of the GESA inputs
    (`branch_forward`), changes no byte of any real row's output, of the
    gradient of any real input row or parameter, or of any recorded gate or
    real block of a fusion map."""
    rng = np.random.default_rng(12)
    h, v_counts, s_counts = 2, (1, 3, 5), (4, 1, 2)
    v_pad, s_pad = (np.arange(max(c)) >= np.array(c)[:, None] for c in (v_counts, s_counts))
    f_vs, f_sv = ([init_fusion_cell(rng, 8, 2, base) for _ in range(2)] for _ in range(2))
    groups = {key: init_gesa_group(rng, 8, h, variant, len(members), 2)
              for key, members in active_groups(BRANCH_NAMES).items()}
    U.randomize((f_vs, f_sv, groups), rng)

    def encode(leaves):
        with T.recording() as rec:
            outs = encode_all(*leaves, f_vs, f_sv, groups, h, 2, v_pad, s_pad)
        gates = {k: [a.tobytes() for a in v] for k, v in rec.items() if k.endswith("gesa_gates")}
        maps = [b"".join(a[b, :n, :m].tobytes() for b, (n, m) in enumerate(zip(*counts)))
                for k, v in rec.items() if k.startswith("fusion")
                for a, counts in zip(v, [(v_counts, s_counts) if "_vs." in k else (s_counts, v_counts)] * len(v))]
        assert len(maps) == 2 * 2 * len(base)
        return [outs[b] for b in BRANCH_NAMES], (gates, maps)

    inputs = [(1, v_counts, ()), (2, v_counts, ()), (3, s_counts, ()), (4, s_counts, ())]
    zero, junk = padded_runs(encode, inputs, [s_counts, s_counts, v_counts, v_counts], parameters((f_vs, f_sv, groups)))
    assert zero == junk

    group = groups["vs+vv"]

    def gesa(leaves):
        content, g_intra, g_inter = leaves
        with T.recording() as rec:
            out = branch_forward(group, h, content, g_intra, g_inter, ["vs", "vv"], v_pad)
        return [out], {k: [a.tobytes() for a in v] for k, v in rec.items()}

    inputs = [(5, v_counts, (2,)), (6, v_counts, ()), (7, v_counts, ())]
    zero, junk = padded_runs(gesa, inputs, [v_counts], parameters(group))
    assert zero == junk
