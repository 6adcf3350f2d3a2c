import numpy as np
import pytest

import oracles as O
import util as U
from gevst import tensor as T
from gevst.data import BOS_ID, EOS_ID
from gevst.decoder import (CachedDecoder, beam_search, decoder_forward, greedy_decode,
                           init_decoder_layer)
from gevst.errors import ConfigError, ContractError
from gevst.nn import Tensor, init_embedding, init_linear, named_parameters


def rigged_step(seed, vocab, peak=6.0, eos_by=None):
    """Deterministic prefix->log-prob table with one strongly favored token.

    With `eos_by` the favored token becomes EOS once that many tokens were
    generated, so the dominant path always completes inside the length limit
    and a width-limited beam provably finds the global optimum.
    """

    def step(prefix_ids):
        r = np.random.default_rng(np.random.SeedSequence([seed, *prefix_ids]))
        logits = 0.3 * r.normal(size=vocab)
        if eos_by is not None and len(prefix_ids) - 1 >= eos_by:
            logits[EOS_ID] += peak
        else:
            logits[r.integers(0, vocab)] += peak
        return logits - np.log(np.exp(logits).sum())

    return step


def small_model(rng, d=8, vocab=6, n_layers=2, branches=("ss", "vv")):
    layers = [init_decoder_layer(rng, d, branches) for _ in range(n_layers)]
    for lp in layers:
        U.randomize(lp, rng)
    embed = init_embedding(rng, vocab, d)
    out_proj = init_linear(rng, d, vocab)
    outs = {b: Tensor(rng.normal(size=(3, d))) for b in branches}
    return layers, embed, out_proj, outs


def test_causality_exhaustive(rng):
    """Every logit row is bit-identical under any change to later tokens."""
    vocab = 6
    layers, embed, out_proj, outs = small_model(rng, vocab=vocab)
    ids = [BOS_ID, 4, 5, 3, 4]  # T=5
    base = decoder_forward(layers, 2, outs, embed, out_proj, ids).data
    for k in range(1, len(ids)):
        for v in range(vocab):
            changed = list(ids)
            changed[k] = v
            got = decoder_forward(layers, 2, outs, embed, out_proj, changed).data
            assert np.array_equal(base[:k], got[:k])
    # prefixes reproduce the corresponding rows (BLAS blocking differs by
    # matrix shape, so only up to last-ulp noise)
    for k in range(1, len(ids) + 1):
        got = decoder_forward(layers, 2, outs, embed, out_proj, ids[:k]).data
        assert np.allclose(base[:k], got, atol=1e-12)


def test_bos_required(rng):
    layers, embed, out_proj, outs = small_model(rng)
    with pytest.raises(ContractError):
        decoder_forward(layers, 2, outs, embed, out_proj, [4, 5])
    with pytest.raises(ContractError):
        decoder_forward(layers, 2, outs, embed, out_proj, [])


def test_matches_scalar_oracle(rng):
    layers, embed, out_proj, outs = small_model(rng, branches=("ss", "sv", "vs", "vv"))
    ids = [BOS_ID, 4, 5, 3]
    got = decoder_forward(layers, 2, outs, embed, out_proj, ids).data
    ref = O.decoder_forward_oracle(
        ids, {b: O.mat(t.data) for b, t in outs.items()},
        U.decoder_oracle_layers(layers), O.mat(embed.data),
        (O.mat(out_proj.w.data), O.vec(out_proj.b.data)), 2)
    assert U.max_abs_delta(got, ref) < 1e-12


# The "sigmoid" in these ids names the decoder gate, once a parameter of the cases.
@pytest.mark.parametrize("branches", [("vv",), ("ss", "sv", "vs", "vv")],
                         ids=["sigmoid-branches0", "sigmoid-branches1"])
def test_teacher_forcing_matches_callback_reference_bit_for_bit(rng, branches):
    """Cross keys and values projected up front, as plain tensors, leave the
    logits and every gradient exactly as the callback-based decoder had them."""
    layers, embed, out_proj, outs = small_model(rng, branches=branches)
    for t in outs.values():
        t.requires_grad = True
    ids = [BOS_ID, 4, 5, 3, 4]
    probe = Tensor(rng.normal(size=(len(ids), 6)))
    tensors = [t for _, t in named_parameters((layers, embed, out_proj))] + list(outs.values())
    runs = []
    for forward in (decoder_forward, U.reference_decoder_forward):
        with T.Tape() as tape:
            logits = forward(layers, 2, outs, embed, out_proj, ids)
            tape.backward(T.total_sum(T.mul(logits, probe)))
        runs.append([logits.data] + [t.grad for t in tensors])
        for t in tensors:
            t.grad = None
    assert all(g is not None for g in runs[0])
    for got, want in zip(*runs):
        assert np.array_equal(got, want)


CACHED_BRANCHES = [("vv",), ("ss", "vs"), ("ss", "sv", "vs", "vv")]
# ids as for the teacher-forcing cases above
CACHED_LAYERS = [pytest.param(2, id="sigmoid-2"), pytest.param(5, id="sigmoid-5")]


def cached_and_oracle(rng, branches, n_layers):
    """A fresh cached step for a random model, and the full-prefix oracle:
    the log softmax of decoder_forward's last row on the whole prefix."""
    layers, embed, out_proj, outs = small_model(rng, n_layers=n_layers, branches=branches)

    def oracle(prefix):
        row = decoder_forward(layers, 2, outs, embed, out_proj, prefix).data[-1]
        return row - row.max() - np.log(np.exp(row - row.max()).sum())

    return one_scene(CachedDecoder(layers, 2, [outs], embed, out_proj)), oracle


def one_scene(decoder):
    """A one-scene decoder as the plain-prefix step that decoding calls."""
    return lambda prefixes: decoder([(0, p) for p in prefixes])


@pytest.mark.parametrize("branches", CACHED_BRANCHES)
@pytest.mark.parametrize("n_layers", CACHED_LAYERS)
def test_cached_step_matches_full_prefix_on_a_forced_sequence(rng, branches, n_layers):
    step, oracle = cached_and_oracle(rng, branches, n_layers)
    ids = [BOS_ID, 4, 5, 3, 4, 0, 5, 2]
    for k in range(1, len(ids) + 1):
        got = step([ids[:k]])
        assert got.shape == (1, 6)
        assert U.max_abs_delta(got[0], oracle(ids[:k])) <= 1e-12


BEAM_CALLS = [
    [[BOS_ID]],
    [[BOS_ID, 3], [BOS_ID, 4], [BOS_ID, 5]],
    # (BOS, 4) dropped, (BOS, 5) moved first, (BOS, 3) with two children
    [[BOS_ID, 5, 1], [BOS_ID, 3, 4], [BOS_ID, 3, 0]],
    [[BOS_ID, 3, 0, 2], [BOS_ID, 5, 1, 1], [BOS_ID, 5, 1, 3], [BOS_ID, 3, 0, 5]],
]


@pytest.mark.parametrize("branches", CACHED_BRANCHES)
@pytest.mark.parametrize("n_layers", CACHED_LAYERS)
def test_cached_beam_steps_reorder_drop_and_duplicate_parents(rng, branches, n_layers):
    step, oracle = cached_and_oracle(rng, branches, n_layers)
    for prefixes in BEAM_CALLS:
        got = step(prefixes)
        assert got.shape == (len(prefixes), 6)
        for row, prefix in zip(got, prefixes):
            assert U.max_abs_delta(row, oracle(prefix)) <= 1e-12


def test_cached_step_rejects_a_prefix_that_extends_no_previous_row(rng):
    layers, embed, out_proj, outs = small_model(rng)
    step = one_scene(CachedDecoder(layers, 2, [outs], embed, out_proj))
    for first in ([[BOS_ID, 4]], [[4]], [[]], []):
        with pytest.raises(ContractError):
            step(first)
    step([[BOS_ID], [BOS_ID]])
    for bad in ([[BOS_ID]], [[BOS_ID, 4, 5]], [[BOS_ID, 4], [BOS_ID, 4, 5]], [[3, 4]]):
        with pytest.raises(ContractError):
            step(bad)
    # a rejected call leaves the cache as it was
    assert step([[BOS_ID, 4]]).shape == (1, 6)


@pytest.mark.parametrize("branches", CACHED_BRANCHES)
def test_one_scene_step_equals_the_one_scene_decoder_bit_for_bit(rng, branches):
    """With one scene every row attends to the shared keys, as before."""
    layers, embed, out_proj, outs = small_model(rng, branches=branches)
    got = one_scene(CachedDecoder(layers, 2, [outs], embed, out_proj))
    want = U.ReferenceCachedDecoder(layers, 2, outs, embed, out_proj)
    for prefixes in BEAM_CALLS:
        assert np.array_equal(got(prefixes), want(prefixes))


# Desk scenes hold 2 to 5 regions and 3 to 9 dense captions: the vv and vs
# branches have one key per region, ss and sv one per dense caption.
DESK_KEY_COUNTS = [(2, 3), (3, 5), (4, 7), (5, 9)]


def desk_shaped_scenes(rng, d=8):
    return [{b: Tensor(rng.normal(size=(n_v if b[0] == "v" else n_s, d))) for b in ("ss", "sv", "vs", "vv")}
            for n_v, n_s in DESK_KEY_COUNTS]


@pytest.mark.parametrize("n_layers", [2, 3])
def test_many_scene_steps_match_per_scene_steps(rng, n_layers):
    layers, embed, out_proj, _ = small_model(rng, n_layers=n_layers, branches=("ss", "sv", "vs", "vv"))
    scenes = desk_shaped_scenes(rng)
    shared = [4, 5, 3, 4, 0, 2]
    # (scene, caption) rows: scenes 0 and 1 decode the same tokens; each row
    # drops out once its caption is spent, scene 2 before the others
    captions = [(0, shared), (1, shared), (2, [3, 3]), (3, [5, 1, 2]), (3, [5, 0, 1, 1, 3, 2, 4]), (0, [2])]
    many = CachedDecoder(layers, 2, scenes, embed, out_proj)
    alone = [CachedDecoder(layers, 2, [s], embed, out_proj) for s in scenes]
    for t in range(max(len(c) for _, c in captions) + 1):
        rows = [(scene, [BOS_ID] + c[:t]) for scene, c in captions if len(c) >= t]
        got = many(rows)
        assert got.shape == (len(rows), 6)
        for scene, decoder in enumerate(alone):
            mine = [i for i, (s, _) in enumerate(rows) if s == scene]
            if mine:
                want = decoder([(0, rows[i][1]) for i in mine])
                assert U.max_abs_delta(got[mine], want) <= 1e-12
        if t <= len(shared):  # equal prefixes, each attending to its own scene
            assert not np.allclose(got[0], got[1])


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_a_non_finite_scene_spoils_only_its_own_rows(rng):
    layers, embed, out_proj, _ = small_model(rng, branches=("ss", "sv", "vs", "vv"))
    scenes = desk_shaped_scenes(rng)
    scenes[1]["vv"].data[0, 0] = np.inf
    many = CachedDecoder(layers, 2, scenes, embed, out_proj)
    rows = [(scene, [BOS_ID]) for scene in range(4)]
    got = many(rows)
    assert not np.isfinite(got[1]).any()
    for scene in (0, 2, 3):
        want = CachedDecoder(layers, 2, [scenes[scene]], embed, out_proj)([(0, [BOS_ID])])
        assert U.max_abs_delta(got[scene], want[0]) <= 1e-12


def test_many_scene_step_rejects_rows_outside_their_scene(rng):
    layers, embed, out_proj, _ = small_model(rng, branches=("ss", "sv", "vs", "vv"))
    step = CachedDecoder(layers, 2, desk_shaped_scenes(rng)[:2], embed, out_proj)
    for bad in ([(2, [BOS_ID])], [(-1, [BOS_ID])], [(0, [BOS_ID]), (5, [BOS_ID])]):
        with pytest.raises(ContractError, match="scene"):
            step(bad)
    step([(0, [BOS_ID]), (0, [BOS_ID])])
    step([(0, [BOS_ID, 4])])
    # (BOS, 4) exists for scene 0 only: scene 1 cannot extend it, nor start over
    for bad in ([(1, [BOS_ID, 4, 5])], [(1, [BOS_ID])], [(0, [BOS_ID, 4, 5]), (1, [BOS_ID, 4, 5])]):
        with pytest.raises(ContractError, match="of scene 1"):
            step(bad)
    # a rejected call leaves the cache as it was
    assert step([(0, [BOS_ID, 4, 5]), (0, [BOS_ID, 4, 1])]).shape == (2, 6)


def test_decoder_needs_scenes_with_the_same_branches(rng):
    layers, embed, out_proj, outs = small_model(rng)
    with pytest.raises(ContractError):
        CachedDecoder(layers, 2, [], embed, out_proj)
    with pytest.raises(ContractError):
        CachedDecoder(layers, 2, [outs, {"ss": outs["ss"]}], embed, out_proj)
    no_keys = {b: Tensor(out.data[:0]) for b, out in outs.items()}
    with pytest.raises(ContractError, match="at least one row"):
        CachedDecoder(layers, 2, [outs, no_keys], embed, out_proj)


def test_greedy_tie_breaks_to_lowest_id():
    def step(prefix):
        return np.array([-1.0, -1.0, -0.5]) if len(prefix) < 3 else np.array([-9.0, -9.0, 0.0])

    ids, total = greedy_decode(U.batched(step), max_len=10)
    assert ids == [2]  # token 2 is EOS and also the argmax
    step2 = lambda prefix: np.zeros(4)  # all tied -> lowest id wins
    ids2, _ = greedy_decode(U.batched(step2), max_len=3)
    assert ids2 == [0, 0, 0]


def test_beam_one_equals_greedy():
    for seed in range(50):
        step = rigged_step(seed, vocab=5, peak=3.0)
        g_ids, g_total = greedy_decode(U.batched(step), max_len=8)
        b_ids, b_cum, _ = beam_search(U.batched(step), beam=1, max_len=8)
        assert b_ids == g_ids
        assert b_cum == g_total


def test_beam_two_matches_exhaustive_enumeration():
    for seed in range(20):
        step = rigged_step(seed, vocab=3, eos_by=3)
        want_ids, want_cum, want_norm = O.enumerate_best(step, 3, EOS_ID, max_len=5)
        got_ids, got_cum, got_norm = beam_search(U.batched(step), beam=2, max_len=5)
        assert want_ids[-1] == EOS_ID  # the rig must terminate inside the limit
        assert got_ids == want_ids, f"seed {seed}: {got_ids} != {want_ids}"
        assert abs(got_cum - want_cum) < 1e-12
        assert abs(got_norm - want_norm) < 1e-12


def test_beam_prefers_normalized_score():
    # a short complete caption against a longer one with better mean log-prob
    table = {
        (1,): np.log([0.05, 0.05, 0.4, 0.5]),  # EOS=2 strong, token 3 stronger
        (1, 3): np.log([0.05, 0.05, 0.88, 0.02]),
    }

    def step(prefix):
        return table.get(tuple(prefix), np.log([0.01, 0.01, 0.97, 0.01]))

    ids, cum, norm = beam_search(U.batched(step), beam=3, max_len=4)
    # [3, EOS]: mean log-prob log(0.5*0.88)/2 beats [EOS]: log(0.4)
    assert ids == [3, EOS_ID]
    assert abs(norm - (np.log(0.5) + np.log(0.88)) / 2.0) < 1e-12


def test_beam_width_validation():
    with pytest.raises(ConfigError):
        beam_search(U.batched(lambda p: np.zeros(3)), beam=0)
