import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as O
import util as U
from gevst import tensor as T
from gevst.config import TrainConfig
from gevst.data import BOS_ID, EOS_ID, build_vocab, corpus_texts, generate_dataset
from gevst.decoder import (CachedDecoder, beam_search, cross_keys_values, decode, greedy_decode,
                           modulated_multi_input)
from gevst.errors import ConfigError, ContractError, DecodeDiverged
from gevst.model import branch_axis, encode_sample, init_model
from gevst.nn import Linear, Tensor, named_parameters
from util import init_decoder_layer, init_embedding, init_linear


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
    base = U.decoder_forward(layers, 2, outs, embed, out_proj, ids).data
    for k in range(1, len(ids)):
        for v in range(vocab):
            changed = list(ids)
            changed[k] = v
            got = U.decoder_forward(layers, 2, outs, embed, out_proj, changed).data
            assert np.array_equal(base[:k], got[:k])
    # prefixes reproduce the corresponding rows (BLAS blocking differs by
    # matrix shape, so only up to last-ulp noise)
    for k in range(1, len(ids) + 1):
        got = U.decoder_forward(layers, 2, outs, embed, out_proj, ids[:k]).data
        assert np.allclose(base[:k], got, atol=1e-12)


def test_bos_required(rng):
    layers, embed, out_proj, outs = small_model(rng)
    with pytest.raises(ContractError):
        U.decoder_forward(layers, 2, outs, embed, out_proj, [4, 5])
    with pytest.raises(ContractError):
        U.decoder_forward(layers, 2, outs, embed, out_proj, [])


def test_matches_scalar_oracle(rng):
    layers, embed, out_proj, outs = small_model(rng, branches=("ss", "sv", "vs", "vv"))
    ids = [BOS_ID, 4, 5, 3]
    got = U.decoder_forward(layers, 2, outs, embed, out_proj, ids).data
    ref = O.decoder_forward_oracle(
        ids, {b: O.mat(t.data) for b, t in outs.items()},
        U.decoder_oracle_layers(layers, ("ss", "sv", "vs", "vv")), O.mat(embed.data),
        (O.mat(out_proj.w.data), O.vec(out_proj.b.data)), 2)
    assert U.max_abs_delta(got, ref) < 1e-12


# The "sigmoid" in these ids names the decoder gate, once a parameter of the cases.
@pytest.mark.parametrize("branches", [("vv",), ("ss", "sv", "vs", "vv")],
                         ids=["sigmoid-branches0", "sigmoid-branches1"])
def test_teacher_forcing_matches_callback_reference_to_rounding(rng, branches):
    """Cross keys and values projected up front on the branch axis leave the
    logits and every gradient as the callback-based decoder had them, to
    rounding: padded softmax sums and stacked products round differently."""
    layers, embed, out_proj, outs = small_model(rng, branches=branches)
    for t in outs.values():
        t.requires_grad = True
    ids = [BOS_ID, 4, 5, 3, 4]
    probe = Tensor(rng.normal(size=(len(ids), 6)))
    tensors = [t for _, t in named_parameters((layers, embed, out_proj))] + list(outs.values())
    runs = []
    for forward in (U.decoder_forward, U.reference_decoder_forward):
        with T.Tape() as tape:
            logits = forward(layers, 2, outs, embed, out_proj, ids)
            tape.backward(T.total_sum(T.mul(logits, probe)))
        runs.append([logits.data] + [t.grad for t in tensors])
        for t in tensors:
            t.grad = None
    assert all(g is not None for g in runs[0])
    for got, want in zip(*runs):
        assert U.max_abs_delta(got, want) <= 1e-12


CACHED_BRANCHES = [("vv",), ("ss", "vs"), ("ss", "sv", "vs", "vv")]
ALL_BRANCHES = CACHED_BRANCHES[-1]


def scenes_around_eight_keys(rng, branches, d=8):
    """Three scenes whose visual (v*) and semantic (s*) branches hold 2 to 12
    keys, on both sides of 8, each branch output requiring grad."""
    return [{b: Tensor(rng.normal(size=(n_v if b[0] == "v" else n_s, d)), requires_grad=True) for b in branches}
            for n_v, n_s in [(3, 11), (9, 5), (12, 2)]]


@pytest.mark.parametrize("branches", CACHED_BRANCHES, ids="-".join)
def test_branch_axis_matches_the_branch_loop(rng, branches):
    """The stacked, padded cross-attention against the per-branch loop it
    replaced (kept in tests/util.py): logits, every parameter gradient and
    every branch output gradient, over a batch whose key counts differ."""
    layers, embed, out_proj, _ = small_model(rng, branches=branches)
    scenes = scenes_around_eight_keys(rng, branches)
    seqs = [[BOS_ID, 4, 5, 3], [BOS_ID, 2], [BOS_ID, 5, 5, 1, 0]]
    probe = Tensor(rng.normal(size=(3, 5, 6)))
    tensors = [t for _, t in named_parameters((layers, embed, out_proj))] + [o for s in scenes for o in s.values()]
    runs = []
    for forward in (U.decoder_forward, U.branch_loop_decoder_forward):
        with T.Tape() as tape:
            logits = forward(layers, 2, scenes, embed, out_proj, seqs)
            tape.backward(T.total_sum(T.mul(logits, probe)))
        runs.append([logits.data] + [t.grad for t in tensors])
        for t in tensors:
            t.grad = None
    assert all(g is not None for g in runs[0])
    for got, want in zip(*runs):
        assert U.max_abs_delta(got, want) <= 1e-12

    def loss(_):
        return T.total_sum(T.mul(U.decoder_forward(layers, 2, scenes, embed, out_proj, seqs), probe))

    b = branches[-1]
    targets = [U.stored_slice(layers, name, branches)
               for name in (f"0.cross.{b}.q.w", f"1.cross.{b}.k.w", f"0.cross.{b}.v.b", f"1.mod.{b}.w", f"0.mod.{b}.b")]
    for target, part in targets + [(scenes[2][b], None)]:
        assert U.grad_check(loss, target, eps=1e-6, max_coords=8, rng=np.random.default_rng(3), floor=1e-5,
                            part=part) < 1e-5


@pytest.mark.parametrize("layout", ["batch", "rows", "one_scene"])
def test_garbage_in_padded_keys_and_values_changes_no_real_row(rng, layout):
    """Large finite garbage in the padded key and value rows leaves every
    output, every gradient of y and of the stacked weights, and the gradient
    of every real key and value row exactly as zero padding does; the padded
    rows get no gradient. Layouts: a teacher-forced batch (y [S x T x d]),
    one row per scene (y [S x 1 x d]), and one scene's shared keys."""
    layers, _, _, _ = small_model(rng, branches=ALL_BRANCHES)
    with T.no_grad():
        cross = cross_keys_values(layers, U.pad_scenes(scenes_around_eight_keys(rng, ALL_BRANCHES)))[0]
    lp = layers[0]
    keys, values, bias = cross.keys.data, cross.values.data, cross.bias
    y_shape = {"batch": (3, 4, 8), "rows": (3, 1, 8), "one_scene": (4, 8)}[layout]
    if layout == "one_scene":
        keys, values, bias = keys[:, 1], values[:, 1], bias[:, 1]
    padding = bias[..., 0, 0, :] < 0
    assert padding.any() and not padding.all(axis=-1).any()
    y = Tensor(rng.normal(size=y_shape), requires_grad=True)
    probe = Tensor(rng.normal(size=y_shape))
    runs = []
    for fill in (0.0, 1e8 * rng.normal(size=keys.shape)):
        weights = [Tensor(t.data.copy(), requires_grad=True) for t in (lp.cross.q.w, lp.cross.q.b, lp.mod.w, lp.mod.b)]
        layer = replace(lp, cross=replace(lp.cross, q=Linear(*weights[:2])), mod=Linear(*weights[2:]))
        k = Tensor(np.where(padding[..., None], fill, keys), requires_grad=True)
        v = Tensor(np.where(padding[..., None], -fill, values), requires_grad=True)
        entry = replace(cross, keys=k, values=v, bias=bias)
        y.grad = None
        with T.Tape() as tape:
            out = modulated_multi_input(y, entry, layer, 2)
            tape.backward(T.total_sum(T.mul(out, probe)))
        assert not k.grad[padding].any() and not v.grad[padding].any()
        runs.append([out.data, y.grad, k.grad, v.grad] + [w.grad for w in weights])
    for got, want in zip(*runs):
        assert np.array_equal(got, want)
# ids as for the teacher-forcing cases above
CACHED_LAYERS = [pytest.param(2, id="sigmoid-2"), pytest.param(5, id="sigmoid-5")]


def cached_and_oracle(rng, branches, n_layers):
    """A fresh cached step for a random model, and the full-prefix oracle:
    the log softmax of decoder_forward's last row on the whole prefix, the
    scene laid on the branch axis by the reference `pad_scenes`."""
    layers, embed, out_proj, outs = small_model(rng, n_layers=n_layers, branches=branches)

    def oracle(prefix):
        row = U.decoder_forward(layers, 2, outs, embed, out_proj, prefix).data[-1]
        return row - row.max() - np.log(np.exp(row - row.max()).sum())

    return one_scene(CachedDecoder(layers, 2, U.pad_scenes([outs]), embed, out_proj)), oracle


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
    step = one_scene(CachedDecoder(layers, 2, U.pad_scenes([outs]), embed, out_proj))
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
def test_one_scene_step_matches_the_one_scene_decoder(rng, branches):
    """With one scene every row attends to the shared keys, as in the
    one-scene per-op decoder; the array step's products round differently."""
    layers, embed, out_proj, outs = small_model(rng, branches=branches)
    got = one_scene(CachedDecoder(layers, 2, U.pad_scenes([outs]), embed, out_proj))
    want = U.ReferenceCachedDecoder(layers, 2, outs, embed, out_proj)
    for prefixes in BEAM_CALLS:
        assert U.max_abs_delta(got(prefixes), want(prefixes)) <= 1e-12


@given(st.data())
def test_step_matches_teacher_forcing_on_drawn_models_scenes_and_parents(data):
    """Any branch subset, 1 to 3 layers, 1 to 4 scenes of different key
    counts (so padded keys are masked), and steps whose rows reorder, drop
    and duplicate the rows of the step before: every row is the log softmax
    of the last row of its scene's teacher-forced forward, within 1e-12,
    and no log-prob exceeds 0."""
    branches = tuple(data.draw(st.lists(st.sampled_from(ALL_BRANCHES), min_size=1, unique=True).map(sorted)))
    counts = data.draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=4, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    layers, embed, out_proj, _ = small_model(rng, n_layers=data.draw(st.integers(1, 3)), branches=branches)
    scenes = [{b: Tensor(rng.normal(size=(n_v if b[0] == "v" else n_s, 8))) for b in branches} for n_v, n_s in counts]
    step = CachedDecoder(layers, 2, U.pad_scenes(scenes), embed, out_proj)
    rows = [(scene, (BOS_ID,)) for scene in data.draw(st.lists(st.integers(0, len(scenes) - 1), min_size=1, max_size=5))]
    for _ in range(data.draw(st.integers(1, 4))):
        got = step(rows)
        assert got.shape == (len(rows), 6) and got.max() <= 0.0
        for (scene, prefix), row in zip(rows, got):
            logits = U.decoder_forward(layers, 2, scenes[scene], embed, out_proj, list(prefix))
            want = T.log_softmax(logits).data[-1]
            assert U.max_abs_delta(row, want) <= 1e-12
        children = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, 5))
        rows = [(rows[i][0], rows[i][1] + (token,)) for i, token in data.draw(st.lists(children, min_size=1, max_size=5))]


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
    many = CachedDecoder(layers, 2, U.pad_scenes(scenes), embed, out_proj)
    alone = [CachedDecoder(layers, 2, U.pad_scenes([s]), embed, out_proj) for s in scenes]
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
    many = CachedDecoder(layers, 2, U.pad_scenes(scenes), embed, out_proj)
    rows = [(scene, [BOS_ID]) for scene in range(4)]
    got = many(rows)
    assert not np.isfinite(got[1]).any()
    for scene in (0, 2, 3):
        want = CachedDecoder(layers, 2, U.pad_scenes([scenes[scene]]), embed, out_proj)([(0, [BOS_ID])])
        assert U.max_abs_delta(got[scene], want[0]) <= 1e-12


def test_many_scene_step_rejects_rows_outside_their_scene(rng):
    layers, embed, out_proj, _ = small_model(rng, branches=("ss", "sv", "vs", "vv"))
    step = CachedDecoder(layers, 2, U.pad_scenes(desk_shaped_scenes(rng)[:2]), embed, out_proj)
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


def test_a_desk_decoder_holds_only_its_scenes_cross_keys_and_values():
    """Every weight is read where the model stores it: what making a
    one-scene decoder at the desk config leaves allocated is its per-layer
    cross keys and values, the key bias and the empty self-attention cache,
    plus 4 KB for the Python objects that hold them. A fused copy of one
    layer's self q, k and v weights alone would be 96 KB."""
    cfg = TrainConfig()
    sample = generate_dataset(0, 1)[0]
    vocab = build_vocab(corpus_texts([sample]), 1)
    params = init_model(cfg, len(vocab), np.random.default_rng(0))
    with T.no_grad():
        axis = branch_axis([encode_sample(params, cfg, sample, vocab)])
        CachedDecoder(params.dec_layers, cfg.heads, axis, params.dec_embed, params.out)  # fills any lazy cache
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            decoder = CachedDecoder(params.dec_layers, cfg.heads, axis, params.dec_embed, params.out)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    _, padded, padding = axis  # the cross keys and values of a layer are each shaped like `padded`
    snapshots = 2 * len(params.dec_layers) * padded.data.nbytes + padding.size * padded.data.itemsize
    assert held <= snapshots + 4096
    assert decoder([(0, [BOS_ID])]).shape == (1, len(vocab))


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
        g_ids, g_total = U.argmax_decode(U.batched(step), max_len=8)
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


def test_width_one_ties_are_ties_of_the_rounded_sum():
    """Greedy is beam 1, so it ranks the sums cum + lp: two log-probs closer
    than the rounding of cum = -10 tie, and the lower token id wins where
    the argmax of the log-probs takes the larger one. Both sums are -11."""
    def step(prefix):
        row = np.full(8, -50.0)
        if len(prefix) == 1:
            row[4] = -10.0
        elif len(prefix) == 2:
            row[5], row[6] = np.nextafter(-1.0, -2.0), -1.0
        else:
            row[EOS_ID] = 0.0
        return row

    assert greedy_decode(U.batched(step), 3) == ([4, 5, EOS_ID], -11.0)
    assert beam_search(U.batched(step), 1, 3) == U.stopping_beam_search(U.batched(step), 1, 3)
    assert U.argmax_decode(U.batched(step), 3) == ([4, 6, EOS_ID], -11.0)


def test_decoding_no_tokens_gives_the_empty_caption():
    step = U.batched(lambda p: np.log(np.full(4, 0.25)))
    assert greedy_decode(step, 0) == ([], 0.0)
    assert beam_search(step, 3, 0) == ([], 0.0, 0.0)


def test_beam_width_validation():
    with pytest.raises(ConfigError):
        beam_search(U.batched(lambda p: np.zeros(3)), beam=0, max_len=5)


def rigged_table(seed, vocab, values):
    """A prefix -> log-prob row table drawing each entry from `values`: exact
    ties everywhere, and with 0.0 and -1.1e-16 among them tokens whose
    log-prob is exactly 0 or just below it, as `T.log_softmax` gives a
    near-certain token."""

    def step(prefix_ids):
        r = np.random.default_rng(np.random.SeedSequence([seed, *prefix_ids]))
        return r.choice(values, size=vocab)

    return step


TABLE_VALUES = [(-0.5, -1.0, -1.5, -2.0), (0.0, -0.5, -1.0, -1.5), (0.0, -1.1e-16, -0.5, -1.0), (0.0, -1.1e-16)]


def test_beam_stop_matches_the_search_without_it():
    """The stop rule leaves (ids, sum, score) exactly as running every
    hypothesis to EOS or max_len does, and saves step calls."""
    calls = [0, 0]
    for seed in range(800):
        r = np.random.default_rng(seed)
        vocab, beam, max_len = int(r.integers(3, 7)), int(r.integers(1, 6)), int(r.integers(2, 9))
        step = U.batched(rigged_table(seed, vocab, TABLE_VALUES[seed % len(TABLE_VALUES)]))
        runs = []
        for i, search in enumerate((beam_search, U.reference_beam_search)):
            def counted(prefixes, i=i):
                calls[i] += 1
                return step(prefixes)
            runs.append(search(counted, beam, max_len))
        assert runs[0] == runs[1], f"seed {seed}"
    assert calls[0] < calls[1]


def integer_rows(seed, low, vocab, normalized):
    """A rigged (scene, prefix) -> log-prob row: integers from -low to 0, so
    that sums of different paths tie exactly; for the scenes in
    `normalized`, their log softmax, which a draw reads as probabilities."""

    def row(scene, prefix):
        r = np.random.default_rng(np.random.SeedSequence([seed, scene, *prefix]))
        values = r.integers(-low, 1, size=vocab).astype(np.float64)
        return values - np.log(np.exp(values).sum()) if scene in normalized else values

    return row


def drawn_caption(row, scene, rng, max_len):
    """One caption of `scene` drawn token by token from rng: (ids, sum, score)."""
    ids, cum = [BOS_ID], 0.0
    while len(ids) <= max_len and ids[-1] != EOS_ID:
        lp = row(scene, ids)
        tok = int(rng.choice(len(lp), p=np.exp(lp)))
        ids.append(tok)
        cum += float(lp[tok])
    return ids[1:], cum, cum / (len(ids) - 1)


@settings(max_examples=300)
@given(st.data())
def test_decode_groups_equal_their_references(data):
    """Beam groups of every width equal the tuple-sorting search (beam 1 the
    argmax decode too), and sampled groups a hand-written draw loop, bit for
    bit in ids, sum and score, however the groups share a step."""
    vocab, max_len, seed = data.draw(st.integers(2, 60)), data.draw(st.integers(1, 8)), data.draw(st.integers(0, 999))
    groups = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 8), st.none() | st.integers(0, 3)),
                                min_size=1, max_size=4))
    groups = [(scene, 1 if draw is not None else width, draw) for scene, width, draw in groups]
    row = integer_rows(seed, data.draw(st.integers(0, 4)), vocab, {s for s, _, draw in groups if draw is not None})
    got = decode(lambda rows: np.stack([row(s, p) for s, p in rows]),
                 [(s, width, None if draw is None else np.random.default_rng(draw)) for s, width, draw in groups],
                 max_len)
    assert len(got) == len(groups)
    for (scene, width, draw), result in zip(groups, got):
        if draw is not None:
            assert result == drawn_caption(row, scene, np.random.default_rng(draw), max_len)
            continue
        alone = U.batched(lambda p, scene=scene: row(scene, p))
        assert result == U.stopping_beam_search(alone, width, max_len)
        if width == 1:
            assert result[:2] == U.argmax_decode(alone, max_len)


def test_beam_five_equals_the_reference_at_a_large_vocabulary():
    def step(prefix):
        logits = 3.0 * np.random.default_rng(np.random.SeedSequence([5, *prefix])).normal(size=10_000)
        return T.log_softmax(Tensor(logits)).data

    assert beam_search(U.batched(step), 5, 6) == U.stopping_beam_search(U.batched(step), 5, 6)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
@pytest.mark.parametrize("search", [lambda step: greedy_decode(step, 5), lambda step: beam_search(step, 3, 5)],
                         ids=["greedy", "beam"])
def test_one_scene_decoding_rejects_non_finite_log_probs(search, bad):
    def step(prefix):
        row = np.log(np.full(6, 1.0 / 6.0))
        row[4] = bad if len(prefix) == 3 else row[4]
        return row

    with pytest.raises(DecodeDiverged, match="non-finite on scene 0$"):
        search(U.batched(step))
