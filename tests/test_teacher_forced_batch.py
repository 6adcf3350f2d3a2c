"""The padded, masked teacher-forced pass over a whole batch against the
one-scene pass it replaced in training: one sample at a time, summed; and
the batch encode (`training.encode_batch`: one padded, masked pass over
the batch's scenes, GESA branch groups on one axis) against each sample
encoded alone, at [N x d], with the per-branch loop or the branch groups;
and the weights stored on branch axes against the per-branch layout they
replaced.

Desk batches mix region counts, dense-caption counts and caption lengths, so
every branch output and every id sequence is padded somewhere in the batch.
"""

import dataclasses

import numpy as np
import pytest

import oracles as O
import util as U
from gevst import tensor as T
from gevst import training as TR
from gevst.ablation import axis_configs
from gevst.config import FUSION_BASES, GESA_VARIANTS, TrainConfig
from gevst.data import BOS_ID, EOS_ID, PAD_ID, build_vocab, corpus_texts, generate_dataset, pad_ids
from gevst.decoder import decoder_forward, pad_scenes
from gevst.errors import ContractError, InputError
from gevst.model import caption_logits, encode_sample, encode_scenes, init_model
from gevst.nn import Tensor, flat_parameters, named_parameters, parameters

BRANCH_SETS = [("vv",), ("ss", "vs"), ("ss", "sv", "vs", "vv")]
TOL = 1e-12


def desk_batch(branches, n=6, seed=0):
    cfg = TrainConfig(branches=branches)
    samples = generate_dataset(seed, n)
    vocab = build_vocab(corpus_texts(samples), cfg.min_count)
    params = init_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
    return cfg, samples, vocab, params


def sampled_captions(vocab, n, seed=1):
    """Rollout-like captions of different lengths; one ends without EOS and
    one holds PAD inside, which a length-based weight must still count."""
    rng = np.random.default_rng(seed)
    caps = [[int(t) for t in rng.integers(3, len(vocab), size=k)] + [EOS_ID]
            for k in rng.integers(1, 9, size=n)]
    caps[0] = caps[0][:-1] + [7]
    caps[-1] = [PAD_ID] + caps[-1]
    return caps


def xe_batch(params, cfg, vocab, samples, branches):
    inputs, targets = zip(*(TR.teacher_pair(vocab, s.gt_captions[0]) for s in samples))
    return TR.xe_loss(caption_logits(params, cfg, branches, inputs), pad_ids(targets))


def xe_loop(params, cfg, vocab, samples, branches):
    total = None
    for s, branch in zip(samples, branches):
        inputs, targets = TR.teacher_pair(vocab, s.gt_captions[0])
        loss = TR.xe_loss(caption_logits(params, cfg, branch, inputs), targets)
        total = loss if total is None else T.add(total, loss)
    return total


def scst_batch(params, cfg, caps, advantages, branches):
    logits = caption_logits(params, cfg, branches, [[BOS_ID] + c[:-1] for c in caps])
    return TR.reinforce_loss(logits, caps, advantages)


def scst_loop(params, cfg, caps, advantages, branches):
    total = None
    for c, a, branch in zip(caps, advantages, branches):
        logits = caption_logits(params, cfg, branch, [BOS_ID] + c[:-1])
        loss = T.mul(TR.sequence_logprob(logits, c), -a)
        total = loss if total is None else T.add(total, loss)
    return total


def loss_and_grads(params, cfg, vocab, samples, loss_fn):
    """(loss, every parameter's gradient, every branch output's gradient) of
    loss_fn(branch outputs) with the samples encoded on the same tape."""
    tensors = parameters(params)
    for t in tensors:
        t.grad = None
    with T.Tape() as tape:
        branches = [encode_sample(params, cfg, s, vocab) for s in samples]
        loss = loss_fn(branches)
        tape.backward(loss)
    grads = [t.grad for t in tensors]
    outs = [out.grad for branch in branches for out in branch.values()]
    for t in tensors:
        t.grad = None
    return loss.item(), grads, outs


def assert_close_runs(got, want):
    assert abs(got[0] - want[0]) <= TOL * max(1.0, abs(want[0]))
    for g, w in zip(got[1] + got[2], want[1] + want[2]):
        assert (g is None) == (w is None)
        if w is not None:
            assert U.max_abs_delta(g, w) <= TOL


@pytest.mark.parametrize("branches", BRANCH_SETS, ids="-".join)
def test_batched_xe_matches_the_per_sample_loop(branches):
    cfg, samples, vocab, params = desk_batch(branches)
    assert len({len(s.regions) for s in samples}) > 1 and len({len(s.dense_captions) for s in samples}) > 1
    assert len({len(s.gt_captions[0].split()) for s in samples}) > 1
    got = loss_and_grads(params, cfg, vocab, samples, lambda b: xe_batch(params, cfg, vocab, samples, b))
    want = loss_and_grads(params, cfg, vocab, samples, lambda b: xe_loop(params, cfg, vocab, samples, b))
    assert all(g is not None for g in got[2])
    assert_close_runs(got, want)


@pytest.mark.parametrize("branches", BRANCH_SETS, ids="-".join)
def test_batched_scst_matches_the_per_sample_loop(branches):
    cfg, samples, vocab, params = desk_batch(branches)
    caps = sampled_captions(vocab, len(samples))
    advantages = [0.8, -1.3, 0.25, 2.0, -0.5, 1.1]
    got = loss_and_grads(params, cfg, vocab, samples, lambda b: scst_batch(params, cfg, caps, advantages, b))
    want = loss_and_grads(params, cfg, vocab, samples, lambda b: scst_loop(params, cfg, caps, advantages, b))
    assert_close_runs(got, want)


def test_a_sample_does_not_depend_on_its_batch():
    """Sample 2 in two batches of other scenes (longer and shorter ones, at
    another position): its logits, XE loss and gradients agree."""
    cfg, samples, vocab, params = desk_batch(BRANCH_SETS[-1], n=9)
    caps = sampled_captions(vocab, 9)
    runs = []
    for members in ([0, 1, 2, 3], [8, 2, 5]):
        batch = [samples[i] for i in members]
        at = members.index(2)
        inputs, targets = zip(*(TR.teacher_pair(vocab, s.gt_captions[0]) for s in batch))
        t_len = len(inputs[at])
        logits = []

        def xe_of_sample(branches):
            full = caption_logits(params, cfg, branches, inputs)
            logits.append(full.data[at, :t_len].copy())
            row = O.narrow(T, O.narrow(T, full, 0, at, 1), 1, 0, t_len)
            return TR.xe_loss(row, [targets[at]])

        def scst_of_sample(branches):
            advantages = [0.9 if i == at else 0.0 for i in range(len(batch))]
            return scst_batch(params, cfg, [caps[i] for i in members], advantages, branches)

        xe = loss_and_grads(params, cfg, vocab, batch, xe_of_sample)
        scst = loss_and_grads(params, cfg, vocab, batch, scst_of_sample)
        own = slice(at * len(cfg.branches), (at + 1) * len(cfg.branches))
        runs.append((logits[0], (xe[0], xe[1], xe[2][own]), (scst[0], scst[1], scst[2][own])))
    (logits_a, xe_a, scst_a), (logits_b, xe_b, scst_b) = runs
    assert U.max_abs_delta(logits_a, logits_b) <= TOL
    assert_close_runs(xe_a, xe_b)
    assert_close_runs(scst_a, scst_b)


def test_batched_pass_grad_check_on_the_miniature_config():
    cfg = U.miniature_config(raw_feat_dim=32, min_count=1, enc_layers=1)
    samples = generate_dataset(4, 3)
    vocab = build_vocab(corpus_texts(samples), 1)
    params = init_model(cfg, len(vocab), np.random.default_rng(2))
    caps = sampled_captions(vocab, 3, seed=4)

    def loss(_):
        branches = [encode_sample(params, cfg, s, vocab) for s in samples]
        return T.add(xe_batch(params, cfg, vocab, samples, branches),
                     scst_batch(params, cfg, caps, [0.6, -0.4, 1.5], branches))

    # eps and floor as in criterion 1: near-zero gradients compare absolutely
    names = ("dec_layers.0.cross.vv.k.w", "dec_layers.0.cross.ss.v.b", "dec_layers.0.mod.sv.w",
             "dec_layers.0.self_q.w", "dec_embed", "vis_in.w")
    for name in names:
        target, part = U.stored_slice(params, name)
        rel = U.grad_check(loss, target, eps=1e-6, max_coords=6, rng=np.random.default_rng(5), floor=1e-5, part=part)
        assert rel < 1e-4


def test_pad_scenes_lays_each_scene_first_then_zero_rows(rng):
    """Every branch of every scene is padded to the longest of them all, on a
    branch axis in BRANCH_NAMES order, whatever order the scenes name them in."""
    counts = {"vv": (2, 4, 1), "ss": (3, 1, 2)}
    scenes = [{b: Tensor(rng.normal(size=(counts[b][i], 4))) for b in ("vv", "ss")} for i in range(3)]
    branches, padded, padding = pad_scenes(scenes)
    assert branches == ("ss", "vv")
    assert padded.data.shape == (2, 3, 4, 4)
    assert padding.tolist() == [[[False] * 3 + [True], [False] + [True] * 3, [False] * 2 + [True] * 2],
                                [[False] * 2 + [True] * 2, [False] * 4, [False] + [True] * 3]]
    for i, b in enumerate(branches):
        for j, s in enumerate(scenes):
            n = counts[b][j]
            assert np.array_equal(padded.data[i, j, :n], s[b].data)
            assert not padded.data[i, j, n:].any()


def test_batched_forward_contracts():
    cfg, samples, vocab, params = desk_batch(("vv",), n=2)
    with T.no_grad():
        branches = [encode_sample(params, cfg, s, vocab) for s in samples]
    layers, embed, out = params.dec_layers, params.dec_embed, params.out
    with pytest.raises(ContractError, match="2 scenes vs 1 id sequences"):
        decoder_forward(layers, cfg.heads, branches, embed, out, [[BOS_ID, 4]])
    with pytest.raises(ContractError, match="must start with BOS"):
        decoder_forward(layers, cfg.heads, branches, embed, out, [[BOS_ID, 4], [4, 5]])
    with pytest.raises(ContractError, match="same branch outputs"):
        decoder_forward(layers, cfg.heads, [branches[0], {}], embed, out, [[BOS_ID], [BOS_ID]])
    with pytest.raises(ContractError, match="logit rows"):
        TR.reinforce_loss(caption_logits(params, cfg, branches, [[BOS_ID, 4], [BOS_ID]]), [[4], [5]], [1.0, 1.0])


def lengthened(samples, vocab):
    """The samples with some dense captions made 8 to 12 tokens long, so the
    batch's caption pass pads past 8 and rounds its attention sums differently."""
    out = []
    for i, s in enumerate(samples):
        dense = list(s.dense_captions)
        for j in range(0, len(dense), 3 + i % 2):
            words = (dense[j].text + " ") * 4
            dense[j] = dataclasses.replace(dense[j], text=" ".join(words.split()[:8 + (i + j) % 5]))
        out.append(dataclasses.replace(s, dense_captions=dense))
    assert max(len(vocab.encode(dc.text)) for s in out for dc in s.dense_captions) >= 8
    return out


@pytest.mark.parametrize("variant", GESA_VARIANTS)
@pytest.mark.parametrize("row", [cfg.branches for _, cfg in axis_configs("branches", TrainConfig())], ids="+".join)
def test_batch_encode_matches_the_per_sample_oracle(row, variant):
    """The XE batch loss of `encode_batch` and every parameter gradient
    against the sum over samples each encoded alone (own caption pass,
    per-branch GESA loop) and decoded alone, within 1e-12, for every
    ablation branch row and GESA variant, on a batch mixing region counts,
    dense-caption counts and caption lengths (some 8 tokens or longer)."""
    cfg = TrainConfig(branches=row, gesa_variant=variant, d_model=16, heads=2, enc_width=16, layers=2)
    samples = generate_dataset(3, 5)
    vocab = build_vocab(corpus_texts(samples), cfg.min_count)
    samples = lengthened(samples, vocab)
    assert len({len(s.regions) for s in samples}) > 1 and len({len(s.dense_captions) for s in samples}) > 1
    params = init_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
    flat_parameters(params)
    tensors = parameters(params)
    runs = []
    for batched in (True, False):
        for t in tensors:
            t.grad = None
        with T.Tape() as tape:
            if batched:
                loss = xe_batch(params, cfg, vocab, samples, TR.encode_batch(params, cfg, samples, vocab))
            else:
                loss = xe_loop(params, cfg, vocab, samples,
                               [U.branch_loop_encode_sample(params, cfg, s, vocab) for s in samples])
            tape.backward(loss)
        runs.append((loss.item(), [t.grad for t in tensors]))
    (loss, grads), (want_loss, want_grads) = runs
    assert abs(loss - want_loss) <= TOL * abs(want_loss)
    for g, w in zip(grads, want_grads):
        assert (g is None) == (w is None)
        if w is not None:
            assert U.max_abs_delta(g, w) <= TOL


def mixed_scenes(samples):
    """The samples cut to 1 to 5 regions and to dense-caption counts that do
    not follow the region counts, so both sides of every fusion and GESA
    group are padded somewhere in the batch, differently for each scene."""
    out = [dataclasses.replace(s, regions=s.regions[:n_regions], dense_captions=s.dense_captions[:n_dense])
           for s, n_regions, n_dense in zip(samples, (5, 4, 3, 2, 1), (2, 9, 1, 5, 3))]
    assert [len(s.regions) for s in out] == [5, 4, 3, 2, 1] and [len(s.dense_captions) for s in out] == [2, 9, 1, 5, 3]
    return out


@pytest.mark.parametrize("base", FUSION_BASES)
@pytest.mark.parametrize("variant", GESA_VARIANTS)
@pytest.mark.parametrize("row", [cfg.branches for _, cfg in axis_configs("branches", TrainConfig())], ids="+".join)
def test_padded_batch_matches_the_per_sample_encode(row, variant, base):
    """The padded, masked batch encode (`training.encode_batch`) against each
    sample encoded on its own at [N x d] (tests/util.py), both under one XE
    plus SCST batch loss: the loss and every parameter gradient within
    1e-12, for every ablation branch row, GESA variant and fusion base, on a
    batch mixing 1 to 5 regions, dense-caption counts and caption lengths."""
    cfg = TrainConfig(branches=row, gesa_variant=variant, fusion_base=base, d_model=16, heads=2, enc_width=16,
                      layers=2)
    samples = generate_dataset(3, 5)
    vocab = build_vocab(corpus_texts(samples), cfg.min_count)
    samples = mixed_scenes(lengthened(samples, vocab))
    caps = sampled_captions(vocab, len(samples))
    params = init_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
    flat_parameters(params)
    tensors = parameters(params)
    runs = []
    for encode in (TR.encode_batch, U.per_sample_encode_batch):
        for t in tensors:
            t.grad = None
        with T.Tape() as tape:
            branches = encode(params, cfg, samples, vocab)
            loss = T.add(xe_batch(params, cfg, vocab, samples, branches),
                         scst_batch(params, cfg, caps, [0.8, -1.3, 0.25, 2.0, -0.5], branches))
            tape.backward(loss)
        runs.append((loss.item(), [t.grad for t in tensors]))
    (loss, grads), (want_loss, want_grads) = runs
    assert abs(loss - want_loss) <= TOL * abs(want_loss)
    for g, w in zip(grads, want_grads):
        assert (g is None) == (w is None)
        if w is not None:
            assert U.max_abs_delta(g, w) <= TOL


def test_a_batch_of_one_is_bit_identical_to_the_one_scene_encode():
    """Each desk scene encoded alone (`model.encode_sample`, no padding and
    no mask) carries the bits of the per-branch, per-sample encode of
    tests/util.py in every branch output, fusion map and GESA gate, and so
    does that scene run as a batch of one (`training.encode_batch`)."""
    cfg, samples, vocab, params = desk_batch(("ss", "sv", "vs", "vv"), n=8)
    flat_parameters(params)
    for s in samples:
        runs = []
        for encode in (lambda: encode_sample(params, cfg, s, vocab),
                       lambda: TR.encode_batch(params, cfg, [s], vocab)[0],
                       lambda: U.branch_loop_encode_sample(params, cfg, s, vocab)):
            with T.no_grad(), T.recording() as rec:
                outs = encode()
            runs.append(({b: out.data.tobytes() for b, out in outs.items()},
                         {k: [a.tobytes() for a in v] for k, v in rec.items()}))
        assert runs[0] == runs[1] == runs[2]
        assert {k.split(".")[-1] for k in runs[0][1]} == {"content", "geometry", "gesa_gates"}


def test_encode_sample_checks_its_row_of_the_batch():
    cfg, samples, vocab, params = desk_batch(("vv", "ss"), n=3)
    scenes = encode_scenes(params, cfg, samples, vocab)
    assert len({len(s.regions) for s in samples}) > 1
    with pytest.raises(InputError, match="scene 1 of the batch"):
        encode_sample(params, cfg, samples[0], vocab, (scenes, 1))
    rows = encode_sample(params, cfg, samples[1], vocab, (scenes, 1))
    assert rows["vv"].data.shape[0] == len(samples[1].regions)
    assert rows["ss"].data.shape[0] == len(samples[1].dense_captions)


@pytest.mark.parametrize("variant", GESA_VARIANTS)
@pytest.mark.parametrize("branches", BRANCH_SETS, ids="+".join)
def test_stored_layout_matches_the_per_branch_layout(branches, variant):
    """A model stored on branch axes against the same seed drawn in the
    per-branch layout (tests/util.py) and run as that layout ran, its branch
    weights stacked per call: the same values under the name map, the same
    bits in a desk batch's XE loss and in every recorded gate, and every
    per-branch gradient within 1e-12 of its slice of the stored one."""
    cfg, samples, vocab, stored = desk_batch(branches, n=8)
    assert len({len(s.regions) for s in samples}) > 1 and len({len(s.dense_captions) for s in samples}) > 1
    model = U.per_branch_init(cfg, len(vocab), np.random.default_rng(cfg.seed))
    names = U.name_map(stored)
    assert list(names) == [name for name, _ in named_parameters(model)]
    tensors = dict(named_parameters(stored))
    for (new, i), (_, t) in zip(names.values(), named_parameters(model)):
        assert (tensors[new].data if i is None else tensors[new].data[i]).tobytes() == t.data.tobytes()
    runs = []
    for params in (stored, model):
        with T.recording() as rec, T.Tape() as tape:
            if params is model:
                params = U.restacked(model)
            loss = xe_batch(params, cfg, vocab, samples, TR.encode_batch(params, cfg, samples, vocab))
            tape.backward(loss)
        runs.append((loss.item(), rec))
    (loss, rec), (want_loss, want_rec) = runs
    assert loss.hex() == want_loss.hex()
    assert list(rec) == list(want_rec) and any(k.startswith("decoder_gates_") for k in rec)
    assert all(len(rec[k]) == len(want_rec[k]) and all(map(np.array_equal, rec[k], want_rec[k])) for k in rec)
    grads = U.mapped_grads(stored)
    for name, t in named_parameters(model):
        assert (grads[name] is None) == (t.grad is None)
        if t.grad is not None:
            assert U.max_abs_delta(grads[name], t.grad) <= TOL
