import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from gevst import tensor as T
from gevst import training as TR
from gevst.config import TrainConfig, config_from_dict
from gevst.data import (BOS_ID, EOS_ID, PAD_ID, build_vocab, corpus_texts,
                        generate_dataset, pad_ids, split_train_val)
from gevst.errors import (ConfigError, ContractError, ParseError, SchemaError,
                          TrainingDiverged)
from gevst.decoder import greedy_decode
from gevst.model import caption_logits, encode_sample, init_model, make_step_fn
from gevst.nn import Tensor, flat_parameters, named_parameters, parameters

import oracles as O
import util as U

# tiny datasets leave one-sample validation pools, which CIDEr rightly flags
pytestmark = pytest.mark.filterwarnings(
    "ignore:CIDEr-D over a single-document corpus")


def tiny_cfg(**kw):
    base = dict(raw_feat_dim=32, min_count=1, batch_size=4, xe_epochs=2,
                scst_epochs=1, val_every=1, max_len=12, enc_layers=1)
    base.update(kw)
    return U.miniature_config(**base)


def tiny_setup(n=6, seed=5, **kw):
    samples = generate_dataset(seed, n)
    cfg = tiny_cfg(**kw)
    return samples, cfg


# ------------------------------------------------------------- optimization


def test_noam_peaks_at_warmup():
    w = 40
    values = [TR.noam_lr(s, 64, w) for s in range(1, 200)]
    assert int(np.argmax(values)) + 1 == w
    assert abs(TR.noam_lr(w, 64, w) - 64 ** -0.5 * w ** -0.5) < 1e-15
    # linear rise before, step^-0.5 decay after
    assert abs(values[9] - 10 * values[0]) < 1e-12
    assert abs(TR.noam_lr(4 * w, 64, w) - 0.5 * TR.noam_lr(w, 64, w)) < 1e-15
    with pytest.raises(ConfigError):
        TR.noam_lr(1, 64, 0)
    with pytest.raises(ContractError):
        TR.noam_lr(0, 64, 10)


def test_adam_minimizes_quadratic():
    x = Tensor(np.array([5.0]), requires_grad=True)
    opt = TR.Adam({"x": x})
    for _ in range(500):
        with T.Tape() as tape:
            tape.backward(T.mul(x, x), opt.sinks)
        opt.step(0.1)
        if abs(float(x.data[0])) < 0.1:
            break
    assert abs(float(x.data[0])) < 0.1


def test_adam_skips_gradless_params():
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = Tensor(np.array([2.0]), requires_grad=True)
    opt = TR.Adam({"x": x, "y": y})
    opt.grad[0] = 1.0  # x's view; y's stays zero
    opt.step(0.5)
    assert float(y.data[0]) == 2.0 and float(x.data[0]) != 1.0


def test_clip_gradients():
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    opt = TR.Adam({"a": a, "b": b})
    assert TR.clip_gradients(opt, 1.0) == 0.0
    opt.grad[:] = [3.0] * 3 + [4.0] * 4  # a's view, then b's
    norm = math.sqrt(27 + 64)
    got = TR.clip_gradients(opt, 1.0)
    assert abs(got - norm) < 1e-12
    # the optimizer's vector was scaled; the tensors hold no gradient of their own
    assert a.grad is None and b.grad is None
    assert abs(math.sqrt(float((opt.grad ** 2).sum())) - 1.0) < 1e-12
    # already under the limit: untouched
    opt.grad[:] = 0.1
    TR.clip_gradients(opt, 1.0)
    assert np.array_equal(opt.grad, np.full(7, 0.1))


def test_clip_gradients_scales_aliased_gradients_once():
    # add() hands both leaves one shared gradient array; scaling each
    # parameter's gradient in place would scale that array twice
    a = Tensor(np.full(3, 2.0), requires_grad=True)
    b = Tensor(np.full(3, 1.0), requires_grad=True)
    opt = TR.Adam({"a": a, "b": b})
    with T.Tape() as tape:
        tape.backward(T.total_sum(T.mul(T.add(a, b), Tensor(np.array([4.0, 3.0, 2.0])))), opt.sinks)
    norm = math.sqrt(2 * (16 + 9 + 4))
    assert abs(TR.clip_gradients(opt, 5.0) - norm) < 1e-12
    assert abs(math.sqrt(float((opt.grad ** 2).sum())) - 5.0) < 1e-12
    assert np.allclose(opt.grad, np.tile([4.0, 3.0, 2.0], 2) * 5.0 / norm)


def test_clip_gradients_accepts_read_only_gradients():
    # total_sum's gradient is a read-only broadcast view
    c = Tensor(np.arange(4.0), requires_grad=True)
    opt = TR.Adam({"c": c})
    with T.Tape() as tape:
        tape.backward(T.mul(T.total_sum(c), 3.0), opt.sinks)
    assert TR.clip_gradients(opt, 1.0) == 6.0
    assert np.allclose(opt.grad, 0.5)
    opt.step(0.1)
    assert np.all(c.data < np.arange(4.0))


def test_training_leaves_no_parameter_gradient():
    """Gradients reach the optimizer only through `opt.sinks`: after an XE
    epoch and an SCST epoch no parameter holds a Tensor.grad of its own."""
    samples, cfg = tiny_setup(n=8)
    out = TR.train_xe(samples, cfg, epochs=1)
    TR.train_scst(samples, cfg, out.params, out.vocab, epochs=1, start_step=out.trained_steps)
    assert [n for n, t in named_parameters(out.params) if t.grad is not None] == []


def test_flat_adam_matches_per_tensor_reference():
    """20 clipped steps on the miniature model, plus one parameter that never
    gets a gradient: the flat optimizer equals the per-tensor loop bit for bit."""
    samples = generate_dataset(5, 4)
    cfg = tiny_cfg()
    vocab = build_vocab(corpus_texts(samples), 1)

    def fresh():
        rng = np.random.default_rng(21)
        return {"model": init_model(cfg, len(vocab), rng),
                "frozen": Tensor(rng.normal(size=(2, 3)), requires_grad=True)}

    def backward(obj, batch, sinks=None):
        with T.Tape() as tape:
            acc = None
            for s in batch:
                inputs, targets = TR.teacher_pair(vocab, s.gt_captions[0])
                branch = encode_sample(obj["model"], cfg, s, vocab)
                loss = TR.xe_loss(caption_logits(obj["model"], cfg, branch, inputs), targets)
                acc = loss if acc is None else T.add(acc, loss)
            tape.backward(T.mul(acc, 1.0 / len(batch)), sinks)

    ref_obj, flat_obj = fresh(), fresh()
    ref_named = list(named_parameters(ref_obj))
    ref, opt = O.PerTensorAdam(ref_named), TR.Adam(flat_obj)
    frozen = flat_obj["frozen"].data.copy()
    clipped = 0
    for step in range(20):
        batch = samples[step % 2 :: 2]
        for _, t in ref_named:
            t.grad = None
        backward(ref_obj, batch)
        backward(flat_obj, batch, opt.sinks)
        ref_norm = O.clip_per_tensor(ref_named, 1.0)
        assert TR.clip_gradients(opt, 1.0) == ref_norm
        clipped += ref_norm > 1.0
        ref.step(0.01)
        opt.step(0.01)
    assert 0 < clipped < 20
    for (name, r), f in zip(ref_named, parameters(flat_obj)):
        assert np.array_equal(r.data, f.data), name
    assert np.array_equal(flat_obj["frozen"].data, frozen)


@pytest.mark.parametrize("size", [1, TR.ADAM_BLOCK - 1, TR.ADAM_BLOCK, TR.ADAM_BLOCK + 1, "desk"])
def test_blocked_adam_matches_the_whole_vector_step(size):
    """Five blocked steps against `util.reference_adam_step`, on vectors
    around one block and on the desk model's: the parameters and both
    moments agree bit for bit, and the gradient vector ends zeroed."""
    def fresh():
        if size == "desk":
            return init_model(TrainConfig(), 40, np.random.default_rng(0))
        return {"x": Tensor(np.random.default_rng(4).normal(size=size), requires_grad=True)}

    blocked, whole = TR.Adam(fresh()), TR.Adam(fresh())
    start = blocked.params.copy()
    rng = np.random.default_rng(3)
    for step in range(5):
        g = rng.normal(0.0, 10.0 ** -step, blocked.params.size)
        g[1::7] = 0.0
        blocked.grad[:] = g
        whole.grad[:] = g
        lr = 1e-3 * (step + 1)
        blocked.step(lr)
        U.reference_adam_step(whole, lr)
        for got, want in ((blocked.params, whole.params), (blocked.m, whole.m), (blocked.v, whole.v)):
            assert np.array_equal(got, want)
        assert not blocked.grad.any()
    assert blocked.t == whole.t == 5 and not np.array_equal(blocked.params, start)


def desk_batch_loss(params, cfg, vocab, samples):
    """One desk batch's mean XE loss on the live tape, as `train_xe` builds it."""
    branches = TR.encode_batch(params, cfg, samples, vocab)
    inputs, targets = zip(*(TR.teacher_pair(vocab, s.gt_captions[0]) for s in samples))
    return T.mul(TR.xe_loss(caption_logits(params, cfg, branches, inputs), pad_ids(targets)), 1.0 / len(samples))


def test_desk_xe_step_memory_stays_at_the_forward_live_set():
    """tracemalloc, which sees NumPy's allocations, over one desk XE batch of
    8. Backward peaks within 5% of what the forward left live, because it
    frees each node once walked (keeping the whole graph plus its gradients
    peaked 1.76x). Clipping plus Adam allocate under 2 MB, because Adam runs
    in blocks (one full-length temporary of the 1.5 M-entry vector is 12 MB)."""
    cfg = TrainConfig()
    samples = generate_dataset(0, 8)
    vocab = build_vocab(corpus_texts(samples), cfg.min_count)
    params = init_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
    opt = TR.Adam(params)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with T.Tape() as tape:
            loss = desk_batch_loss(params, cfg, vocab, samples)
            forward = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            tape.backward(loss, opt.sinks)
            backward = tracemalloc.get_traced_memory()[1] - base
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        TR.clip_gradients(opt, cfg.grad_clip)
        opt.step(1e-3)
        update = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert forward > 20e6
    assert backward <= 1.05 * forward, (backward, forward)
    assert update < 2e6, update


def test_desk_xe_forward_keeps_only_what_backward_reads():
    """The tape holds gradient slots and the arrays each backward rule reads,
    not node outputs, so an activation no rule reads dies in the forward:
    one desk XE batch of 8, recorded as `train_xe` records it, leaves at
    most 24 MB live under tracemalloc (31.5 MB when the tape held every
    node's output)."""
    cfg = TrainConfig()
    samples = generate_dataset(0, 8)
    vocab = build_vocab(corpus_texts(samples), cfg.min_count)
    params = init_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with T.Tape():
            branches = TR.encode_batch(params, cfg, samples, vocab)
            inputs, targets = zip(*(TR.teacher_pair(vocab, s.gt_captions[0]) for s in samples))
            loss = TR.xe_loss(caption_logits(params, cfg, branches, inputs), pad_ids(targets))
            del branches
            forward = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert loss.requires_grad
    assert forward <= 24e6, forward


# ------------------------------------------------------------------- losses


def test_teacher_pair():
    v = build_vocab(["red circle", "red square"], min_count=1)
    inputs, targets = TR.teacher_pair(v, "red circle")
    assert inputs[0] == BOS_ID and targets[-1] == EOS_ID
    assert inputs[1:] == targets[:-1]


def test_xe_loss_uniform_is_log_vocab():
    logits = Tensor(np.zeros((3, 7)))
    loss = TR.xe_loss(logits, [4, 5, 6])
    assert abs(loss.item() - math.log(7)) < 1e-12


def test_xe_loss_ignores_pad_positions():
    rows = np.random.default_rng(0).normal(size=(4, 6))
    full = TR.xe_loss(Tensor(rows[:2]), [3, 4]).item()
    padded = TR.xe_loss(Tensor(rows), [3, 4, PAD_ID, PAD_ID]).item()
    assert abs(full - padded) < 1e-12
    with pytest.raises(ContractError):
        TR.xe_loss(Tensor(rows), [PAD_ID] * 4)
    with pytest.raises(ContractError):
        TR.xe_loss(Tensor(rows), [1, 2])


def test_sequence_logprob_matches_manual(rng):
    rows = rng.normal(size=(5, 8))
    ids = [2, 0, 7, 3, 3]
    got = TR.sequence_logprob(Tensor(rows), ids).item()
    lp = T.log_softmax(Tensor(rows)).data
    want = sum(lp[t, ids[t]] for t in range(5))
    assert abs(got - want) < 1e-12


def test_reinforce_zero_advantage_zero_gradient(rng):
    rows = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    with T.Tape() as tape:
        loss = TR.reinforce_loss(rows, [[1, 2, 0], [4, 3]], [0.0, 0.7])
        tape.backward(loss)
    assert abs(loss.item() + 0.7 * TR.sequence_logprob(Tensor(rows.data[1, :2]), [4, 3]).item()) < 1e-12
    assert np.array_equal(rows.grad[0], np.zeros((3, 5)))
    assert np.array_equal(rows.grad[1, 2], np.zeros(5))  # past the second caption's end
    assert np.abs(rows.grad[1, :2]).min() > 0.0


def test_scst_surrogate_gradient_with_frozen_sample():
    """Finite differences validate the policy-gradient surrogate end to end."""
    samples, cfg = tiny_setup(n=2)
    vocab = build_vocab(corpus_texts(samples), 1)
    params = init_model(cfg, len(vocab), np.random.default_rng(3))
    sampled = [5, 7, EOS_ID]
    advantage = 0.7

    def loss_fn(_):
        branch = encode_sample(params, cfg, samples[0], vocab)
        logits = caption_logits(params, cfg, [branch], [[BOS_ID] + sampled[:-1]])
        return TR.reinforce_loss(logits, [sampled], [advantage])

    target, part = U.stored_slice(params, "dec_layers.0.cross.vv.q.w")
    rel = U.grad_check(loss_fn, target, max_coords=6, rng=np.random.default_rng(0), part=part)
    assert rel < 1e-5


# ------------------------------------------------------------------ training


def test_train_xe_runs_and_is_deterministic():
    samples, cfg = tiny_setup()
    out1 = TR.train_xe(samples, cfg)
    out2 = TR.train_xe(samples, cfg)
    assert out1.curve == out2.curve
    assert [e for e, _ in out1.curve] == [1, 2]
    assert all(math.isfinite(v) for _, v in out1.curve)
    for (n1, t1), (n2, t2) in zip(named_parameters(out1.params), named_parameters(out2.params)):
        assert n1 == n2 and np.array_equal(t1.data, t2.data)
    assert out1.trained_steps == 2 * math.ceil(len(split_train_val(samples)[0]) / cfg.batch_size)
    assert out1.best_epoch >= 1
    assert out1.best_snapshot.shape == flat_parameters(out1.params).shape


def test_train_xe_without_epochs_returns_the_untouched_vector():
    samples, cfg = tiny_setup()
    vocab = build_vocab(corpus_texts(split_train_val(samples)[0]), cfg.min_count)
    params = init_model(cfg, len(vocab), np.random.default_rng(9))
    initial = flat_parameters(params).copy()
    out = TR.train_xe(samples, cfg, epochs=0, params=params, vocab=vocab)
    assert np.array_equal(out.best_snapshot, initial)
    assert not np.shares_memory(out.best_snapshot, flat_parameters(out.params))
    assert (out.curve, out.best_epoch, out.best_val, out.trained_steps) == ([], 0, -1.0, 0)


def test_last_validation_runs_with_the_optimizer_state_freed(monkeypatch):
    """Adam's grad, m and v are freed once the last step is taken: alive at
    an earlier validation, gone at the last one, whether the last epoch ends
    the run or stop_fn does."""
    samples, cfg = tiny_setup()
    state, seen = [], []
    adam_init, corpus_cider = TR.Adam.__init__, TR.corpus_cider

    def watched_init(self, params_obj):
        adam_init(self, params_obj)
        state[:] = [weakref.ref(a) for a in (self.grad, self.m, self.v)]

    def watched_cider(*args):
        seen.append([ref() is not None for ref in state])
        return corpus_cider(*args)

    monkeypatch.setattr(TR.Adam, "__init__", watched_init)
    monkeypatch.setattr(TR, "corpus_cider", watched_cider)
    TR.train_xe(samples, cfg.replaced(val_every=1), epochs=3)
    assert seen == [[True] * 3, [True] * 3, [False] * 3]
    seen.clear()
    TR.train_xe(samples, cfg.replaced(val_every=5), epochs=3, stop_fn=lambda epoch, _: epoch == 2)
    assert seen == [[False] * 3]


def test_train_xe_stop_fn_halts_early():
    samples, cfg = tiny_setup()
    out = TR.train_xe(samples, cfg, epochs=50, stop_fn=lambda epoch, loss: epoch >= 2)
    assert len(out.curve) == 2


def test_train_xe_loss_decreases_over_a_longer_run():
    samples, cfg = tiny_setup(n=4, xe_epochs=8, warmup_epochs=2)
    out = TR.train_xe(samples, cfg)
    assert out.curve[-1][1] < out.curve[0][1]


def test_degenerate_baseline_trains():
    # content-only fusion + plain self-attention + a single visual branch is
    # an ordinary region-transformer captioner and must still learn
    samples, cfg = tiny_setup(n=4, xe_epochs=8, warmup_epochs=2,
                              fusion_base="c", gesa_variant="con",
                              branches=("vv",))
    out = TR.train_xe(samples, cfg)
    assert all(np.isfinite(loss) for _, loss in out.curve)
    assert out.curve[-1][1] < out.curve[0][1]


def test_restore_snapshot_round_trip():
    samples, cfg = tiny_setup()
    out = TR.train_xe(samples, cfg, epochs=1)
    flat = flat_parameters(out.params)
    snap = flat.copy()
    flat += 1.0
    TR.restore_snapshot(out.params, snap)
    # written back in place: the tensors are still views into the same vector
    assert flat_parameters(out.params) is flat and np.array_equal(flat, snap)
    for t in parameters(out.params):
        t.data = t.data + 1.0
    TR.restore_snapshot(out.params, snap)
    assert np.array_equal(flat_parameters(out.params), snap)


def test_epoch_rng_streams_are_independent():
    a = TR._epoch_rng(7, 101, 3).permutation(10)
    b = TR._epoch_rng(7, 101, 3).permutation(10)
    c = TR._epoch_rng(7, 202, 3).permutation(10)
    d = TR._epoch_rng(7, 101, 4).permutation(10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c) or not np.array_equal(a, d)


def test_train_scst_runs_from_xe_model():
    samples, cfg = tiny_setup()
    xe = TR.train_xe(samples, cfg)
    out = TR.train_scst(samples, cfg, xe.params, xe.vocab, epochs=1, start_step=xe.trained_steps)
    assert len(out.curve) == 1
    assert math.isfinite(out.curve[0][1]) and out.curve[0][1] >= 0.0


def assert_same_outcome(got, want):
    assert np.array_equal(flat_parameters(got.params), flat_parameters(want.params))
    assert np.array_equal(got.best_snapshot, want.best_snapshot)
    assert got.curve == want.curve
    assert (got.best_epoch, got.best_val, got.trained_steps) == (want.best_epoch, want.best_val, want.trained_steps)


def test_shared_loop_matches_reference_xe():
    samples, cfg = tiny_setup(val_every=2)
    got = TR.train_xe(samples, cfg, epochs=2)
    want = U.reference_train_xe(samples, cfg, epochs=2)
    assert_same_outcome(got, want)
    assert got.diagnostics["clip_events"] == want.diagnostics["clip_events"]


def test_shared_loop_matches_reference_xe_with_stop_fn():
    # the stop at epoch 2 forces the validation that val_every=3 would skip
    samples, cfg = tiny_setup(val_every=3)
    logs = [[], []]
    got = TR.train_xe(samples, cfg, epochs=5, stop_fn=lambda e, loss: e >= 2, log=logs[0].append)
    want = U.reference_train_xe(samples, cfg, epochs=5, stop_fn=lambda e, loss: e >= 2, log=logs[1].append)
    assert_same_outcome(got, want)
    assert got.diagnostics["clip_events"] == want.diagnostics["clip_events"]
    assert got.best_epoch == 2 and logs[0] == logs[1] and len(logs[0]) == 2


def scst_pair(samples, cfg):
    """SCST through the shared loop, then through the reference loop, each from
    its own copy of one XE model: two (outcome, log lines, start step) runs."""
    runs = []
    for train in (TR.train_scst, U.reference_train_scst):
        xe = TR.train_xe(samples, cfg)
        lines = []
        out = train(samples, cfg, xe.params, xe.vocab, epochs=2, start_step=xe.trained_steps, log=lines.append)
        runs.append((out, lines, xe.trained_steps))
    return runs


def test_shared_loop_matches_reference_scst():
    samples, cfg = tiny_setup(n=8)
    (got, got_log, start), (want, want_log, _) = scst_pair(samples, cfg)
    assert_same_outcome(got, want)
    assert got_log == want_log
    assert got.trained_steps > start


def test_shared_loop_matches_reference_scst_without_advantage(monkeypatch):
    # sampled == greedy == an empty caption: zero reward, zero advantage, no step.
    # The reference's per-scene scst_rollouts call the same lockstep_decode; validation decodes as usual.
    decode = TR.lockstep_decode

    def empty_rollouts(params, cfg, batch, branches, rngs=()):
        if not rngs:
            return decode(params, cfg, batch, branches)
        return [[EOS_ID]] * len(rngs), [[EOS_ID]] * len(branches)

    monkeypatch.setattr(TR, "lockstep_decode", empty_rollouts)
    samples, cfg = tiny_setup(n=8)
    (got, _, start), (want, _, _) = scst_pair(samples, cfg)
    assert_same_outcome(got, want)
    assert got.trained_steps == start
    assert np.array_equal(got.best_snapshot, flat_parameters(got.params))
    assert got.diagnostics["warning"] == want.diagnostics["warning"]


def plant_inf_gradient(monkeypatch):
    clip = TR.clip_gradients

    def clip_after_inf(opt, max_norm):
        opt.grad[0] = np.inf
        return clip(opt, max_norm)

    monkeypatch.setattr(TR, "clip_gradients", clip_after_inf)


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")  # 0 * inf in the clip
def test_non_finite_gradient_norm_stops_xe_before_the_step(monkeypatch):
    samples, cfg = tiny_setup()
    vocab = build_vocab(corpus_texts(split_train_val(samples)[0]), cfg.min_count)
    params = init_model(cfg, len(vocab), np.random.default_rng(3))
    before = flat_parameters(params).copy()
    plant_inf_gradient(monkeypatch)
    with pytest.raises(TrainingDiverged, match="XE gradient norm became inf at epoch 1"):
        TR.train_xe(samples, cfg, params=params, vocab=vocab)
    assert np.array_equal(flat_parameters(params), before)


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")  # 0 * inf in the clip
def test_non_finite_gradient_norm_stops_scst_before_the_step(monkeypatch):
    samples, cfg = tiny_setup(n=8)
    xe = TR.train_xe(samples, cfg)
    before = flat_parameters(xe.params).copy()
    plant_inf_gradient(monkeypatch)
    with pytest.raises(TrainingDiverged, match="SCST gradient norm became inf at epoch 1"):
        TR.train_scst(samples, cfg, xe.params, xe.vocab, epochs=1)
    assert np.array_equal(flat_parameters(xe.params), before)


def test_scst_on_a_non_finite_policy_diverges():
    samples, cfg = tiny_setup()
    xe = TR.train_xe(samples, cfg, epochs=1)
    xe.params.out.w.data[0, 0] = np.nan
    with pytest.raises(TrainingDiverged, match="SCST policy log-probs became non-finite"):
        TR.train_scst(samples, cfg, xe.params, xe.vocab, epochs=1)


def test_scst_rollouts_terminate():
    samples, cfg = tiny_setup(n=2)
    vocab = build_vocab(corpus_texts(samples), 1)
    params = init_model(cfg, len(vocab), np.random.default_rng(1))
    sampled, greedy_ids = TR.scst_rollouts(params, cfg, vocab, samples[0], np.random.default_rng(9))
    for ids in (sampled, greedy_ids):
        assert 1 <= len(ids) <= cfg.max_len
        assert ids[-1] == EOS_ID or len(ids) == cfg.max_len


def test_scst_rollouts_equal_two_separate_decodes():
    samples, cfg = tiny_setup(n=4)
    vocab = build_vocab(corpus_texts(samples), 1)
    # at this init the greedy caption ends first on some scenes, the sampled one on others
    params = init_model(cfg, len(vocab), np.random.default_rng(7))
    for seed, s in enumerate(samples):
        sampled, greedy_ids = TR.scst_rollouts(params, cfg, vocab, s, np.random.default_rng(seed))
        branch = encode_sample(params, cfg, s, vocab)
        want_greedy, _ = greedy_decode(make_step_fn(params, cfg, branch), max_len=cfg.max_len)
        rng, step, ids = np.random.default_rng(seed), make_step_fn(params, cfg, branch), [BOS_ID]
        while len(ids) <= cfg.max_len and ids[-1] != EOS_ID:
            lp = step([ids])[0]
            ids.append(int(rng.choice(len(lp), p=np.exp(lp))))
        assert greedy_ids == want_greedy
        assert sampled == ids[1:]


def desk_rollout_setup(n=8):
    """Desk-config model at init and n desk scenes, each encoded tapeless."""
    cfg = TrainConfig()
    samples = generate_dataset(0, n)
    vocab = build_vocab(corpus_texts(samples), cfg.min_count)
    params = init_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
    with T.no_grad():
        branches = [encode_sample(params, cfg, s, vocab) for s in samples]
    return cfg, samples, vocab, params, branches


def test_batched_rollouts_equal_per_scene_rollouts():
    cfg, samples, vocab, params, branches = desk_rollout_setup()

    def streams(order):
        return [TR._epoch_rng(cfg.seed, 303, 1, i) for i in order]

    sampled, greedy_ids = TR.lockstep_decode(params, cfg, samples, branches, streams(range(8)))
    for i, s in enumerate(samples):
        assert TR.scst_rollouts(params, cfg, vocab, s, streams([i])[0]) == (sampled[i], greedy_ids[i])
    # rows leave the step at different lengths
    assert len({len(ids) for ids in sampled + greedy_ids}) > 2
    # neither the batch's composition nor its order moves a rollout
    back = list(range(7, 2, -1))
    got = TR.lockstep_decode(params, cfg, [samples[i] for i in back], [branches[i] for i in back], streams(back))
    assert got == ([sampled[i] for i in back], [greedy_ids[i] for i in back])


def test_lockstep_greedy_captions_equal_per_scene_greedy():
    cfg, samples, vocab, params, _ = desk_rollout_setup(n=7)
    want = [TR.greedy_caption(params, cfg, vocab, s)[0] for s in samples]
    assert TR.greedy_captions(params, cfg, vocab, samples) == want


def test_batched_rollouts_name_the_sample_with_non_finite_log_probs(monkeypatch):
    cfg, samples, vocab, params, branches = desk_rollout_setup(n=3)

    class PoisonedDecoder(TR.CachedDecoder):
        def __call__(self, rows):
            lp = super().__call__(rows)
            lp[[scene == 1 for scene, _ in rows], 0] = np.nan
            return lp

    monkeypatch.setattr(TR, "CachedDecoder", PoisonedDecoder)
    rngs = [np.random.default_rng(i) for i in range(3)]
    with pytest.raises(TrainingDiverged, match=f"non-finite on sample {samples[1].id}$"):
        TR.lockstep_decode(params, cfg, samples, branches, rngs)
    # nothing was drawn
    assert [r.bit_generator.state for r in rngs] == [np.random.default_rng(i).bit_generator.state for i in range(3)]
    # greedy-only decoding draws nothing and, like greedy_decode, checks nothing
    assert len(TR.lockstep_decode(params, cfg, samples, branches)[1]) == 3


def test_model_step_matches_caption_logits_last_row():
    samples, cfg = tiny_setup(n=2)
    vocab = build_vocab(corpus_texts(samples), 1)
    params = init_model(cfg, len(vocab), np.random.default_rng(3))
    branch = encode_sample(params, cfg, samples[0], vocab)
    step = make_step_fn(params, cfg, branch)
    ids = [BOS_ID] + vocab.encode(samples[0].gt_captions[0])
    for k in range(1, len(ids) + 1):
        want = T.log_softmax(caption_logits(params, cfg, branch, ids[:k])).data[-1]
        assert U.max_abs_delta(step([ids[:k]])[0], want) <= 1e-12


def test_beam_one_equals_greedy_bit_for_bit_through_the_model():
    samples, cfg = tiny_setup(n=6)
    vocab = build_vocab(corpus_texts(samples), 1)
    params = init_model(cfg, len(vocab), np.random.default_rng(2))
    for s in samples:
        assert TR.beam_caption(params, cfg, vocab, s, beam=1) == TR.greedy_caption(params, cfg, vocab, s)


def test_beam_caption_rejects_beam_zero():
    samples, cfg = tiny_setup(n=2)
    vocab = build_vocab(corpus_texts(samples), 1)
    params = init_model(cfg, len(vocab), np.random.default_rng(1))
    with pytest.raises(ConfigError, match="beam width must be >= 1, got 0"):
        TR.beam_caption(params, cfg, vocab, samples[0], beam=0)


def test_desk_xe_tape_node_counts():
    """Pins the taped path at desk defaults: the batched XE loss of 8 scenes,
    as training runs it (`encode_batch`), records 400 nodes (1923 with each
    sample's fusion and GESA run on its own). 282 encode the batch in one
    padded pass: the region projection and each side's geometry embedding
    over every row of the batch, the caption encoder's one pass and one
    gather of its rows per scene, the two fusion stacks at [B x N x d], and
    each GESA group (ss+sv, vs+vv) on one branch axis over the padded batch:
    per layer one pass over its content, with the group's stored [k x ...]
    weights, a masked token mean for the gates and one `mix_maps` node; per
    geometry kind one pass over all its (branch, layer) pairs, with the
    stored [L*k x ...] projections, sliced per layer. Then 32 `index` nodes
    hand each sample its real rows per branch, and 86 run the decoder and the
    loss, each decoder layer's cross-attention recording the key and value
    projections and 10 nodes on the branch axis. One scene's call, run at
    [N x d] with no padding, records 355. Weights reach their nodes as
    stored: no `T.stack` node (the one op whose backward is `tuple`),
    `index` or `reshape` node takes a parameter; the 6 stacks left stack
    each group's contents and its repeated geometry inputs. A node holds its
    inputs' slots, so a slot's owner is found by slot identity, and the
    affine nodes show that check can see weights."""
    cfg = TrainConfig()
    samples = generate_dataset(0, 8)
    vocab = build_vocab(corpus_texts(samples), cfg.min_count)
    params = init_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
    owner = {t.slot: name for name, t in named_parameters(params)}
    with T.Tape() as tape:
        branches = TR.encode_batch(params, cfg, samples, vocab)
        inputs, targets = zip(*(TR.teacher_pair(vocab, s.gt_captions[0]) for s in samples))
        TR.xe_loss(caption_logits(params, cfg, branches, inputs), pad_ids(targets))
    assert len(tape.nodes) == 400

    def weights_taken(op):
        return {owner[s] for _, node_inputs, bwd in tape.nodes if op(bwd) for s in node_inputs if s in owner}

    stacks = [node_inputs for _, node_inputs, bwd in tape.nodes if bwd is tuple]
    assert len(stacks) == 6 and not weights_taken(lambda bwd: bwd is tuple)
    assert not weights_taken(lambda bwd: bwd.__qualname__.split(".")[0] in ("index", "reshape"))
    assert "out.w" in weights_taken(lambda bwd: bwd.__qualname__.split(".")[0] == "affine")
    for s in samples[:3]:
        with T.Tape() as tape:
            branch = encode_sample(params, cfg, s, vocab)
            inputs, targets = TR.teacher_pair(vocab, s.gt_captions[0])
            TR.xe_loss(caption_logits(params, cfg, branch, inputs), targets)
        assert len(tape.nodes) == 355


def test_desk_decode_step_op_count():
    """Pins a one-row decode step of one desk scene at 88 engine ops, the
    first step and a later one alike: per decoder layer 9 ops of self
    attention, 10 of the branch-axis cross-attention, 9 for the norms, the
    FFN and the residual adds, plus the embedding, the positions, the output
    projection and the log softmax (151 with one cross-attention per branch)."""
    cfg = TrainConfig()
    samples = generate_dataset(0, 2)
    vocab = build_vocab(corpus_texts(samples), cfg.min_count)
    params = init_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
    with T.no_grad():
        step = make_step_fn(params, cfg, encode_sample(params, cfg, samples[0], vocab))
    for prefix in ([BOS_ID], [BOS_ID, 5], [BOS_ID, 5, 6]):
        _, ops = U.engine_ops(step, [prefix])
        assert ops == 88


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_bit_identical(tmp_path):
    samples, cfg = tiny_setup()
    out = TR.train_xe(samples, cfg, epochs=1)
    path = tmp_path / "m.ckpt"
    TR.save_checkpoint(path, cfg, out.vocab, out.params, trained_steps=out.trained_steps)
    cfg2, vocab2, params2, steps = TR.load_checkpoint(path)
    assert cfg2 == cfg
    assert vocab2.id_to_token == out.vocab.id_to_token
    assert steps == out.trained_steps
    for (n1, t1), (n2, t2) in zip(named_parameters(out.params), named_parameters(params2)):
        assert n1 == n2 and np.array_equal(t1.data, t2.data)
    # saving again is byte-identical
    path2 = tmp_path / "m2.ckpt"
    TR.save_checkpoint(path2, cfg2, vocab2, params2, trained_steps=steps)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_saves_snapshot_values(tmp_path):
    samples, cfg = tiny_setup()
    out = TR.train_xe(samples, cfg, epochs=1)
    snap = flat_parameters(out.params) + 3.0
    TR.restore_snapshot(out.params, snap)
    path = tmp_path / "s.ckpt"
    TR.save_checkpoint(path, cfg, out.vocab, out.params)
    _, _, params2, _ = TR.load_checkpoint(path)
    assert np.array_equal(flat_parameters(params2), snap)


def test_checkpoint_matches_per_tensor_v2_writer(tmp_path):
    samples, cfg = tiny_setup(n=2)
    vocab = build_vocab(corpus_texts(samples), 1)
    params = init_model(cfg, len(vocab), np.random.default_rng(4))
    expected = O.checkpoint_v2_bytes(cfg.to_dict(), vocab.id_to_token,
                                     [(n, t.data) for n, t in named_parameters(params)], 7)
    path = tmp_path / "v2.ckpt"
    TR.save_checkpoint(path, cfg, vocab, params, trained_steps=7)
    assert path.read_bytes() == expected
    path.write_bytes(expected)
    cfg2, vocab2, params2, steps = TR.load_checkpoint(path)
    assert (cfg2, vocab2.id_to_token, steps) == (cfg, vocab.id_to_token, 7)
    for (n1, t1), (n2, t2) in zip(named_parameters(params), named_parameters(params2)):
        assert n1 == n2 and t1.data.tobytes() == t2.data.tobytes()


def test_a_v1_checkpoint_fails_naming_its_format(tmp_path):
    """A file in the per-branch v1 layout, as that format wrote it, is
    refused before its manifest is read."""
    samples, cfg = tiny_setup(n=2)
    vocab = build_vocab(corpus_texts(samples), 1)
    params = init_model(cfg, len(vocab), np.random.default_rng(4))
    v1 = [(n, t.data) for n, t in named_parameters(U.per_branch(params))]
    path = tmp_path / "v1.ckpt"
    path.write_bytes(O.checkpoint_v2_bytes(cfg.to_dict(), vocab.id_to_token, v1, 7, fmt="gevst-checkpoint-v1"))
    with pytest.raises(SchemaError, match="'gevst-checkpoint-v1'"):
        TR.load_checkpoint(path)


def test_load_checkpoint_draws_nothing(tmp_path, monkeypatch):
    """The file sets every parameter, so loading builds the model from no
    random generator and gives the same bytes; a header naming a larger
    model than its body fails the manifest check, also without drawing."""
    samples, cfg = tiny_setup(n=2)
    out = TR.train_xe(samples, cfg, epochs=1)
    path = tmp_path / "m.ckpt"
    TR.save_checkpoint(path, cfg, out.vocab, out.params)

    def draw(*args, **kwargs):
        raise AssertionError("load_checkpoint drew from a random generator")

    class NoDraws:
        uniform = normal = staticmethod(draw)

    monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: NoDraws())
    got = flat_parameters(TR.load_checkpoint(path)[2])
    assert got.tobytes() == flat_parameters(out.params).tobytes()
    header_line, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(header_line)
    header["config"]["d_model"] *= 2
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    with pytest.raises(SchemaError, match="checkpoint shape"):
        TR.load_checkpoint(path)


def checkpoint_bytes(tmp_path):
    samples, cfg = tiny_setup(n=2)
    out = TR.train_xe(samples, cfg, epochs=0)
    path = tmp_path / "c.ckpt"
    TR.save_checkpoint(path, cfg, out.vocab, out.params)
    return path, path.read_bytes()


def test_checkpoint_error_taxonomy(tmp_path):
    path, raw = checkpoint_bytes(tmp_path)
    header_line, _, blob = raw.partition(b"\n")
    header = json.loads(header_line)

    def rewrite(h, body=blob):
        path.write_bytes(json.dumps(h, separators=(",", ":")).encode() + b"\n" + body)
        return TR.load_checkpoint(path)

    path.write_bytes(b"\x00\xffgarbage")
    with pytest.raises(ParseError):
        TR.load_checkpoint(path)

    bad = dict(header)
    bad["format"] = "other"
    with pytest.raises(SchemaError, match="format"):
        rewrite(bad)

    bad = dict(header)
    del bad["vocab"]
    with pytest.raises(SchemaError, match="missing field"):
        rewrite(bad)

    bad = json.loads(header_line)
    bad["params"][0]["name"] = "nonexistent.param"
    with pytest.raises(SchemaError, match="unknown parameter"):
        rewrite(bad)

    bad = json.loads(header_line)
    bad["params"][0]["shape"] = [1, 1]
    with pytest.raises(SchemaError, match="shape"):
        rewrite(bad)

    bad = json.loads(header_line)
    dropped = bad["params"].pop()
    with pytest.raises(SchemaError, match="missing parameters"):
        rewrite(bad)

    with pytest.raises(ParseError, match="truncated"):
        rewrite(json.loads(header_line), body=blob[: len(blob) // 2])

    with pytest.raises(ParseError, match="trailing bytes"):
        rewrite(json.loads(header_line), body=blob + b"\0" * 8)

    bad = json.loads(header_line)
    bad["data_bytes"] += 8
    with pytest.raises(SchemaError, match="data_bytes"):
        rewrite(bad, body=blob + b"\0" * 8)

    bad = json.loads(header_line)
    bad["params"][1]["offset"] = bad["params"][0]["offset"]
    with pytest.raises(SchemaError, match="offsets"):
        rewrite(bad)

    nan_blob = bytearray(blob)
    nan_blob[8:16] = np.array([np.nan], dtype="<f8").tobytes()
    with pytest.raises(ParseError, match="non-finite"):
        rewrite(json.loads(header_line), body=bytes(nan_blob))

    for steps in ("abc", None, -4, 2.7, True):
        with pytest.raises(SchemaError, match="trained_steps"):
            rewrite(dict(header, trained_steps=steps))

    vocab = header["vocab"]
    for tokens in (vocab[1:], ["unk" if t == "<unk>" else t for t in vocab], vocab + [vocab[-1]],
                   vocab[:-1] + [7], [vocab[1], vocab[0]] + vocab[2:]):
        with pytest.raises(SchemaError, match="vocab must be distinct strings"):
            rewrite(dict(header, vocab=tokens))

    # a header from before the gate and fusion-map variants were retired names
    # both keys; each loads only at the one value the model still computes
    retired = dict(header, config=dict(header["config"], renorm_fused_attention=False, gate_mode="sigmoid"))
    sample = generate_dataset(5, 1)[0]
    loaded = []
    for h in (header, retired):
        cfg, vocab, params, _ = rewrite(h)
        ids = [BOS_ID] + vocab.encode(sample.gt_captions[0])
        loaded.append((cfg, caption_logits(params, cfg, encode_sample(params, cfg, sample, vocab), ids).data))
    assert loaded[0][0] == loaded[1][0] == config_from_dict(header["config"])
    assert np.array_equal(loaded[0][1], loaded[1][1])
    for key, value in (("gate_mode", "softmax"), ("gate_mode", "Sigmoid"), ("gate_mode", True),
                       ("gate_mode", None), ("renorm_fused_attention", True),
                       ("renorm_fused_attention", 0), ("renorm_fused_attention", "no"),
                       ("renorm_fused_attention", "false"), ("renorm_fused_attention", None)):
        with pytest.raises(ConfigError, match=f"'{key}' is retired"):
            rewrite(dict(header, config=dict(header["config"], **{key: value})))

    # the unmodified header and body still load; a missing step count reads 0
    rewrite(json.loads(header_line))
    assert rewrite(dict(header, trained_steps=7))[3] == 7
    assert rewrite({k: v for k, v in header.items() if k != "trained_steps"})[3] == 0


def test_write_curve_round_trips_floats(tmp_path):
    rows = [(1, 0.1 + 0.2), (2, 1e-17), (3, 2.0)]
    path = tmp_path / "curve.csv"
    TR.write_curve(path, rows, value_name="loss")
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,loss"
    for (epoch, value), line in zip(rows, lines[1:]):
        e, v = line.split(",")
        assert int(e) == epoch and float(v) == value
