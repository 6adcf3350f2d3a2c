"""Acceptance suite: ten numbered checks over the full system.

Each check prints exactly one terminal line — "CRITERION k: PASS - detail" —
as it completes, in addition to the usual pytest verdicts. The slow entries
(7: desk-scale convergence, 8: self-critical phase, 9: variant sweep on 500
samples) share work through module-scoped fixtures; the whole suite targets
a single CPU core.
"""

import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles as O
import util as U
from gevst import ablation, cli, metrics
from gevst import tensor as T
from gevst import training as TR
from gevst.config import TrainConfig
from gevst.data import (BOS_ID, EOS_ID, PAD_ID, DenseCaption, Region, Sample,
                        build_vocab, corpus_texts, generate_dataset,
                        split_train_val)
from gevst.decoder import beam_search
from gevst.fusion import fusion_cell, stack_fusion
from gevst.geometry import BoundingBox
from gevst.model import caption_logits, encode_sample, init_model
from gevst.nn import Tensor
from util import init_decoder_layer, init_embedding, init_fusion_cell, init_gesa_group, init_linear

pytestmark = pytest.mark.filterwarnings(
    "ignore:CIDEr-D over a single-document corpus")


@pytest.fixture(scope="module")
def announce(pytestconfig):
    cap = pytestconfig.pluginmanager.getplugin("capturemanager")

    def _print(line):
        if cap is None:
            print(line, flush=True)
        else:
            with cap.global_and_fixture_disabled():
                sys.stdout.write(line + "\n")
                sys.stdout.flush()

    return _print


def verdict(announce, num, ok, detail):
    announce(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# --------------------------------------------------------------- criterion 1


def miniature_instance():
    """Hand-built scene matching the miniature geometry: 3 regions, 2 dense
    captions, 4 teacher-forcing targets."""
    rng = np.random.default_rng(42)
    boxes = [BoundingBox(5, 5, 30, 30), BoundingBox(40, 10, 70, 45),
             BoundingBox(20, 60, 55, 90)]
    regions = [Region(rng.normal(size=8), b) for b in boxes]
    dense = [DenseCaption("a red circle", boxes[0]),
             DenseCaption("circle left of square", BoundingBox(5, 5, 70, 45))]
    sample = Sample("g0", regions, (100.0, 100.0), dense,
                    ["red circle here", "the red circle here"])
    cfg = U.miniature_config()
    vocab = build_vocab(corpus_texts([sample]), min_count=1)
    return sample, cfg, vocab


def test_criterion_1_full_model_gradients(announce):
    sample, cfg, vocab = miniature_instance()
    params = init_model(cfg, len(vocab), np.random.default_rng(1))
    inputs, targets = TR.teacher_pair(vocab, sample.gt_captions[0])
    assert len(targets) == 4  # T = 4

    def loss_fn(_):
        branch = encode_sample(params, cfg, sample, vocab)
        return TR.xe_loss(caption_logits(params, cfg, branch, inputs), targets)

    t0 = time.time()
    worst, worst_name, n_tensors = 0.0, "", 0
    # each tensor of the per-branch layout: one branch's slice of a stored one
    for i, name in enumerate(U.name_map(params)):
        tensor, part = U.stored_slice(params, name)
        # eps=1e-6 keeps truncation negligible; floor=1e-5 makes near-zero
        # gradients (inert key biases, weakly-coupled inter projections at
        # init) an absolute comparison instead of a noise ratio
        rel = U.grad_check(loss_fn, tensor, eps=1e-6, max_coords=2,
                           rng=np.random.default_rng(1000 + i), floor=1e-5, part=part)
        n_tensors += 1
        if rel > worst:
            worst, worst_name = rel, name
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    verdict(announce, 1, ok,
            f"XE grad check on d=16/h=2/L=2/m=1/Er=2/Nv=3/Ns=2/T=4: "
            f"{n_tensors} tensors, worst rel err {worst:.2e} ({worst_name}), "
            f"{elapsed:.1f}s (limits 1e-4, 60s)")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_fusion_invariants(announce):
    rng = np.random.default_rng(2)
    worst_row = worst_sum = 0.0
    hull_ok = True
    for _ in range(100):
        n, m, d = int(rng.integers(1, 6)), int(rng.integers(1, 6)), 6
        er = int(rng.integers(1, 4))
        cell = init_fusion_cell(rng, d, er)
        U.randomize(cell, rng)
        cq, gq = Tensor(rng.normal(size=(n, d))), Tensor(rng.normal(size=(n, d)))
        ck, gk = Tensor(rng.normal(size=(m, d))), Tensor(rng.normal(size=(m, d)))
        _, a_con, a_geo = fusion_cell(cell, er, cq, gq, ck, gk)
        inter = stack_fusion([cell], er, cq, gq, ck, gk).inter_geometry
        for a in (a_con, a_geo):
            worst_row = max(worst_row, float(np.abs(a.data.sum(axis=1) - 1.0).max()))
        summed = a_con.data + a_geo.data
        worst_sum = max(worst_sum, float(np.abs(summed.sum(axis=1) - 2.0).max()))
        lo = gk.data.min(axis=0) - 1e-12
        hi = gk.data.max(axis=0) + 1e-12
        hull_ok = hull_ok and bool((inter.data >= lo).all() and (inter.data <= hi).all())
    ok = worst_row < 1e-9 and worst_sum < 1e-9 and hull_ok
    verdict(announce, 2, ok,
            f"100 instances: attention row-sum dev {worst_row:.1e}, summed-map "
            f"dev from 2 {worst_sum:.1e} (tol 1e-9), convex hull "
            f"{'held' if hull_ok else 'VIOLATED'}")


# --------------------------------------------------------------- criterion 3


def test_criterion_3_gesa_invariants(announce):
    rng = np.random.default_rng(3)
    worst_gate = worst_row = 0.0
    containment_ok = True
    for _ in range(20):
        d, h, n = 8, 2, int(rng.integers(2, 6))
        group = init_gesa_group(rng, d, h, "con_intra_inter", 1, 1)
        lp = U.per_branch(group)[0][0]
        U.randomize(lp, rng)
        x = Tensor(rng.normal(size=(n, d)))
        gi = Tensor(rng.normal(size=(n, d)))
        ge = Tensor(rng.normal(size=(n, d)))

        ref = O.gesa_layer_oracle(O.mat(x.data), O.mat(gi.data), O.mat(ge.data),
                                  U.gesa_oracle_params(lp), h)
        gates = np.array(ref["gates"])
        assert gates.shape == (3,) and (gates >= 0.0).all()
        worst_gate = max(worst_gate, abs(float(gates.sum()) - 1.0))
        for head_map in ref["combined"]:
            for row in head_map:
                worst_row = max(worst_row, abs(math.fsum(row) - 1.0))

        # exact containment: forcing the extra gates to zero reproduces the
        # poorer variants bit for bit
        for keep in (1, 2):
            saved_w, saved_b = lp.gate.w.data.copy(), lp.gate.b.data.copy()
            lp.gate.w.data[:, keep:] = 0.0
            lp.gate.b.data[keep:] = -1e9
            rich = U.gesa_layer(x, gi, ge, group, h).data

            poor_group = init_gesa_group(np.random.default_rng(0), d, h,
                                         ("con", "con_intra")[keep - 1], 1, 1)
            poor = U.per_branch(poor_group)[0][0]
            shared = ("q_c", "k_c", "v_c", "ln1", "ffn", "ln2") + (("q_intra", "k_intra") if keep == 2 else ())
            U.copy_values([getattr(poor, f) for f in shared], [getattr(lp, f) for f in shared])
            poor.gate.w.data[...] = lp.gate.w.data[:, :keep]
            poor.gate.b.data[...] = lp.gate.b.data[:keep]
            containment_ok = containment_ok and bool(
                np.array_equal(rich, U.gesa_layer(x, gi, ge, poor_group, h).data))
            lp.gate.w.data[...], lp.gate.b.data[...] = saved_w, saved_b

    ok = worst_gate < 1e-12 and worst_row < 1e-9 and containment_ok
    verdict(announce, 3, ok,
            f"20 instances: gate-sum dev {worst_gate:.1e}, combined-map "
            f"row-sum dev {worst_row:.1e} (tol 1e-9), variant containment "
            f"{'exact' if containment_ok else 'BROKEN'}")


# --------------------------------------------------------------- criterion 4


def test_criterion_4_scalar_oracles(announce):
    rng = np.random.default_rng(4)
    worst = {"fusion": 0.0, "gesa": 0.0, "decoder": 0.0}

    for _ in range(20):
        n, m, d, er = int(rng.integers(1, 5)), int(rng.integers(1, 5)), 4, 2
        cell = init_fusion_cell(rng, d, er)
        U.randomize(cell, rng)
        cq, gq = Tensor(rng.normal(size=(n, d))), Tensor(rng.normal(size=(n, d)))
        ck, gk = Tensor(rng.normal(size=(m, d))), Tensor(rng.normal(size=(m, d)))
        up, a_con, a_geo = fusion_cell(cell, er, cq, gq, ck, gk)
        inter = stack_fusion([cell], er, cq, gq, ck, gk).inter_geometry
        ref = O.fusion_cell_oracle(O.mat(cq.data), O.mat(gq.data), O.mat(ck.data),
                                   O.mat(gk.data), U.fusion_oracle_params(cell), er)
        worst["fusion"] = max(worst["fusion"],
                              U.max_abs_delta(up.data, ref["updated"]),
                              U.max_abs_delta(a_con.data, ref["content_map"]),
                              U.max_abs_delta(a_geo.data, ref["geometry_map"]),
                              U.max_abs_delta(inter.data, ref["inter"]))

    for _ in range(20):
        d, h, n = 8, 2, int(rng.integers(2, 6))
        group = init_gesa_group(rng, d, h, "con_intra_inter", 1, 1)
        lp = U.per_branch(group)[0][0]
        U.randomize(lp, rng)
        x, gi, ge = (Tensor(rng.normal(size=(n, d))) for _ in range(3))
        got = U.gesa_layer(x, gi, ge, group, h)
        ref = O.gesa_layer_oracle(O.mat(x.data), O.mat(gi.data), O.mat(ge.data),
                                  U.gesa_oracle_params(lp), h)
        worst["gesa"] = max(worst["gesa"], U.max_abs_delta(got.data, ref["out"]))

    for _ in range(20):
        d, h, vocab_n = 8, 2, 7
        branches = ("ss", "sv", "vs", "vv")
        layers = [init_decoder_layer(rng, d, branches) for _ in range(2)]
        for lp in layers:
            U.randomize(lp, rng)
        embed = init_embedding(rng, vocab_n, d)
        out_proj = init_linear(rng, d, vocab_n)
        outs = {b: Tensor(rng.normal(size=(3, d))) for b in branches}
        ids = [BOS_ID] + [int(t) for t in rng.integers(3, vocab_n, 3)]
        got = U.decoder_forward(layers, h, outs, embed, out_proj, ids).data
        ref = O.decoder_forward_oracle(
            ids, {b: O.mat(t.data) for b, t in outs.items()},
            U.decoder_oracle_layers(layers, branches), O.mat(embed.data),
            (O.mat(out_proj.w.data), O.vec(out_proj.b.data)), h)
        worst["decoder"] = max(worst["decoder"], U.max_abs_delta(got, ref))

    ok = all(v < 1e-12 for v in worst.values())
    verdict(announce, 4, ok,
            "20 instances per group, worst |delta|: fusion "
            f"{worst['fusion']:.1e}, attention-variant layer {worst['gesa']:.1e}, "
            f"decoder {worst['decoder']:.1e} (tol 1e-12)")


# --------------------------------------------------------------- criterion 5


def rigged_step(seed, vocab, peak=6.0, eos_by=None):
    def step(prefix_ids):
        r = np.random.default_rng(np.random.SeedSequence([seed, *prefix_ids]))
        logits = 0.3 * r.normal(size=vocab)
        if eos_by is not None and len(prefix_ids) - 1 >= eos_by:
            logits[EOS_ID] += peak
        else:
            logits[r.integers(0, vocab)] += peak
        return logits - np.log(np.exp(logits).sum())

    return step


def test_criterion_5_decoder_contracts(announce):
    rng = np.random.default_rng(5)
    # exhaustive causality at T=5: change every later position to every token
    vocab_n = 6
    branches = ("ss", "vv")
    layers = [init_decoder_layer(rng, 8, branches) for _ in range(2)]
    for lp in layers:
        U.randomize(lp, rng)
    embed = init_embedding(rng, vocab_n, 8)
    out_proj = init_linear(rng, 8, vocab_n)
    outs = {b: Tensor(rng.normal(size=(3, 8))) for b in branches}  # one scene, padded by the reference
    ids = [BOS_ID, 4, 5, 3, 4]
    base = U.decoder_forward(layers, 2, outs, embed, out_proj, ids).data
    causal_ok = True
    for k in range(1, 5):
        for v in range(vocab_n):
            changed = list(ids)
            changed[k] = v
            got = U.decoder_forward(layers, 2, outs, embed, out_proj, changed).data
            causal_ok = causal_ok and bool(np.array_equal(base[:k], got[:k]))

    beam1_ok = True
    for seed in range(50):
        step = rigged_step(seed, vocab=5, peak=3.0)
        g_ids, g_total = U.argmax_decode(U.batched(step), max_len=8)
        b_ids, b_cum, _ = beam_search(U.batched(step), beam=1, max_len=8)
        beam1_ok = beam1_ok and b_ids == g_ids and b_cum == g_total

    beam2_ok = True
    for seed in range(20):
        step = rigged_step(seed, vocab=3, eos_by=3)
        want = O.enumerate_best(step, 3, EOS_ID, max_len=5)
        got = beam_search(U.batched(step), beam=2, max_len=5)
        beam2_ok = beam2_ok and list(got[0]) == want[0] and abs(got[2] - want[2]) < 1e-12

    ok = causal_ok and beam1_ok and beam2_ok
    verdict(announce, 5, ok,
            f"causality exhaustive at T=5 {'held' if causal_ok else 'VIOLATED'}; "
            f"beam=1 == greedy on 50 decodes {'held' if beam1_ok else 'VIOLATED'}; "
            f"beam=2 == exhaustive enumeration on 20 rigged 3-token tables "
            f"{'held' if beam2_ok else 'VIOLATED'}")


# --------------------------------------------------------------- criterion 6


def test_criterion_6_metric_oracles(announce):
    rng = np.random.default_rng(6)
    words = ["a", "red", "circle", "sits", "left", "of", "the", "blue",
             "square", "triangle", "above", "green"]
    worst = 0.0
    for _ in range(20):
        cands, refss = [], []
        for _ in range(5):
            cands.append([words[i] for i in rng.integers(0, len(words), rng.integers(3, 9))])
            refss.append([[words[i] for i in rng.integers(0, len(words), rng.integers(3, 9))]
                          for _ in range(2)])
        got_b = metrics.bleu(cands, refss)
        want_b = O.bleu_oracle(cands, refss)
        worst = max(worst, max(abs(g - w) for g, w in zip(got_b, want_b)))
        worst = max(worst, abs(metrics.rouge_l(cands, refss)[0] - O.rouge_l_oracle(cands, refss)))
        got_c, _ = metrics.cider_d(cands, refss)
        want_c, _ = O.cider_d_oracle(cands, refss)
        worst = max(worst, abs(got_c - want_c))

    sents = [["a", "red", "circle", "sits"],
             ["the", "blue", "square", "rests", "here"],
             ["one", "green", "triangle", "floats"]]
    refs = [[list(s)] for s in sents]
    identity_ok = (metrics.bleu(sents, refs) == [1.0, 1.0, 1.0, 1.0]
                   and metrics.rouge_l(sents, refs)[0] == 1.0
                   and metrics.cider_d(sents, refs)[0] == 10.0)

    ok = worst < 1e-9 and identity_ok
    verdict(announce, 6, ok,
            f"20 random cases per metric, worst |delta| {worst:.1e} (tol 1e-9); "
            f"identity case BLEU=1.0 / ROUGE-L=1.0 / CIDEr-D=10.0 "
            f"{'exact' if identity_ok else 'NOT EXACT'}")


# ----------------------------------------------------------- criteria 7 & 8


def token_accuracy(params, cfg, vocab, samples):
    """Teacher-forcing accuracy on the first gt caption, plus mean XE loss."""
    hits = total = 0
    loss_sum = 0.0
    with T.no_grad():
        for s in samples:
            branch = encode_sample(params, cfg, s, vocab)
            inputs, targets = TR.teacher_pair(vocab, s.gt_captions[0])
            logits = caption_logits(params, cfg, branch, inputs)
            loss_sum += TR.xe_loss(logits, targets).item()
            pred = logits.data.argmax(axis=1)
            live = np.asarray(targets) != PAD_ID
            hits += int((pred[live] == np.asarray(targets)[live]).sum())
            total += int(live.sum())
    return hits / max(1, total), loss_sum / max(1, len(samples))


@pytest.fixture(scope="module")
def desk_run():
    """50-sample desk-config XE training, shared by criteria 7 and 8.

    Teacher-forcing accuracy and CIDEr-D are measured on the split the model
    trains on (45 samples after the validation carve-out)."""
    samples = generate_dataset(7, 50)
    cfg = TrainConfig(seed=7)
    train_split, _ = split_train_val(samples)
    vocab = build_vocab(corpus_texts(train_split), cfg.min_count)
    params = init_model(cfg, len(vocab),
                        np.random.default_rng(np.random.SeedSequence([cfg.seed, 11])))

    def stop(epoch, loss):
        if loss >= 0.05:
            return False
        acc, _ = token_accuracy(params, cfg, vocab, train_split)
        return acc >= 0.99

    t0 = time.time()
    out = TR.train_xe(samples, cfg, epochs=500, params=params, vocab=vocab, stop_fn=stop)
    elapsed = time.time() - t0
    acc, mean_loss = token_accuracy(out.params, cfg, vocab, train_split)
    cider = TR.corpus_cider(out.params, cfg, vocab, train_split)
    return {"samples": samples, "cfg": cfg, "vocab": vocab, "out": out,
            "train_split": train_split, "elapsed": elapsed, "acc": acc,
            "mean_loss": mean_loss, "cider": cider}


def test_criterion_7_learning_capability(announce, desk_run):
    r = desk_run
    epochs = len(r["out"].curve)
    final_loss = r["out"].curve[-1][1]
    ok = (r["acc"] >= 0.99 and final_loss < 0.05 and epochs <= 500
          and r["elapsed"] < 600.0 and r["cider"] >= 8.0)
    verdict(announce, 7, ok,
            f"50 samples (seed 7), desk config: token accuracy {r['acc']:.4f} "
            f"(>=0.99), training loss {final_loss:.4f} (<0.05), {epochs} epochs "
            f"(<=500), {r['elapsed']:.0f}s (<600), greedy train CIDEr-D "
            f"{r['cider']:.2f} (>=8.0)")


def run_bandit(high_token=1, steps=200, lr=0.1, seed=0):
    """2-token policy under the self-critical update; reward 10 vs 0."""
    logits = Tensor(np.zeros((1, 2)), requires_grad=True)
    opt = TR.Adam(U.flatten({"logits": logits}))
    rng = np.random.default_rng(seed)
    reward = lambda tok: 10.0 if tok == high_token else 0.0
    first_above = None
    for step in range(1, steps + 1):
        lp = T.log_softmax(logits).data[0]
        sampled = int(rng.choice(2, p=np.exp(lp)))
        greedy = int(np.argmax(lp))
        advantage = reward(sampled) - reward(greedy)
        if advantage != 0.0:
            with T.Tape() as tape:
                loss = TR.reinforce_loss(T.reshape(logits, (1, 1, 2)), [[sampled]], [advantage])
                tape.backward(loss, opt.sinks)
            opt.step(lr)
        p_high = float(np.exp(T.log_softmax(logits).data[0, high_token]))
        if first_above is None and p_high > 0.9:
            first_above = step
    return p_high, first_above


def test_criterion_8_scst_sanity(announce, desk_run, tmp_path):
    p_high, first_above = run_bandit()
    bandit_ok = first_above is not None and first_above <= 200

    r = desk_run
    ckpt = tmp_path / "xe.ckpt"
    TR.save_checkpoint(ckpt, r["cfg"], r["vocab"], r["out"].params,
                       trained_steps=r["out"].trained_steps)
    cfg2, vocab2, params2, steps = TR.load_checkpoint(ckpt)
    before = r["cider"]
    TR.train_scst(r["samples"], cfg2, params2, vocab2, epochs=30, start_step=steps)
    after = TR.corpus_cider(params2, cfg2, vocab2, r["train_split"])
    drop_ok = after >= before - 0.2

    ok = bandit_ok and drop_ok
    verdict(announce, 8, ok,
            f"bandit: high-reward token p={p_high:.3f} after crossing 0.9 at "
            f"step {first_above} (<=200); 30 self-critical epochs: train "
            f"CIDEr-D {before:.3f} -> {after:.3f} (allowed drop 0.2)")


# --------------------------------------------------------------- criterion 9


def test_criterion_9_ablation_mechanics(announce, tmp_path):
    base = TrainConfig()
    grids_ok = (
        [(l, c.fusion_cells) for l, c in ablation.axis_configs("m", base)]
        == [("m=1", 1), ("m=2", 2), ("m=3", 3)]
        and [(l, c.fusion_base) for l, c in ablation.axis_configs("base", base)]
        == [("C", "c"), ("G", "g"), ("CG", "cg")]
        and [(l, c.layers) for l, c in ablation.axis_configs("layers", base)]
        == [("L=2", 2), ("L=3", 3), ("L=4", 4), ("L=5", 5)]
        and [(l, c.gesa_variant) for l, c in ablation.axis_configs("gesa", base)]
        == [("Con", "con"), ("+Intra", "con_intra"), ("+Inter", "con_intra_inter")]
        and [(l, c.branches) for l, c in ablation.axis_configs("branches", base)]
        == [("SS", ("ss",)), ("SV", ("sv",)), ("VS", ("vs",)), ("VV", ("vv",)),
            ("VV+VS", ("vv", "vs")), ("VV+VS+SV", ("vv", "vs", "sv")),
            ("VV+VS+SV+SS", ("vv", "vs", "sv", "ss"))]
    )

    # Con -> +Intra -> +Inter sweep on 500 relational-caption samples, via the
    # command surface, with a reduced model so the sweep fits the suite budget
    data = str(tmp_path / "d500.jsonl")
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(dict(
        seed=7, d_model=32, heads=4, expand_ratio=2, fusion_cells=1, layers=2,
        enc_width=32, enc_heads=2, enc_layers=2, val_every=4)))
    out_dir = str(tmp_path / "gesa")
    assert cli.main(["gen-data", "--seed", "11", "--n", "500", "--out", data]) == 0
    assert cli.main(["ablate", "--data", data, "--axis", "gesa", "--config",
                     str(cfg_path), "--epochs", "8", "--out", out_dir]) == 0

    table = Path(out_dir, "table.csv").read_text().splitlines()
    sweep_ok = (table[0] == "config,bleu4,rouge_l,cider_d,best_epoch"
                and [line.split(",")[0] for line in table[1:]] == ["Con", "+Intra", "+Inter"])
    md = Path(out_dir, "table.md").read_text()
    direction_line = next((l for l in md.splitlines() if "direction check" in l), "")
    sweep_ok = sweep_ok and bool(direction_line)

    scores = {line.split(",")[0]: float(line.split(",")[3]) for line in table[1:]}
    direction_holds = scores["+Inter"] >= scores["Con"]

    # a reversed direction is reported, not failed (it mirrors a trend, not a law)
    ok = grids_ok and sweep_ok
    verdict(announce, 9, ok,
            f"grids {'exact' if grids_ok else 'WRONG'}; tables complete; "
            f"direction +Inter >= Con on val CIDEr-D "
            f"{'holds' if direction_holds else 'REVERSED (reported, not failed)'} "
            f"({scores['+Inter']:.3f} vs {scores['Con']:.3f})")


# -------------------------------------------------------------- criterion 10


TINY = dict(d_model=16, heads=2, expand_ratio=2, fusion_cells=1, layers=2,
            raw_feat_dim=32, enc_width=16, enc_heads=2, enc_layers=1,
            batch_size=4, val_every=1, min_count=1, max_len=10,
            xe_epochs=2, warmup_epochs=2, scst_epochs=1, beam=2, seed=3)


def test_criterion_10_reproducibility(announce, tmp_path):
    """Every command, run twice with identical arguments, leaves identical
    bytes behind (manifests compared with the wall-clock field stripped)."""
    root = str(tmp_path)
    cfg_path = os.path.join(root, "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump(TINY, f)
    data = os.path.join(root, "data.jsonl")
    xe = os.path.join(root, "xe")
    ckpt = os.path.join(xe, "checkpoint.bin")
    scst = os.path.join(root, "scst")
    pred = os.path.join(root, "pred.jsonl")
    rep = os.path.join(root, "metrics.json")
    attn = os.path.join(root, "attn")
    abl = os.path.join(root, "ablate")

    def run_all():
        assert cli.main(["gen-data", "--seed", "4", "--n", "6", "--out", data]) == 0
        assert cli.main(["train", "--data", data, "--config", cfg_path,
                         "--out", xe]) == 0
        assert cli.main(["train", "--data", data, "--phase", "scst", "--init",
                         ckpt, "--out", scst]) == 0
        assert cli.main(["caption", "--ckpt", ckpt, "--data", data,
                         "--out", pred]) == 0
        assert cli.main(["eval", "--pred", pred, "--refs", data, "--out", rep]) == 0
        assert cli.main(["dump-attention", "--ckpt", ckpt, "--data", data,
                         "--sample-id", "s00001", "--out", attn]) == 0
        assert cli.main(["ablate", "--data", data, "--axis", "base", "--config",
                         cfg_path, "--epochs", "1", "--out", abl]) == 0

    def snapshot():
        artifacts = {}
        manifests = {}
        for path in (data, pred, rep,
                     os.path.join(xe, "checkpoint.bin"),
                     os.path.join(xe, "loss_curve.csv"),
                     os.path.join(scst, "checkpoint.bin"),
                     os.path.join(scst, "reward_curve.csv"),
                     *(os.path.join(attn, f) for f in sorted(os.listdir(attn))
                       if f.endswith(".csv")),
                     os.path.join(abl, "table.csv"),
                     os.path.join(abl, "table.md"),
                     os.path.join(abl, "c", "checkpoint.bin"),
                     os.path.join(abl, "c", "loss_curve.csv"),
                     os.path.join(abl, "g", "checkpoint.bin"),
                     os.path.join(abl, "cg", "checkpoint.bin")):
            with open(path, "rb") as f:
                artifacts[os.path.relpath(path, root)] = f.read()
        for path in (data + ".manifest.json", os.path.join(xe, "manifest.json"),
                     os.path.join(scst, "manifest.json"),
                     pred + ".manifest.json", rep + ".manifest.json",
                     os.path.join(attn, "manifest.json"),
                     os.path.join(abl, "manifest.json")):
            with open(path) as f:
                m = json.load(f)
            m.pop("timings_s")  # wall clock is the one exempt field
            manifests[os.path.relpath(path, root)] = m
        return artifacts, manifests

    run_all()
    first_artifacts, first_manifests = snapshot()
    run_all()
    second_artifacts, second_manifests = snapshot()

    diff = sorted(name for name in first_artifacts
                  if first_artifacts[name] != second_artifacts[name])
    diff += sorted(name for name in first_manifests
                   if first_manifests[name] != second_manifests[name])
    ok = not diff
    verdict(announce, 10, ok,
            f"gen-data/train-xe/train-scst/caption/eval/dump-attention/ablate "
            f"rerun with identical arguments: {len(first_artifacts)} artifacts "
            f"byte-identical, {len(first_manifests)} manifests equal minus wall "
            f"timings" + ("" if ok else f"; differing: {', '.join(diff)}"))
