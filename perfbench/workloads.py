"""The three desk-scale workloads: set-up, one measured pass, output checks.

Every workload is single-process and closed-loop (one caller; the next call
starts when the previous one returns) and drives the package only through
its public functions, looked up on their modules so that a `Tracer` sees
them. The workload seed picks the scenes (`data.generate_dataset`); the
model and training settings are `TrainConfig()` defaults.

decode_desk and scst_desk start from one fixed model, XE-trained on the desk
scenes of FIXTURE_SEED. A model trained on each seed's own scenes decodes
with up to 50% more decoder work per caption on one seed than on another,
which would swamp any change the benchmark is meant to show. The fixed model
is trained once per checkout and source state and kept under CACHE_DIR, like
a build product.

`--seconds` scales the amount of measured work (the *_S constants are the
seconds of one unit at the parent commit on a 2-core x86-64 box), so both
sides of a comparison do the same work. Throughput comes from chunks of
about two seconds or more: the median over epochs for training, and all
blocks of DECODE_BLOCK scenes pooled for decoding, whose blocks hold
different scenes.

The box this was built on is shared, and it runs at two speeds for tens of
seconds at a time: a fixed loop of small NumPy calls did 88k or 142k
iterations/s depending on the period. So each chunk is followed by
`box_speed()`, a fixed reference loop of the same kind of work as the
package (small matrix products and Python dispatch), and the reported
rates and times are scaled to the reference's nominal speed. The raw
figures stay in the run record.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gevst
from gevst import data, metrics, model, training
from gevst.config import TrainConfig
from gevst.data import BOS_ID, EOS_ID
from gevst.nn import named_parameters
from gevst.tensor import no_grad

DESK_SCENES = 50  # 45 train + 5 validation after data.split_train_val
SETUP_REPEATS = 7
PRETRAIN_EPOCHS = 10  # captions reach the corpus length (~10 tokens with EOS)
FIXTURE_SEED = 0
CACHE_DIR = Path(__file__).resolve().parent / "cache"
PRETRAIN_TIMEOUT_S = 150
WARMUP_SCENES = 2
XE_EPOCH_S = 2.0
SCST_EPOCH_S = 5.0
SCENE_S = 0.2  # one beam-5 plus one greedy caption
MIN_CAPTIONS = 100  # ten captions beyond the p90
DECODE_BLOCK = 10
BEAM1_SCENES = 20
RESCORE_TOL = 1e-9
REF_CALLS = 20000
NOMINAL_REF_RATE = 140000.0  # reference calls/s on an uncontended 2-core x86-64 box
_REF_X = np.random.default_rng(0).random((16, 64))
_REF_W = np.random.default_rng(1).random((64, 64))


@dataclass
class Inputs:
    scenes: list  # DESK_SCENES desk scenes, then the held-out ones
    setup_s: float
    raw_setup_s: float
    ckpt: str = None  # the fixed model of decode_desk and scst_desk

    @property
    def desk(self):
        return self.scenes[:DESK_SCENES]

    @property
    def held_out(self):
        return self.scenes[DESK_SCENES:]


@dataclass
class Pass:
    """One measured pass: its wall time, rates, and the outputs it produced."""

    wall_s: float
    chunk_rates: list  # raw samples/s of each chunk of measured work
    chunk_speeds: list  # box_speed() next to each chunk
    attempted: int
    outputs: dict  # deterministic; equal bit for bit across passes of one seed
    details: dict = field(default_factory=dict)  # figures under the roadmap's names
    chunk_samples: list = None  # samples in each chunk; set when chunks are pooled


def box_speed():
    """Reference speed now, as a share of nominal (about 0.6 in a slow period)."""
    t0 = time.perf_counter()
    for _ in range(REF_CALLS):
        float(np.tanh(_REF_X @ _REF_W).sum())
    return REF_CALLS / (time.perf_counter() - t0) / NOMINAL_REF_RATE


def scaled_rate(p):
    """Samples/s at the reference's nominal speed.

    Epochs train on the same scenes, so the median over them drops one hit by
    contention. Decode blocks hold different scenes, with captions of
    different lengths; there the median picks one block's content, so the
    blocks' scaled times are pooled instead.
    """
    if p.chunk_samples is None:
        return statistics.median(r / v for r, v in zip(p.chunk_rates, p.chunk_speeds))
    scaled_s = sum(n / r * v for n, r, v in zip(p.chunk_samples, p.chunk_rates, p.chunk_speeds))
    return sum(p.chunk_samples) / scaled_s


def median_ms(xs):
    return 1000.0 * statistics.median(xs)


def _quantile_ms(xs, q):
    return 1000.0 * float(np.quantile(np.asarray(xs), q))


def params_digest(params):
    h = hashlib.sha256()
    for name, t in named_parameters(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()


# ------------------------------------------------------------------ set-up


def held_out_count(workload, seconds):
    return max(MIN_CAPTIONS, math.ceil(seconds / SCENE_S)) if workload == "decode_desk" else 0


def set_up_once(seed, n_held, workdir):
    """Scenes to JSONL and back, and a fresh desk model through a checkpoint."""
    t0 = time.perf_counter()
    path = f"{workdir}/scenes.jsonl"
    data.write_jsonl(data.generate_dataset(seed, DESK_SCENES + n_held), path)
    scenes = data.read_jsonl(path)
    cfg = TrainConfig()
    train, _ = data.split_train_val(scenes[:DESK_SCENES])
    vocab = data.build_vocab(data.corpus_texts(train), cfg.min_count)
    params = model.init_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
    ckpt = f"{workdir}/init.ckpt"
    training.save_checkpoint(ckpt, cfg, vocab, params)
    training.load_checkpoint(ckpt)
    return scenes, time.perf_counter() - t0


def set_up(workload, seed, seconds, workdir):
    """SETUP_REPEATS set-ups, then the workload's fixture.

    `setup_s` is the median set-up time scaled to the nominal box speed; the
    raw median is kept as `raw_setup_s`.
    """
    n_held = held_out_count(workload, seconds)
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        scenes, took = set_up_once(seed, n_held, workdir)
        times.append(took)
        scaled.append(took * box_speed())
    inputs = Inputs(scenes, statistics.median(scaled), statistics.median(times))
    if workload != "xe_desk":
        inputs.ckpt = fixture_checkpoint(workdir)
    if workload == "decode_desk":
        cfg, vocab, params, _ = training.load_checkpoint(inputs.ckpt)
        for s in inputs.desk[:WARMUP_SCENES]:
            training.beam_caption(params, cfg, vocab, s)
            training.greedy_caption(params, cfg, vocab, s)
    return inputs


def pretrain(workdir, ckpt_path, epochs, n_desk):
    """Child-process body: XE-train the fixture model and save it."""
    path = f"{workdir}/fixture.jsonl"
    data.write_jsonl(data.generate_dataset(FIXTURE_SEED, n_desk), path)
    desk = data.read_jsonl(path)
    cfg = TrainConfig(val_every=epochs)
    out = training.train_xe(desk, cfg, epochs=epochs)
    training.save_checkpoint(ckpt_path, cfg, out.vocab, out.params, out.trained_steps)


def fixture_checkpoint(workdir):
    """Path of the fixed model, trained now unless this source state has one."""
    key = hashlib.sha256(f"{FIXTURE_SEED}/{DESK_SCENES}/{PRETRAIN_EPOCHS}/{np.__version__}".encode())
    for path in sorted(Path(gevst.__file__).parent.glob("*.py")):
        key.update(path.name.encode())
        key.update(path.read_bytes())
    ckpt = CACHE_DIR / f"fixture-{key.hexdigest()[:20]}.ckpt"
    if not ckpt.exists():
        CACHE_DIR.mkdir(exist_ok=True)
        fresh = f"{workdir}/fixture.ckpt"
        _pretrain(workdir, fresh)
        os.replace(fresh, ckpt)
    return str(ckpt)


_PRETRAIN_MAIN = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
                  "workloads.pretrain(sys.argv[3], sys.argv[4], int(sys.argv[5]), int(sys.argv[6]))")


def _pretrain(workdir, ckpt_path):
    # A child process, so that the measured process's peak RSS is its own.
    # A plain interpreter rather than multiprocessing, which would leave its
    # resource tracker running past the end of the run; subprocess.run kills
    # the child on timeout and waits for it on every path out.
    here = Path(__file__).resolve().parent
    argv = [sys.executable, "-c", _PRETRAIN_MAIN, str(Path(gevst.__file__).parent.parent), str(here),
            workdir, ckpt_path, str(PRETRAIN_EPOCHS), str(DESK_SCENES)]
    try:
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, timeout=PRETRAIN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"pretraining did not finish in {PRETRAIN_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"pretraining exited with code {proc.returncode}")


# ---------------------------------------------------------------- measures


class EpochClock:
    """`log=` callback: stamps each epoch's end, then probes the box speed.

    An epoch's time runs from the end of the previous probe to its own end, so
    the probes fall outside it. The first epoch is dropped.
    """

    def __init__(self):
        self.marks = []  # (epoch end, box speed, probe end)

    def __call__(self, _msg):
        end = time.perf_counter()
        self.marks.append((end, box_speed(), time.perf_counter()))

    def rates(self, n_train):
        return [n_train / (end - prev[2]) for prev, (end, _, _) in zip(self.marks, self.marks[1:])]

    def speeds(self):
        return [speed for _, speed, _ in self.marks[1:]]


def measure_xe(inputs, seconds):
    epochs = 1 + max(1, round(seconds / XE_EPOCH_S))
    desk = inputs.desk
    n_train = len(data.split_train_val(desk)[0])
    clock = EpochClock()
    t0 = time.perf_counter()
    out = training.train_xe(desk, TrainConfig(val_every=epochs), epochs=epochs, log=clock)
    wall = time.perf_counter() - t0
    rates = clock.rates(n_train)
    losses = [loss for _, loss in out.curve]
    return Pass(wall, rates, clock.speeds(), epochs * n_train,
                outputs={"xe_curve": losses, "val_cider_d": out.best_val,
                         "params_sha256": params_digest(out.params), "trained_samples": epochs * n_train},
                details={"xe_loss": losses[-1], "xe_samples_per_s": statistics.median(rates), "xe_epochs": epochs})


def check_xe(inputs, p):
    """XE loss finite every epoch, and the last epoch below the first."""
    curve = p.outputs["xe_curve"]
    per_epoch = p.attempted // len(curve)
    failed = per_epoch * sum(not math.isfinite(x) for x in curve)
    if not curve[-1] < curve[0]:
        failed += per_epoch
    return failed


def _generated_ids(vocab, cfg, tokens):
    """Ids a decode produced: the tokens, then EOS unless it hit max_len."""
    ids = [vocab.token_to_id[t] for t in tokens]
    return ids + [EOS_ID] if len(ids) < cfg.max_len else ids


def measure_decode(inputs, seconds):
    cfg, vocab, params, _ = training.load_checkpoint(inputs.ckpt)
    held = inputs.held_out
    beams, greedys, beam_s, greedy_s, rates, speeds, sizes = [], [], [], [], [], [], []
    t0 = time.perf_counter()
    for i in range(0, len(held), DECODE_BLOCK):
        block = held[i:i + DECODE_BLOCK]
        for s in block:
            a = time.perf_counter()
            beams.append(training.beam_caption(params, cfg, vocab, s))
            b = time.perf_counter()
            greedys.append(training.greedy_caption(params, cfg, vocab, s))
            c = time.perf_counter()
            beam_s.append(b - a)
            greedy_s.append(c - b)
        sizes.append(len(block))
        rates.append(len(block) / (sum(beam_s[i:]) + sum(greedy_s[i:])))
        speeds.append(box_speed())
    scene_s = [x + y for x, y in zip(beam_s, greedy_s)]
    a = time.perf_counter()
    report = metrics.evaluate([toks for toks, _ in beams], training.references_of(held))
    eval_s = time.perf_counter() - a
    wall = time.perf_counter() - t0
    n_ids = sum(len(_generated_ids(vocab, cfg, toks)) for toks, _ in beams + greedys)
    return Pass(
        wall, rates, speeds, 2 * len(held) + min(BEAM1_SCENES, len(held)),
        outputs={"beam5": beams, "greedy": greedys, "caption_cider_d": report["cider_d"],
                 "tokens_per_caption": n_ids / (2 * len(held))},
        details={"beam5_captions_per_s": len(held) / sum(beam_s),
                 "beam5_ms_p50": median_ms(beam_s), "beam5_ms_p90": _quantile_ms(beam_s, 0.9),
                 "greedy_ms_p50": median_ms(greedy_s), "greedy_ms_p90": _quantile_ms(greedy_s, 0.9),
                 "scene_ms_p50": median_ms(scene_s), "scene_ms_p90": _quantile_ms(scene_s, 0.9),
                 "captions": len(held), "caption_cider_d": report["cider_d"],
                 "eval_ms": 1000.0 * eval_s},
        chunk_samples=sizes)


def check_decode(inputs, p):
    """Beam sum log-probs match a teacher-forced re-score; beam-1 equals greedy."""
    cfg, vocab, params, _ = training.load_checkpoint(inputs.ckpt)
    failed = 0
    with no_grad():
        for s, (toks, logprob) in zip(inputs.held_out, p.outputs["beam5"]):
            ids = _generated_ids(vocab, cfg, toks)
            branch = model.encode_sample(params, cfg, s, vocab)
            logits = model.caption_logits(params, cfg, branch, [BOS_ID] + ids[:-1])
            rescored = training.sequence_logprob(logits, ids).item()
            if not (math.isfinite(logprob) and abs(rescored - logprob) <= RESCORE_TOL):
                failed += 1
    for s, greedy in zip(inputs.held_out[:BEAM1_SCENES], p.outputs["greedy"]):
        if training.beam_caption(params, cfg, vocab, s, beam=1) != greedy or not math.isfinite(greedy[1]):
            failed += 1
    return failed


def measure_scst(inputs, seconds):
    cfg, vocab, params, steps = training.load_checkpoint(inputs.ckpt)
    epochs = 1 + max(2, round(seconds / SCST_EPOCH_S))
    desk = inputs.desk
    n_train = len(data.split_train_val(desk)[0])
    clock = EpochClock()
    t0 = time.perf_counter()
    out = training.train_scst(desk, cfg.replaced(val_every=epochs), params, vocab, epochs=epochs,
                              start_step=steps, log=clock)
    wall = time.perf_counter() - t0
    rates = clock.rates(n_train)
    rewards = [r for _, r in out.curve]
    return Pass(wall, rates, clock.speeds(), epochs * n_train,
                outputs={"scst_rewards": rewards, "val_cider_d": out.best_val,
                         "params_sha256": params_digest(out.params), "trained_samples": epochs * n_train},
                details={"scst_reward": rewards[-1], "scst_samples_per_s": statistics.median(rates),
                         "scst_epochs": epochs})


def check_scst(inputs, p):
    """Mean sampled reward finite every epoch (a non-finite loss raises in train_scst)."""
    rewards = p.outputs["scst_rewards"]
    return (p.attempted // len(rewards)) * sum(not math.isfinite(r) for r in rewards)


WORKLOADS = {
    "xe_desk": (measure_xe, check_xe),
    "decode_desk": (measure_decode, check_decode),
    "scst_desk": (measure_scst, check_scst),
}
