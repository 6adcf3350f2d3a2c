"""Optimization: cross-entropy phase, self-critical phase, checkpoints.

XE teacher-forces the FIRST ground-truth caption of each sample (the second
stays a metric/reward reference; two distinct teacher targets would make the
first diverging token irreducibly ambiguous). SCST draws one multinomial
caption per sample, uses the greedy caption as baseline, and minimizes
-(r_sampled - r_greedy) * sum log p(sampled tokens) with per-sentence
CIDEr-D rewards against both references.

XE follows the Noam learning rate d^-0.5 * min(step^-0.5, step*warmup^-1.5)
(warmup = warmup_epochs in steps); SCST instead runs at the small constant
scst_lr — policy-gradient updates at the warmup schedule's rate wreck a
converged model — while resuming the step count stored in the checkpoint.
Both phases run one loop (`_optimize`) and differ only in their per-sample
loss, learning-rate rule and stream tags. The loop holds Adam(beta2=0.98,
eps=1e-9, bias-corrected), global-norm gradient clipping at 5.0, batch-mean
losses, a fixed shuffle stream per epoch, and best-checkpoint selection by
validation CIDEr-D every val_every epochs. A non-finite batch loss or
gradient norm raises TrainingDiverged before the optimizer step, so the
parameters keep their last finite values; so do non-finite log-probs in an
SCST rollout.

All parameters live in one float64 vector (nn.flat_parameters), each Tensor
a view into it: Adam, clipping and best snapshots work on whole vectors.

Checkpoints are one compact JSON header line (config, vocabulary, trained
step count, parameter manifest of name/shape/offset, data_bytes) followed
by that vector's little-endian float64 bytes. Loading accepts only the
model's exact manifest and data_bytes finite values.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .config import TrainConfig, config_from_dict
from .data import BOS_ID, EOS_ID, PAD_ID, RESERVED_TOKENS, Vocabulary, build_vocab, corpus_texts, split_train_val, tokenize
from .decoder import beam_search, greedy_decode
from .errors import ConfigError, ContractError, InputError, ParseError, SchemaError, TrainingDiverged
from .model import caption_logits, encode_sample, init_model, make_step_fn
from .nn import Tensor, flat_offsets, flat_parameters, flat_views, named_parameters, parameters
from .tensor import Tape, no_grad
from . import tensor as T


def noam_lr(step, d_model, warmup_steps):
    """Peaks exactly at step == warmup_steps, then decays as step^-0.5."""
    if warmup_steps < 1:
        raise ConfigError(f"warmup_steps must be >= 1, got {warmup_steps}")
    if step < 1:
        raise ContractError(f"schedule step must be >= 1, got {step}")
    return d_model ** -0.5 * min(step ** -0.5, step * warmup_steps ** -1.5)


class Adam:
    """Bias-corrected Adam on the flat parameter vector of `params_obj`. A
    missing gradient counts as zero: a parameter that never gets one never moves."""

    def __init__(self, params_obj, beta1=0.9, beta2=0.98, eps=1e-9):
        self.params = flat_parameters(params_obj)
        self.tensors = parameters(params_obj)
        self.grad, self.m, self.v = (np.zeros_like(self.params) for _ in range(3))
        self.grad_views = flat_views(self.grad, self.tensors)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0

    def collect_grads(self):
        """Add each Tensor.grad into `grad` and clear it; returns `grad`."""
        for t, g in zip(self.tensors, self.grad_views):
            if t.grad is not None:
                g += t.grad
                t.grad = None
        return self.grad

    def step(self, lr):
        g = self.collect_grads()
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        self.m *= b1
        self.m += (1.0 - b1) * g
        self.v *= b2
        self.v += (1.0 - b2) * g * g
        # params -= lr * (m / c1) / (sqrt(v / c2) + eps), one temporary at a time
        update = lr * (self.m / (1.0 - b1 ** self.t))
        np.sqrt(np.divide(self.v, 1.0 - b2 ** self.t, out=g), out=g)
        g += self.eps
        update /= g
        self.params -= update
        g.fill(0.0)

    def zero_grads(self):
        for t in self.tensors:
            t.grad = None
        self.grad.fill(0.0)


def clip_gradients(opt, max_norm):
    """Scale `opt.grad` to global norm <= max_norm; returns the norm before.
    The squared norm is summed per tensor in parameter order: one dot product
    over the whole vector rounds differently and would change training."""
    opt.collect_grads()
    total = math.sqrt(sum(float((g * g).sum()) for g in opt.grad_views))
    if total > max_norm and total > 0.0:
        opt.grad *= max_norm / total
    return total


# ------------------------------------------------------------------ losses


def teacher_pair(vocab: Vocabulary, caption):
    """(decoder input ids, target ids) for one caption."""
    ids = vocab.encode(caption)
    return [BOS_ID] + ids, ids + [EOS_ID]


def _log_likelihood(logits, ids, row_weights):
    """sum over rows t of row_weights[t] * log softmax(logits)[t, ids[t]]."""
    weight = np.zeros(logits.data.shape)
    weight[np.arange(len(ids)), ids] = row_weights
    return T.total_sum(T.mul(T.log_softmax(logits), Tensor(weight)))


def xe_loss(logits, target_ids):
    """Mean over non-pad positions of -log softmax probability of the target."""
    t_len = logits.data.shape[0]
    targets = np.asarray(target_ids, dtype=np.int64)
    if targets.shape != (t_len,):
        raise ContractError(f"{t_len} logit rows vs targets shape {targets.shape}")
    live = targets != PAD_ID
    count = int(live.sum())
    if count == 0:
        raise ContractError("all-pad target sequence")
    return T.mul(_log_likelihood(logits, targets, live / count), -1.0)


def sequence_logprob(logits, ids):
    """Summed log-probability of `ids` under rows of `logits` (row t -> ids[t])."""
    t_len = logits.data.shape[0]
    idx = np.asarray(ids, dtype=np.int64)
    if idx.shape != (t_len,):
        raise ContractError(f"{t_len} logit rows vs {idx.shape} ids")
    return _log_likelihood(logits, idx, 1.0)


def reinforce_loss(logp_sum, advantage):
    """Self-critical surrogate: -(advantage) * log-prob; zero advantage, zero grad."""
    return T.mul(logp_sum, -float(advantage))


# ------------------------------------------------------------- evaluation


def caption_tokens(vocab, ids):
    """Generated-id list -> token list (EOS and friends dropped)."""
    return tokenize(vocab.decode(ids))


def greedy_caption(params, cfg, vocab, sample):
    branch = encode_sample(params, cfg, sample, vocab)
    ids, logprob = greedy_decode(make_step_fn(params, cfg, branch), max_len=cfg.max_len)
    return caption_tokens(vocab, ids), logprob


def beam_caption(params, cfg, vocab, sample, beam=None):
    branch = encode_sample(params, cfg, sample, vocab)
    ids, logprob, _ = beam_search(make_step_fn(params, cfg, branch), beam=cfg.beam if beam is None else beam, max_len=cfg.max_len)
    return caption_tokens(vocab, ids), logprob


def references_of(samples):
    return [[tokenize(c) for c in s.gt_captions] for s in samples]


def corpus_cider(params, cfg, vocab, samples):
    if not samples:
        return 0.0
    cands = [greedy_caption(params, cfg, vocab, s)[0] for s in samples]
    score, _ = metrics.cider_d(cands, references_of(samples))
    return score


# ---------------------------------------------------------------- training


@dataclass
class TrainOutcome:
    params: object
    vocab: Vocabulary
    cfg: TrainConfig
    curve: list  # (epoch, value) pairs; loss for XE, mean sampled reward for SCST
    best_snapshot: np.ndarray  # copy of the flat parameter vector at the best validation point
    best_epoch: int
    best_val: float
    trained_steps: int
    diagnostics: dict = field(default_factory=dict)


def restore_snapshot(params_obj, snap):
    """Write a `best_snapshot` vector back into the parameters, in place."""
    flat_parameters(params_obj)[...] = snap


def _epoch_rng(seed, tag, epoch):
    return np.random.default_rng(np.random.SeedSequence([seed, tag, epoch]))


def _captioned(samples):
    for s in samples:
        if not s.gt_captions:  # XE's teacher and every CIDEr-D reference need one
            raise InputError(f"scene {s.id!r} has no ground-truth caption to train or validate on")
    return samples


def _batches(order, size):
    for i in range(0, len(order), size):
        yield order[i : i + size]


def _optimize(phase, train, val, cfg, params, vocab, epochs, step, sample_loss, lr_at,
              tags, report, log=None, stop_fn=None):
    """The loop both phases share. Each epoch shuffles `train` with stream
    tags[0]; `sample_loss(sample, rng)` gives (loss on the live tape or None,
    reward or None) with `rng` the epoch's stream tags[1] (None without one).
    A batch with no loss takes no step; otherwise its mean loss is
    backpropagated, clipped and stepped at `lr_at(step)`. The curve holds the
    mean reward when samples report one, else the mean loss, logged by `report`."""
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    opt = Adam(params)
    curve = []
    best_snapshot, best_epoch, best_val = opt.params.copy(), 0, -1.0
    clip_events = 0

    for epoch in range(1, epochs + 1):
        order = _epoch_rng(cfg.seed, tags[0], epoch).permutation(len(train))
        rng = None if tags[1] is None else _epoch_rng(cfg.seed, tags[1], epoch)
        loss_total, reward_total = 0.0, None
        for batch in _batches(order, cfg.batch_size):
            opt.zero_grads()
            with Tape() as tape:
                acc = None
                for idx in batch:
                    loss, reward = sample_loss(train[int(idx)], rng)
                    if reward is not None:
                        reward_total = reward if reward_total is None else reward_total + reward
                    if loss is not None:
                        acc = loss if acc is None else T.add(acc, loss)
                if acc is None:
                    continue
                batch_loss = T.mul(acc, 1.0 / len(batch))
                tape.backward(batch_loss)
            del tape  # free the graph before the optimizer's full-size vectors
            value = batch_loss.item()
            if not math.isfinite(value):
                raise TrainingDiverged(f"{phase} loss became {value} at epoch {epoch}")
            loss_total += value * len(batch)
            norm = clip_gradients(opt, cfg.grad_clip)
            if not math.isfinite(norm):
                raise TrainingDiverged(f"{phase} gradient norm became {norm} at epoch {epoch}")
            clip_events += norm > cfg.grad_clip
            step += 1
            opt.step(lr_at(step))
        value = (loss_total if reward_total is None else reward_total) / len(train)
        curve.append((epoch, value))
        if log:
            log(report.format(epoch, value))

        stop = stop_fn is not None and stop_fn(epoch, value)
        if epoch % cfg.val_every == 0 or epoch == epochs or stop:
            score = corpus_cider(params, cfg, vocab, val or train)
            if score > best_val:
                best_snapshot, best_epoch, best_val = opt.params.copy(), epoch, score
        if stop:
            break

    return TrainOutcome(params, vocab, cfg, curve, best_snapshot, best_epoch, best_val,
                        trained_steps=step, diagnostics={"clip_events": clip_events})


def train_xe(samples, cfg: TrainConfig, epochs=None, params=None, vocab=None,
             start_step=0, log=None, stop_fn=None):
    """Cross-entropy phase. `epochs` overrides cfg.xe_epochs; `stop_fn(epoch,
    loss)` may end training early (used by convergence-style experiments)."""
    train, val = split_train_val(_captioned(samples))
    if vocab is None:
        vocab = build_vocab(corpus_texts(train), cfg.min_count)
    if params is None:
        params = init_model(cfg, len(vocab), np.random.default_rng(np.random.SeedSequence([cfg.seed, 11])))
    epochs = cfg.xe_epochs if epochs is None else epochs
    warmup_steps = cfg.warmup_epochs * max(1, math.ceil(len(train) / cfg.batch_size))

    def sample_loss(s, _rng):
        branch = encode_sample(params, cfg, s, vocab)
        inputs, targets = teacher_pair(vocab, s.gt_captions[0])
        return xe_loss(caption_logits(params, cfg, branch, inputs), targets), None

    def lr_at(step):
        return noam_lr(step, cfg.d_model, warmup_steps) * cfg.lr_scale

    return _optimize("XE", train, val, cfg, params, vocab, epochs, start_step, sample_loss, lr_at,
                     tags=(101, None), report="epoch {}: loss {:.6f}", log=log, stop_fn=stop_fn)


def scst_rollouts(params, cfg, vocab, sample, rng):
    """(sampled ids, greedy ids) from the current policy, tapeless. Both
    captions advance through one batched step per token; only the sampled
    one draws from `rng`, once per token, as a lone sampled decode would.
    Non-finite log-probs raise TrainingDiverged before anything is drawn."""
    with no_grad():
        branch = encode_sample(params, cfg, sample, vocab)
    step_fn = make_step_fn(params, cfg, branch)
    sampled, greedy = [BOS_ID], [BOS_ID]
    for _ in range(cfg.max_len):
        live = [ids for ids in (sampled, greedy) if ids[-1] != EOS_ID]
        if not live:
            break
        logprobs = step_fn(live)
        if not np.isfinite(logprobs).all():
            raise TrainingDiverged(f"SCST policy log-probs became non-finite on sample {sample.id}")
        for ids, lp in zip(live, logprobs):
            ids.append(int(rng.choice(len(lp), p=np.exp(lp))) if ids is sampled else int(np.argmax(lp)))
    return sampled[1:], greedy[1:]


def train_scst(samples, cfg: TrainConfig, params, vocab, epochs=None, start_step=0, log=None):
    """Self-critical phase from an XE-trained model."""
    train, val = split_train_val(_captioned(samples))
    epochs = cfg.scst_epochs if epochs is None else epochs
    refs = references_of(train)
    scorer = metrics.CiderScorer(refs)
    ref_by_id = {s.id: r for s, r in zip(train, refs)}

    def sample_loss(s, rng):
        sampled, greedy_ids = scst_rollouts(params, cfg, vocab, s, rng)
        r_s = scorer.sentence(caption_tokens(vocab, sampled), ref_by_id[s.id])
        advantage = r_s - scorer.sentence(caption_tokens(vocab, greedy_ids), ref_by_id[s.id])
        if advantage == 0.0:
            return None, r_s
        logits = caption_logits(params, cfg, encode_sample(params, cfg, s, vocab), [BOS_ID] + sampled[:-1])
        return reinforce_loss(sequence_logprob(logits, sampled), advantage), r_s

    out = _optimize("SCST", train, val, cfg, params, vocab, epochs, start_step, sample_loss,
                    lambda step: cfg.scst_lr, tags=(202, 303), report="epoch {}: mean sampled reward {:.4f}", log=log)
    if epochs > 0 and all(reward == 0.0 for _, reward in out.curve):
        out.diagnostics["warning"] = "reward was identically zero for every epoch"
    return out


# ------------------------------------------------------------- checkpoints

CHECKPOINT_FORMAT = "gevst-checkpoint-v1"


def _manifest(params):
    """[{name, shape, byte offset}] of each parameter in the flat vector."""
    named = list(named_parameters(params))
    offsets = flat_offsets([t for _, t in named])
    return [{"name": n, "shape": list(t.data.shape), "offset": t.data.itemsize * int(o)}
            for (n, t), o in zip(named, offsets)]


def save_checkpoint(path, cfg: TrainConfig, vocab: Vocabulary, params, trained_steps=0):
    """JSON header line + the flat parameter vector as little-endian float64."""
    flat = flat_parameters(params)
    header = {
        "format": CHECKPOINT_FORMAT,
        "config": cfg.to_dict(),
        "vocab": vocab.id_to_token,
        "trained_steps": int(trained_steps),
        "params": _manifest(params),
        "data_bytes": flat.nbytes,
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, separators=(",", ":")).encode("utf-8"))
        f.write(b"\n")
        f.write(np.ascontiguousarray(flat, dtype="<f8").data)


def _layout_mismatch(entries, expected):
    """What first differs between a checkpoint manifest and the model's."""
    shapes = {e["name"]: e["shape"] for e in expected}
    for entry in entries:
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str) or name not in shapes:
            return f"checkpoint names unknown parameter {name!r}"
        if entry.get("shape") != shapes[name]:
            return f"parameter {name!r}: checkpoint shape {entry.get('shape')} != model shape {shapes[name]}"
    missing = sorted(set(shapes) - {e["name"] for e in entries})
    if missing:
        return f"checkpoint missing parameters: {missing[:3]}..."
    return "checkpoint manifest order or offsets differ from the model layout"


def load_checkpoint(path):
    """Returns (cfg, vocab, params, trained_steps); forward passes reproduce
    the saved model bit-identically."""
    with open(path, "rb") as f:
        try:
            header = json.loads(f.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ParseError("checkpoint header is not valid JSON", line=1) from None
        header = header if isinstance(header, dict) else {}
        if header.get("format") != CHECKPOINT_FORMAT:
            raise SchemaError(f"unrecognized checkpoint format {header.get('format')!r}")
        for key, kind in (("config", dict), ("vocab", list), ("params", list)):
            if not isinstance(header.get(key), kind):
                raise SchemaError(f"checkpoint header missing field {key!r} of type {kind.__name__}")
        tokens, steps = header["vocab"], header.get("trained_steps", 0)
        if not all(isinstance(t, str) for t in tokens) or len(set(tokens)) != len(tokens) \
                or tokens[:len(RESERVED_TOKENS)] != list(RESERVED_TOKENS):
            raise SchemaError(f"checkpoint vocab must be distinct strings led by {list(RESERVED_TOKENS)}")
        if type(steps) is not int or steps < 0:
            raise SchemaError(f"checkpoint trained_steps must be an integer >= 0, got {steps!r}")
        cfg = config_from_dict(header["config"])
        vocab = Vocabulary(tokens)
        params = init_model(cfg, len(vocab), np.random.default_rng(0))
        expected = _manifest(params)
        if header["params"] != expected:
            raise SchemaError(_layout_mismatch(header["params"], expected))
        flat = flat_parameters(params)
        if header.get("data_bytes") != flat.nbytes:
            raise SchemaError(f"checkpoint data_bytes {header.get('data_bytes')!r} != model's {flat.nbytes}")
        got = f.readinto(flat)
        if got < flat.nbytes:
            raise ParseError(f"checkpoint truncated: {got} of {flat.nbytes} parameter bytes")
        if f.read(1):
            raise ParseError("checkpoint has trailing bytes after the parameters")
    if sys.byteorder != "little":
        flat.byteswap(inplace=True)
    if not np.isfinite(flat).all():
        raise ParseError("checkpoint holds non-finite parameter values")
    return cfg, vocab, params, steps


def write_curve(path, rows, value_name="value"):
    with open(path, "w") as f:
        f.write(f"epoch,{value_name}\n")
        for epoch, value in rows:
            f.write(f"{epoch},{value!r}\n")
