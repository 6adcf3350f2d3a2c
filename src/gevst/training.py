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
Both phases run one loop (`_optimize`) and differ only in their batch
loss, learning-rate rule and streams. A batch is encoded on the tape by
`encode_batch`: its scenes in one padded, masked pass (`model.encode_scenes`:
the caption encoder, both fusion stacks and each GESA group run once over
the batch), then each sample takes its row of that pass, a `model.Scene`
(no tape node), in its own `encode_sample` call. The loss comes from one
padded, masked teacher-forced decoder pass over a list of Scenes
(`caption_logits`): XE over the whole batch's first ground-truth captions,
SCST over the sampled captions with a non-zero advantage. SCST rolls a
whole batch out in one lockstep decode, each sample drawing from its own
stream. The backward adds every parameter's
gradient straight into Adam's flat gradient vector (`Adam.sinks`), the one
way gradients reach the optimizer; the optimizer step zeroes that vector
again. Memory follows the forward's live set, which holds only what
backward rules read (the tape keeps gradient slots, not activations): the
backward frees the batch's graph as it walks it, and the Adam step runs
over the flat vectors in blocks of ADAM_BLOCK entries, so neither makes a
full-length temporary. Once the last step is taken, Adam's gradient and
moment vectors are freed, before the last validation and its snapshot
copy. The loop holds Adam(beta2=0.98, eps=1e-9, bias-corrected),
global-norm gradient clipping at 5.0, batch-mean losses, a fixed shuffle
stream per epoch, and best-checkpoint selection by validation CIDEr-D
every val_every epochs. A non-finite batch loss or gradient norm raises
TrainingDiverged before the optimizer step, so the parameters keep their
last finite values; so do non-finite log-probs in an SCST rollout.

All parameters live in one float64 vector (nn.flat_parameters), each Tensor
a view into it, from the moment init or load builds the model: Adam,
clipping, best snapshots and checkpoints work on that vector and copy no
parameter out of it. Either phase first checks that its parameters are laid
out as the config's model is (init's allocation-free layout pass).
The best snapshot is copied only at a validation that raises the best
CIDEr-D; a run that validates nothing (epochs=0) returns a copy of the
untouched vector.

Checkpoints are one compact JSON header line (config, vocabulary, trained
step count, parameter manifest of name/shape/offset, data_bytes) followed
by that vector's little-endian float64 bytes. Loading runs init's layout
pass for the header's config, binds the model to one uninitialized vector,
accepts only the model's exact manifest and data_bytes, and reads the body
straight into that vector, which must then hold finite values only.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .config import TrainConfig, config_from_dict
from .data import (BOS_ID, EOS_ID, PAD_ID, RESERVED_TOKENS, Vocabulary, build_vocab, corpus_texts, pad_ids,
                   parse_json, split_train_val, tokenize)
from .decoder import CachedDecoder, beam_search, decode, greedy_decode
from .errors import ConfigError, ContractError, DecodeDiverged, InputError, ParseError, SchemaError, TrainingDiverged
from .model import branch_axis, caption_logits, encode_sample, encode_scenes, init_model, make_step_fn, model_layout
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


ADAM_BLOCK = 32768  # entries per block of Adam.step: 256 KiB of each vector, so a block's arrays fit in L2


class Adam:
    """Bias-corrected Adam on the flat parameter vector of `params_obj`.
    Gradients reach it one way: `Tape.backward(loss, opt.sinks)` adds each
    parameter's gradient in place into that parameter's view of `grad`.
    `step` updates from `grad` and zeroes it, so a parameter that never gets
    a gradient never moves."""

    beta1, beta2, eps = 0.9, 0.98, 1e-9

    def __init__(self, params_obj):
        self.params = flat_parameters(params_obj)
        tensors = parameters(params_obj)
        self.grad, self.m, self.v = (np.zeros_like(self.params) for _ in range(3))
        self.sinks = dict(zip(tensors, flat_views(self.grad, tensors)))
        self.scratch = np.empty(min(ADAM_BLOCK, self.params.size))
        self.t = 0

    def step(self, lr):
        """One update, run block by block over the flat vectors: every entry
        goes through the same NumPy calls in the same order as a whole-vector
        step would (tests/util.py keeps it as the reference), so the result
        is bit for bit the same, while every temporary lives in one reused
        block-sized scratch buffer or in the block of `grad` it consumes."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for lo in range(0, self.params.size, ADAM_BLOCK):
            block = slice(lo, lo + ADAM_BLOCK)
            g, m, v = self.grad[block], self.m[block], self.v[block]
            tmp = self.scratch[:g.size]
            m *= b1
            m += np.multiply(1.0 - b1, g, out=tmp)
            v *= b2
            v += np.multiply(np.multiply(1.0 - b2, g, out=tmp), g, out=tmp)
            # params -= lr * (m / c1) / (sqrt(v / c2) + eps): the update in tmp, the denominator in g
            np.multiply(lr, np.divide(m, c1, out=tmp), out=tmp)
            np.sqrt(np.divide(v, c2, out=g), out=g)
            g += self.eps
            tmp /= g
            self.params[block] -= tmp
            g.fill(0.0)

    def free(self):
        """Drop `grad`, `m` and `v` (with the sinks into `grad`) once the
        last step is taken; no step follows."""
        self.grad = self.m = self.v = self.sinks = self.scratch = None


def clip_gradients(opt, max_norm):
    """Scale `opt.grad` to global norm <= max_norm; returns the norm before."""
    total = math.sqrt(float(opt.grad @ opt.grad))
    if total > max_norm and total > 0.0:
        opt.grad *= max_norm / total
    return total


# ------------------------------------------------------------------ losses


def teacher_pair(vocab: Vocabulary, caption):
    """(decoder input ids, target ids) for one caption."""
    ids = vocab.encode(caption)
    return [BOS_ID] + ids, ids + [EOS_ID]


def _log_likelihood(logits, ids, weights):
    """sum over logit rows r of weights[r] * log softmax(logits)[r, ids[r]]:
    ids (and weights, unless a scalar) shaped like the logits' rows."""
    weight = np.zeros(logits.data.shape)
    np.put_along_axis(weight, ids[..., None], np.broadcast_to(weights, ids.shape)[..., None], axis=-1)
    return T.total_sum(T.mul(T.log_softmax(logits), Tensor(weight)))


def xe_loss(logits, target_ids):
    """Mean over non-pad positions of -log softmax probability of the target,
    for logits [T x V] and targets [T]; for logits [B x T x V] and targets
    [B x T], the sum over the B sequences of each one's own mean."""
    targets = np.asarray(target_ids, dtype=np.int64)
    if targets.shape != logits.data.shape[:-1]:
        raise ContractError(f"logit rows {logits.data.shape[:-1]} vs targets shape {targets.shape}")
    live = targets != PAD_ID
    count = live.sum(axis=-1, keepdims=True)
    if (count == 0).any():
        raise ContractError("all-pad target sequence")
    return _log_likelihood(logits, targets, -(live / count))


def sequence_logprob(logits, ids):
    """Summed log-probability of `ids` under rows of `logits` (row t -> ids[t])."""
    t_len = logits.data.shape[0]
    idx = np.asarray(ids, dtype=np.int64)
    if idx.shape != (t_len,):
        raise ContractError(f"{t_len} logit rows vs {idx.shape} ids")
    return _log_likelihood(logits, idx, 1.0)


def reinforce_loss(logits, sampled, advantages):
    """Self-critical surrogate of a batch, -sum_i advantages[i] * log
    p(sampled[i]), from the [B x T x V] logits teacher-forced on the sampled
    captions (row t of caption i predicts sampled[i][t]; rows past a caption's
    end weigh 0). A zero advantage gives its caption zero gradient."""
    ids = pad_ids(sampled)
    if ids.shape != logits.data.shape[:-1]:
        raise ContractError(f"logit rows {logits.data.shape[:-1]} vs sampled ids {ids.shape}")
    inside = np.arange(ids.shape[1]) < np.array([len(s) for s in sampled])[:, None]
    return _log_likelihood(logits, ids, np.where(inside, -np.asarray(advantages, dtype=np.float64)[:, None], 0.0))


# ------------------------------------------------------------- evaluation


def caption_tokens(vocab, ids):
    """Generated-id list -> token list (EOS and friends dropped)."""
    return tokenize(vocab.decode(ids))


def greedy_caption(params, cfg, vocab, sample):
    with no_grad():
        scene = encode_sample(params, cfg, sample, vocab)
    ids, logprob = greedy_decode(make_step_fn(params, cfg, scene), max_len=cfg.max_len)
    return caption_tokens(vocab, ids), logprob


def beam_caption(params, cfg, vocab, sample, beam=None):
    with no_grad():
        scene = encode_sample(params, cfg, sample, vocab)
    ids, logprob, _ = beam_search(make_step_fn(params, cfg, scene), beam=cfg.beam if beam is None else beam, max_len=cfg.max_len)
    return caption_tokens(vocab, ids), logprob


def references_of(samples):
    return [[tokenize(c) for c in s.gt_captions] for s in samples]


def encode_batch(params, cfg, samples, vocab):
    """Each sample's Scene of one padded, masked pass over the batch
    (`model.encode_scenes`), handed out by one `encode_sample` call per
    sample."""
    scenes = encode_scenes(params, cfg, samples, vocab)
    return [encode_sample(params, cfg, s, vocab, (scenes, i)) for i, s in enumerate(samples)]


# Scenes per lockstep decode of `captions`: a block's decoder gathers every row's own scene keys,
# so a step's memory grows with the block's rows (up to beam x CAPTION_BLOCK of them).
CAPTION_BLOCK = 32


def captions(params, cfg, vocab, samples, beam=1):
    """(caption tokens, sum log-prob) of every sample: blocks of
    CAPTION_BLOCK scenes, each encoded tapeless (`encode_batch`) and decoded
    in one lockstep at beam width `beam`. Each caption is that of
    `beam_caption` on its scene alone unless two candidates tie to rounding
    (see `lockstep_decode` and `model.encode_scenes`). A width below 1 is a
    ConfigError, also with no sample to decode."""
    if beam < 1:
        raise ConfigError(f"beam width must be >= 1, got {beam}")
    out = []
    for lo in range(0, len(samples), CAPTION_BLOCK):
        block = samples[lo:lo + CAPTION_BLOCK]
        with no_grad():
            scenes = encode_batch(params, cfg, block, vocab)
        decoded = lockstep_decode(params, cfg, block, scenes, beam=beam)[1]
        out += [(caption_tokens(vocab, ids), cum) for ids, cum in decoded]
    return out


def corpus_cider(params, cfg, vocab, samples):
    return metrics.cider_d([tokens for tokens, _ in captions(params, cfg, vocab, samples)], references_of(samples))[0]


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


def _epoch_rng(seed, tag, epoch, *index):
    return np.random.default_rng(np.random.SeedSequence([seed, tag, epoch, *index]))


def _captioned(samples):
    if not samples:
        raise InputError("no scenes to train on")
    for s in samples:
        if not s.gt_captions:  # XE's teacher and every CIDEr-D reference need one
            raise InputError(f"scene {s.id!r} has no ground-truth caption to train or validate on")
    return samples


def _batches(order, size):
    for i in range(0, len(order), size):
        yield order[i : i + size]


def _optimize(phase, train, val, cfg, params, vocab, epochs, step, batch_loss, lr_at,
              shuffle_tag, report, log=None, stop_fn=None):
    """The loop both phases share. Each epoch shuffles `train` with stream
    shuffle_tag; `batch_loss(samples, indices, epoch)` gives, for the samples
    of one batch (their indices into `train`), (the batch's summed loss on
    the live tape or None, a reward per sample or None). A batch with no loss
    takes no step; otherwise its mean over the batch is backpropagated
    straight into the optimizer's gradient vector, clipped and stepped at
    `lr_at(step)`. The curve holds the mean reward when the phase reports
    rewards, else the mean loss, logged by `report`. The best snapshot is
    copied at each validation that improves on the best score so far. The
    optimizer's vectors are freed before the last validation. Parameters
    laid out other than cfg's model (init's layout pass, which allocates
    nothing) raise ConfigError naming the first parameter that differs."""
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    expected, given = _manifest(model_layout(cfg, len(vocab))[1]), _manifest(params)
    if given != expected:
        raise ConfigError(f"config does not fit the given parameters: {_layout_mismatch(given, expected, 'params')}")
    opt = Adam(params)
    curve = []
    best_snapshot, best_epoch, best_val = None, 0, -1.0
    clip_events = 0

    for epoch in range(1, epochs + 1):
        order = _epoch_rng(cfg.seed, shuffle_tag, epoch).permutation(len(train))
        loss_total, reward_total = 0.0, None
        for batch in _batches(order, cfg.batch_size):
            with Tape() as tape:
                loss, rewards = batch_loss([train[int(i)] for i in batch], batch, epoch)
                for reward in rewards or ():
                    reward_total = reward if reward_total is None else reward_total + reward
                if loss is None:
                    continue
                loss = T.mul(loss, 1.0 / len(batch))
                tape.backward(loss, opt.sinks)
            value = loss.item()
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
        if epoch == epochs or stop:  # the last step is taken: only the parameters are read from here on
            opt.free()
        if epoch % cfg.val_every == 0 or epoch == epochs or stop:
            score = corpus_cider(params, cfg, vocab, val or train)
            if score > best_val:
                best_snapshot, best_epoch, best_val = opt.params.copy(), epoch, score
        if stop:
            break

    if best_snapshot is None:  # no validation ran: the vector is untouched
        best_snapshot = opt.params.copy()
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

    def batch_loss(batch, _indices, _epoch):
        scenes = encode_batch(params, cfg, batch, vocab)
        inputs, targets = zip(*(teacher_pair(vocab, s.gt_captions[0]) for s in batch))
        return xe_loss(caption_logits(params, cfg, scenes, inputs), pad_ids(targets)), None

    def lr_at(step):
        return noam_lr(step, cfg.d_model, warmup_steps) * cfg.lr_scale

    return _optimize("XE", train, val, cfg, params, vocab, epochs, start_step, batch_loss, lr_at,
                     shuffle_tag=101, report="epoch {}: loss {:.6f}", log=log, stop_fn=stop_fn)


def lockstep_decode(params, cfg, samples, scenes, rngs=(), beam=1):
    """Captions of many scenes advanced together through one CachedDecoder,
    tapeless: scene i is `samples[i]` with its Scene `scenes[i]`, all of one
    SceneBatch (taped or not; their branch axis is laid out off the tape).

    Each of the first len(rngs) scenes gets a caption sampled from its own
    stream rngs[i]; every scene gets its beam-search caption of width `beam`
    (greedy at 1): the groups of one `decoder.decode`, sampled first. A row's
    log-probs are those of a lone decode of its scene to rounding (within
    1e-12), whatever the other scenes are, so a token can differ from a lone
    decode's only where two candidates tie to that rounding, or a draw falls
    that close to an edge of its stream's cumulative distribution. Returns
    (sampled ids per stream, (ids, sum log-prob) of the beam caption per
    scene); a non-finite row raises TrainingDiverged naming its sample and
    the policy or beam width."""
    with no_grad():
        decoder = CachedDecoder(params.dec_layers, cfg.heads, branch_axis(scenes), params.dec_embed, params.out)
    groups = [(i, 1, rng) for i, rng in enumerate(rngs)] + [(i, beam, None) for i in range(len(scenes))]
    try:
        decoded = [(ids, cum) for ids, cum, _ in decode(decoder, groups, cfg.max_len)]
    except DecodeDiverged as e:
        policy = "SCST policy" if rngs else "greedy" if beam == 1 else f"beam-{beam}"
        raise TrainingDiverged(f"{policy} log-probs became non-finite on sample {samples[e.scene].id}") from None
    return [ids for ids, _ in decoded[:len(rngs)]], decoded[len(rngs):]


def scst_rollouts(params, cfg, vocab, sample, rng):
    """(sampled ids, greedy ids) of one scene from the current policy,
    tapeless: `lockstep_decode` over that scene alone."""
    with no_grad():
        scene = encode_sample(params, cfg, sample, vocab)
    sampled, greedy = lockstep_decode(params, cfg, [sample], [scene], [rng])
    return sampled[0], greedy[0][0]


def train_scst(samples, cfg: TrainConfig, params, vocab, epochs=None, start_step=0, log=None):
    """Self-critical phase from an XE-trained model. Each batch is encoded
    once, on the tape (`encode_batch`); its sampled and greedy captions are
    rolled out in one `lockstep_decode` from those Scenes, and the loss is
    taught through them, in one teacher-forced pass over the sampled captions
    with a non-zero advantage. Sample `train[i]` draws from its own stream
    (seed, 303, epoch, i), so a rollout depends on neither the batch nor its
    order, to the rounding `lockstep_decode` allows."""
    train, val = split_train_val(_captioned(samples))
    epochs = cfg.scst_epochs if epochs is None else epochs
    refs = references_of(train)
    scorer = metrics.CiderScorer(refs)
    ref_by_id = {s.id: r for s, r in zip(train, refs)}

    def batch_loss(batch, indices, epoch):
        scenes = encode_batch(params, cfg, batch, vocab)
        rngs = [_epoch_rng(cfg.seed, 303, epoch, int(i)) for i in indices]
        taught, rewards = [], []  # taught: (Scene, sampled ids, advantage)
        rollouts = lockstep_decode(params, cfg, batch, scenes, rngs)
        for s, scene, sampled, (greedy_ids, _) in zip(batch, scenes, *rollouts):
            r_s = scorer.sentence(caption_tokens(vocab, sampled), ref_by_id[s.id])
            advantage = r_s - scorer.sentence(caption_tokens(vocab, greedy_ids), ref_by_id[s.id])
            rewards.append(r_s)
            if advantage != 0.0:  # otherwise its rows of the batch's encode get no gradient
                taught.append((scene, sampled, advantage))
        if not taught:
            return None, rewards
        scenes, sampled, advantages = zip(*taught)
        logits = caption_logits(params, cfg, list(scenes), [[BOS_ID] + ids[:-1] for ids in sampled])
        return reinforce_loss(logits, sampled, advantages), rewards

    out = _optimize("SCST", train, val, cfg, params, vocab, epochs, start_step, batch_loss,
                    lambda step: cfg.scst_lr, shuffle_tag=202, report="epoch {}: mean sampled reward {:.4f}", log=log)
    if epochs > 0 and all(reward == 0.0 for _, reward in out.curve):
        out.diagnostics["warning"] = "reward was identically zero for every epoch"
    return out


# ------------------------------------------------------------- checkpoints

CHECKPOINT_FORMAT = "gevst-checkpoint-v3"


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


def _layout_mismatch(entries, expected, source="checkpoint"):
    """What first differs between a manifest of `source` and the model's."""
    shapes = {e["name"]: e["shape"] for e in expected}
    for entry in entries:
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str) or name not in shapes:
            return f"{source} names unknown parameter {name!r}"
        if entry.get("shape") != shapes[name]:
            return f"parameter {name!r}: {source} shape {entry.get('shape')} != model shape {shapes[name]}"
    missing = sorted(set(shapes) - {e["name"] for e in entries})
    if missing:
        return f"{source} missing parameters: {missing[:3]}..."
    return f"{source} manifest order or offsets differ from the model layout"


def load_checkpoint(path):
    """Returns (cfg, vocab, params, trained_steps); forward passes reproduce
    the saved model bit-identically."""
    with open(path, "rb") as f:
        try:
            header = parse_json(f.readline())
        except ParseError:
            raise ParseError("checkpoint header is not valid JSON", line=1) from None
        header = header if isinstance(header, dict) else {}
        if header.get("format") != CHECKPOINT_FORMAT:
            raise SchemaError(f"unrecognized checkpoint format {header.get('format')!r}, not {CHECKPOINT_FORMAT!r}")
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
        params = model_layout(cfg, len(vocab), np.empty)[1]
        flat = flat_parameters(params)
        expected = _manifest(params)
        if header["params"] != expected:
            raise SchemaError(_layout_mismatch(header["params"], expected))
        if header.get("data_bytes") != flat.nbytes:
            raise SchemaError(f"checkpoint data_bytes {header.get('data_bytes')!r} != model's {flat.nbytes}")
        got = f.readinto(flat)
        if got < flat.nbytes:
            raise ParseError(f"checkpoint truncated: {got} of {flat.nbytes} parameter bytes")
        if f.read(1):
            raise ParseError("checkpoint has trailing bytes after the parameters")
    if sys.byteorder != "little":
        flat.byteswap(inplace=True)
    if not (np.isfinite(flat.min()) and np.isfinite(flat.max())):  # NaN propagates; no full-length temporary
        raise ParseError("checkpoint holds non-finite parameter values")
    return cfg, vocab, params, steps


def write_curve(path, rows, value_name="value"):
    with open(path, "w") as f:
        f.write(f"epoch,{value_name}\n")
        for epoch, value in rows:
            f.write(f"{epoch},{value!r}\n")
