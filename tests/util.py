"""Converters from parameter dataclasses to the plain-list oracle inputs,
small helpers shared across test modules (among them `miniature_config`,
the smallest legal end-to-end setting), and earlier forms kept as
references: the separate XE and SCST training loops that `training._optimize`
replaced, the decoder that passed projections in as callbacks, and the
one-scene `CachedDecoder` that the many-scene one replaced."""

import math

import numpy as np

import oracles as O
from gevst import metrics
from gevst import tensor as T
from gevst import training as TR
from gevst.config import BRANCH_NAMES, TrainConfig
from gevst.data import BOS_ID, build_vocab, corpus_texts, pad_ids, split_train_val
from gevst.decoder import _check_bos, _log_probs, causal_mask, cross_keys_values, decoder_layer
from gevst.errors import ContractError, TrainingDiverged
from gevst.model import caption_logits, init_model
from gevst.nn import Tensor, attend, ffn, layer_norm, linear, named_parameters, sinusoidal_positions


def miniature_config(**overrides):
    """The smallest legal end-to-end setting, used by gradient checks."""
    base = dict(
        d_model=16, heads=2, expand_ratio=2, fusion_cells=1, layers=2,
        raw_feat_dim=8, enc_width=16, enc_heads=2, enc_layers=3,
        batch_size=2, val_every=1,
    )
    base.update(overrides)
    return TrainConfig(**base)


def lin(p):
    return (O.mat(p.w.data), O.vec(p.b.data))


def additive6(att):
    """AdditiveAttention -> (wq, bq, wk, bk, wo, bo) for the oracle."""
    return (*lin(att.v_proj), *lin(att.s_proj), O.mat(att.out.w.data), O.vec(att.out.b.data))


def ln2(p):
    return (O.vec(p.gain.data), O.vec(p.bias.data))


def ffn4(p):
    return (O.mat(p.inner.w.data), O.vec(p.inner.b.data),
            O.mat(p.outer.w.data), O.vec(p.outer.b.data))


def fusion_oracle_params(cell):
    return {
        "content": additive6(cell.content) if cell.content is not None else None,
        "geometry": additive6(cell.geometry) if cell.geometry is not None else None,
        "v_exp": lin(cell.v_exp),
        "s_exp": lin(cell.s_exp),
    }


def gesa_oracle_params(lp):
    return {
        "q_c": lin(lp.q_c), "k_c": lin(lp.k_c), "v_c": lin(lp.v_c),
        "q_intra": lin(lp.q_intra) if lp.q_intra is not None else None,
        "k_intra": lin(lp.k_intra) if lp.k_intra is not None else None,
        "q_inter": lin(lp.q_inter) if lp.q_inter is not None else None,
        "k_inter": lin(lp.k_inter) if lp.k_inter is not None else None,
        "gate": lin(lp.gate), "ln1": ln2(lp.ln1), "ln2": ln2(lp.ln2), "ffn": ffn4(lp.ffn),
    }


def decoder_oracle_layers(layers):
    out = []
    for lp in layers:
        out.append({
            "self_q": lin(lp.self_q), "self_k": lin(lp.self_k), "self_v": lin(lp.self_v),
            "ln1": ln2(lp.ln1), "ln2": ln2(lp.ln2), "ln3": ln2(lp.ln3), "ffn": ffn4(lp.ffn),
            "cross": {b: (*lin(c.q), *lin(c.k), *lin(c.v)) for b, c in lp.cross.items()},
            "mod": {b: lin(m) for b, m in lp.mod.items()},
        })
    return out


def randomize(params_obj, rng, scale=0.4):
    """Replace every parameter (biases included) with random values so the
    zero-init biases don't mask missing terms in a comparison."""
    for _, t in named_parameters(params_obj):
        t.data = rng.normal(0.0, scale, size=t.data.shape)


def max_abs_delta(a, b):
    return float(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)).max())


def batched(step):
    """A per-prefix rig `step(prefix) -> log-prob row` as the batched
    `step(prefixes) -> [len(prefixes) x V]` call that decoding makes."""
    return lambda prefixes: np.stack([step(list(p)) for p in prefixes])


def grad_check(f, x, eps=1e-5, max_coords=None, rng=None, floor=1e-8):
    """Compare reverse-mode d f/d x against central differences.

    f maps the Tensor x (and whatever it closes over) to a scalar Tensor.
    Relative error per coordinate is |a - n| / max(|a|, |n|, floor); the max
    over checked coordinates is returned. max_coords samples that many
    coordinates with rng instead of sweeping all of them.

    floor turns the ratio into an absolute comparison for coordinates whose
    gradient is near zero (an attention key bias, say, cancels inside softmax
    and backs an exactly-zero gradient): there the difference |a - n| is pure
    finite-difference noise and dividing by it would measure nothing.
    """
    if not x.requires_grad:
        raise ContractError("grad_check target must require grad")
    x.grad = None
    with T.Tape() as tape:
        y = f(x)
        if y.data.size != 1:
            raise ContractError(f"grad_check needs a scalar-valued f, got shape {y.data.shape}")
        tape.backward(y)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad
    aflat = analytic.reshape(-1)
    flat = x.data.reshape(-1)
    n = flat.size
    if max_coords is not None and max_coords < n:
        if rng is None:
            rng = np.random.default_rng(0)
        coords = rng.choice(n, size=max_coords, replace=False)
    else:
        coords = range(n)
    worst = 0.0
    with T.no_grad():
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f(x).data)
            flat[i] = orig - eps
            fm = float(f(x).data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            a = aflat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            if rel > worst:
                worst = rel
    return worst


# ------------------------------------------------ reference training loops
#
# The XE and SCST loops as they stood before they shared `training._optimize`,
# except that each takes its batch loss from the package: one teacher-forced
# pass over the batch (`caption_logits` on lists of scenes), scored by
# `xe_loss` or `reinforce_loss`. They backpropagate into Tensor.grad, where the
# package adds gradients straight into the optimizer's vector. Every package
# function is looked up on its module at call time, so a test that
# monkeypatches `training` changes both these loops and the package's.


def reference_train_xe(samples, cfg, epochs=None, params=None, vocab=None,
                       start_step=0, log=None, stop_fn=None):
    train, val = split_train_val(samples)
    if vocab is None:
        vocab = build_vocab(corpus_texts(train), cfg.min_count)
    if params is None:
        params = init_model(cfg, len(vocab), np.random.default_rng(np.random.SeedSequence([cfg.seed, 11])))
    epochs = cfg.xe_epochs if epochs is None else epochs

    steps_per_epoch = max(1, math.ceil(len(train) / cfg.batch_size))
    warmup_steps = cfg.warmup_epochs * steps_per_epoch
    opt = TR.Adam(params)
    step = start_step

    curve = []
    best_snapshot, best_epoch, best_val = opt.params.copy(), 0, -1.0
    clip_events = 0

    for epoch in range(1, epochs + 1):
        order = TR._epoch_rng(cfg.seed, 101, epoch).permutation(len(train))
        loss_total = 0.0
        for batch in TR._batches(order, cfg.batch_size):
            opt.zero_grads()
            with T.Tape() as tape:
                branches, inputs, targets = [], [], []
                for idx in batch:
                    s = train[int(idx)]
                    branches.append(TR.encode_sample(params, cfg, s, vocab))
                    pair = TR.teacher_pair(vocab, s.gt_captions[0])
                    inputs.append(pair[0])
                    targets.append(pair[1])
                loss = TR.xe_loss(caption_logits(params, cfg, branches, inputs), pad_ids(targets))
                batch_loss = T.mul(loss, 1.0 / len(batch))
                tape.backward(batch_loss)
            del tape
            value = batch_loss.item()
            if not math.isfinite(value):
                raise TrainingDiverged(f"XE loss became {value} at epoch {epoch}")
            loss_total += value * len(batch)
            if TR.clip_gradients(opt, cfg.grad_clip) > cfg.grad_clip:
                clip_events += 1
            step += 1
            opt.step(TR.noam_lr(step, cfg.d_model, warmup_steps) * cfg.lr_scale)
        epoch_loss = loss_total / len(train)
        curve.append((epoch, epoch_loss))
        if log:
            log(f"epoch {epoch}: loss {epoch_loss:.6f}")

        stop = stop_fn is not None and stop_fn(epoch, epoch_loss)
        if epoch % cfg.val_every == 0 or epoch == epochs or stop:
            score = TR.corpus_cider(params, cfg, vocab, val or train)
            if score > best_val:
                best_snapshot, best_epoch, best_val = opt.params.copy(), epoch, score
        if stop:
            break

    return TR.TrainOutcome(params, vocab, cfg, curve, best_snapshot, best_epoch, best_val,
                           trained_steps=step, diagnostics={"clip_events": clip_events})


def reference_train_scst(samples, cfg, params, vocab, epochs=None, start_step=0, log=None):
    train, val = split_train_val(samples)
    epochs = cfg.scst_epochs if epochs is None else epochs
    refs = TR.references_of(train)
    scorer = metrics.CiderScorer(refs)
    ref_by_id = {s.id: r for s, r in zip(train, refs)}

    opt = TR.Adam(params)
    step = start_step

    curve = []
    best_snapshot, best_epoch, best_val = opt.params.copy(), 0, -1.0
    zero_reward_epochs = 0

    for epoch in range(1, epochs + 1):
        order = TR._epoch_rng(cfg.seed, 202, epoch).permutation(len(train))
        reward_total = 0.0
        for batch in TR._batches(order, cfg.batch_size):
            opt.zero_grads()
            with T.Tape() as tape:
                taught = []
                for idx in batch:
                    s = train[int(idx)]
                    sample_rng = TR._epoch_rng(cfg.seed, 303, epoch, int(idx))
                    sampled, greedy_ids = TR.scst_rollouts(params, cfg, vocab, s, sample_rng)
                    r_s = scorer.sentence(TR.caption_tokens(vocab, sampled), ref_by_id[s.id])
                    r_g = scorer.sentence(TR.caption_tokens(vocab, greedy_ids), ref_by_id[s.id])
                    reward_total += r_s
                    advantage = r_s - r_g
                    if advantage == 0.0:
                        continue
                    taught.append((TR.encode_sample(params, cfg, s, vocab), sampled, advantage))
                if not taught:
                    continue
                branches, sampled, advantages = zip(*taught)
                logits = caption_logits(params, cfg, list(branches), [[BOS_ID] + ids[:-1] for ids in sampled])
                batch_loss = T.mul(TR.reinforce_loss(logits, sampled, advantages), 1.0 / len(batch))
                tape.backward(batch_loss)
            del tape
            if not math.isfinite(batch_loss.item()):
                raise TrainingDiverged(f"SCST loss became non-finite at epoch {epoch}")
            TR.clip_gradients(opt, cfg.grad_clip)
            step += 1
            opt.step(cfg.scst_lr)
        mean_reward = reward_total / len(train)
        curve.append((epoch, mean_reward))
        if mean_reward == 0.0:
            zero_reward_epochs += 1
        if log:
            log(f"epoch {epoch}: mean sampled reward {mean_reward:.4f}")

        if epoch % cfg.val_every == 0 or epoch == epochs:
            score = TR.corpus_cider(params, cfg, vocab, val or train)
            if score > best_val:
                best_snapshot, best_epoch, best_val = opt.params.copy(), epoch, score

    diagnostics = {}
    if zero_reward_epochs == epochs and epochs > 0:
        diagnostics["warning"] = "reward was identically zero for every epoch"
    return TR.TrainOutcome(params, vocab, cfg, curve, best_snapshot, best_epoch, best_val,
                           trained_steps=step, diagnostics=diagnostics)


# The decoder as it stood when attention took callbacks for its key and value
# projections: cross keys and values are projected inside each layer, after
# the queries, and the self attention is a closure over the layer's input.


def reference_attend(x_q, x_kv, q, k, v, h, mask=None, kv=linear):
    w = T.attention_weights(linear(x_q, q), kv(x_kv, k), h, mask=mask)
    return T.apply_attention(w, kv(x_kv, v), h)


def reference_modulated_multi_input(y, branch_outputs, layer, h, kv=linear):
    branches = [b for b in BRANCH_NAMES if b in branch_outputs]
    contexts, scores = [], []
    for b in branches:
        p = layer.cross[b]
        c = reference_attend(y, branch_outputs[b], p.q, p.k, p.v, h, kv=kv)
        contexts.append(c)
        scores.append(linear(T.concat([y, c], axis=1), layer.mod[b]))
    gates = [T.sigmoid(z) for z in scores]
    out = T.mul(gates[0], contexts[0])
    for g, c in zip(gates[1:], contexts[1:]):
        out = T.add(out, T.mul(g, c))
    return out


def reference_decoder_layer(y, lp, h, branch_outputs, self_attention, cross_kv=linear):
    y = layer_norm(T.add(y, self_attention(y, lp)), lp.ln1)
    att = reference_modulated_multi_input(y, branch_outputs, lp, h, kv=cross_kv)
    y = layer_norm(T.add(y, att), lp.ln2)
    return layer_norm(T.add(y, ffn(y, lp.ffn)), lp.ln3)


def reference_decoder_forward(layers, h, branch_outputs, embed, out_proj, token_ids):
    ids = list(token_ids)
    t_len, d = len(ids), embed.data.shape[1]
    y = T.add(T.embedding_lookup(embed, ids), Tensor(sinusoidal_positions(t_len, d).data))
    mask = causal_mask(h, t_len)

    def causal_self_attention(y, lp):
        return reference_attend(y, y, lp.self_q, lp.self_k, lp.self_v, h, mask=mask)

    for lp in layers:
        y = reference_decoder_layer(y, lp, h, branch_outputs, causal_self_attention)
    return linear(y, out_proj)


# The cached decoder as it stood before it took many scenes: one scene's
# branch outputs, plain prefixes, no cross-attention mask.


class ReferenceCachedDecoder:
    def __init__(self, layers, h, branch_outputs, embed, out_proj):
        self.layers, self.h, self.embed, self.out_proj = layers, h, embed, out_proj
        with T.no_grad():
            self.cross = cross_keys_values(layers, branch_outputs)
        self.rows = {(): 0}
        empty = np.zeros((1, 0, embed.data.shape[1]))
        self.self_kv = [(empty, empty)] * len(layers)

    def __call__(self, prefixes):
        prefixes = [tuple(p) for p in prefixes]
        if not prefixes:
            raise ContractError("a decoding step needs at least one prefix")
        parents = []
        for p in prefixes:
            _check_bos(p)
            if p[:-1] not in self.rows:
                raise ContractError(f"prefix {list(p)} extends no prefix of the previous step")
            parents.append(self.rows[p[:-1]])
        n, t, d = len(prefixes), len(prefixes[0]), self.embed.data.shape[1]
        grown = []
        with T.no_grad():
            pos = np.broadcast_to(sinusoidal_positions(t, d).data[t - 1], (n, d))
            y = T.add(T.embedding_lookup(self.embed, [p[-1] for p in prefixes]), Tensor(pos))
            for lp, cross, (keys, values) in zip(self.layers, self.cross, self.self_kv):
                y1 = T.reshape(y, (n, 1, d))
                k = T.concat([Tensor(keys[parents]), linear(y1, lp.self_k)], axis=1)
                v = T.concat([Tensor(values[parents]), linear(y1, lp.self_v)], axis=1)
                grown.append((k.data, v.data))
                context = T.reshape(attend(linear(y1, lp.self_q), k, v, self.h), (n, d))
                y = decoder_layer(y, context, lp, self.h, cross)
            logits = linear(y, self.out_proj).data
        self.self_kv = grown
        self.rows = {p: i for i, p in enumerate(prefixes)}
        return _log_probs(logits)
