"""Converters from parameter dataclasses to the plain-list oracle inputs,
small helpers shared across test modules (among them `miniature_config`,
the smallest legal end-to-end setting, and `engine_ops`, which counts the
engine ops a call runs), and earlier forms kept as references: the separate
XE and SCST training loops that `training._optimize` replaced, the decoder
that passed projections in as callbacks, the decoder inputs as they were
before Scenes (per-scene branch-output dicts, cut from the batch by
`scene_rows` and padded again by `pad_scenes`, and the `decoder_forward`
and `caption_logits` that took them), the per-branch cross-attention loop
that the branch axis replaced, the one-scene `CachedDecoder` that the
many-scene one replaced and the per-op step that its array kernel replaced
(`PerOpCachedDecoder`), the argmax greedy decode and the tuple-sorting
beam search that `decoder.decode` replaced (`argmax_decode`,
`stopping_beam_search`), beam search without its stop rule, the
whole-vector Adam step that the blocked `Adam.step` replaced, the
per-branch GESA loop and per-sample caption pass that the branch groups and
the batch's one caption-encoder pass replaced, the per-sample encode of a
batch that the padded, masked pass replaced, the batch encode that ran
every dense caption through the caption encoder, repeats too
(`every_caption_encode_scenes`), and the per-branch parameter
layout that the stored branch axes replaced: its init, a view of a stored
model in it (`per_branch`), the name map between the two (`name_map`) and
the per-call stacking that ran it (`restacked`); and init as it ran before
models were born flat, each leaf drawn into an array of its own, the branch
axes `np.stack`-ed and the whole concatenated (`reference_init_model`, with
that concatenation as `flatten`)."""

import dataclasses
import math

import numpy as np

import oracles as O
from gevst import metrics
from gevst import tensor as T
from gevst import training as TR
from gevst import caption_encoder, decoder, encoder, fusion, geometry, nn
from gevst.caption_encoder import CaptionEncoderParams, EncoderLayerParams, encode_captions
from gevst.config import BRANCH_NAMES, TrainConfig
from gevst.data import BOS_ID, EOS_ID, build_vocab, corpus_texts, pad_ids, split_train_val
from gevst.decoder import CrossAttentionParams, DecoderLayerParams, _check_bos, causal_bias
from gevst.encoder import (GesaLayerParams, active_groups, branch_forward, encode_all, needs_fusion,
                           variant_map_count)
from gevst.errors import ConfigError, ContractError, ShapeError, TrainingDiverged
from gevst.fusion import AdditiveAttention, FusionCellParams, stack_fusion
from gevst.geometry import embed_geometry, normalize_boxes
from gevst import model as M
from gevst.model import ModelParams, Scene, caption_ids, init_model
from gevst.nn import (Ffn, LayerNorm, Layout, Linear, Tensor, attend, bind_flat, ffn, flat_views, layer_norm, linear,
                      named_parameters, parameters, real_mean, sinusoidal_positions)


def born_flat(init):
    """An init function `init(layout, ...)` as tests call it, with a generator
    in the layout's place: its layout pass, bound to a vector of its own
    (`nn.bind_flat`) and drawn from that generator."""
    def run(rng, *args, **kwargs):
        layout = Layout()
        obj = init(layout, *args, **kwargs)
        bind_flat(obj)
        layout.draw(rng)
        return obj
    return run


(init_linear, init_ffn, init_embedding, init_geometry, init_fusion_cell, init_caption_encoder, init_gesa_group,
 init_decoder_layer) = map(born_flat, (nn.init_linear, nn.init_ffn, nn.init_embedding, geometry.init_geometry,
                                       fusion.init_fusion_cell, caption_encoder.init_caption_encoder,
                                       encoder.init_gesa_group, decoder.init_decoder_layer))


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


def decoder_oracle_layers(layers, branches):
    out = []
    for lp in per_branch(layers, branches):
        out.append({
            "self_q": lin(lp.self_q), "self_k": lin(lp.self_k), "self_v": lin(lp.self_v),
            "ln1": ln2(lp.ln1), "ln2": ln2(lp.ln2), "ln3": ln2(lp.ln3), "ffn": ffn4(lp.ffn),
            "cross": {b: (*lin(c.q), *lin(c.k), *lin(c.v)) for b, c in lp.cross.items()},
            "mod": {b: lin(m) for b, m in lp.mod.items()},
        })
    return out


def randomize(params_obj, rng, scale=0.4):
    """Write random values into every parameter (biases included), in place,
    so the zero-init biases don't mask missing terms in a comparison. They
    are drawn in the per-branch layout's order (`per_branch`), so a model
    gets the values its per-branch form got."""
    for t in parameters(per_branch(params_obj)):
        t.data[...] = rng.normal(0.0, scale, size=t.data.shape)


def copy_values(dst, src):
    """Write each parameter of src into the matching one of dst, in place."""
    for d, s in zip(parameters(dst), parameters(src), strict=True):
        d.data[...] = s.data


def max_abs_delta(a, b):
    return float(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)).max())


def batched(step):
    """A per-prefix rig `step(prefix) -> log-prob row` as the batched
    `step(prefixes) -> [len(prefixes) x V]` call that decoding makes."""
    return lambda prefixes: np.stack([step(list(p)) for p in prefixes])


def grad_check(f, x, eps=1e-5, max_coords=None, rng=None, floor=1e-8, part=None):
    """Compare reverse-mode d f/d x against central differences.

    f maps the Tensor x (and whatever it closes over) to a scalar Tensor.
    Relative error per coordinate is |a - n| / max(|a|, |n|, floor); the max
    over checked coordinates is returned. max_coords samples that many
    coordinates with rng instead of sweeping all of them. `part`, an index
    into x's leading axis, checks only the coordinates of that slice (one
    branch's share of a stored [k x ...] tensor, see `stored_slice`).

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
    data = x.data
    if part is not None:
        analytic, data = analytic[part], data[part]
    aflat = analytic.reshape(-1)
    flat = data.reshape(-1)
    assert np.shares_memory(flat, x.data)
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
# except that each takes its batch loss from the package: the batch encoded
# by `training.encode_batch`, then one teacher-forced pass over the batch
# (`model.caption_logits` on lists of Scenes), scored by `xe_loss` or
# `reinforce_loss`. They backpropagate into Tensor.grad and move
# it into the optimizer's vector (`move_grads`), where the package's backward
# adds gradients straight into that vector. Every package
# function is looked up on its module at call time, so a test that
# monkeypatches `training` changes both these loops and the package's.


def reference_cider_sentence(scorer, cand, refs):
    """`CiderScorer.sentence` vectorizing every reference on every call, as it
    did before the scorer kept each reference's vectors."""
    cand_vecs = scorer._vec(cand)
    acc = [0.0] * scorer.n
    for r in refs:
        ref_vecs = scorer._vec(r)
        delta = float(len(cand) - len(r))
        penalty = math.exp(-(delta * delta) / (2.0 * scorer.sigma * scorer.sigma))
        for k in range(scorer.n):
            cv, cn = cand_vecs[k]
            rv, rn = ref_vecs[k]
            if cn == 0.0 or rn == 0.0:
                continue
            num = sum(min(val, rv[gram]) * rv[gram] for gram, val in cv.items() if gram in rv)
            acc[k] += penalty * num / (cn * rn)
    per_n = [10.0 * a / len(refs) for a in acc]
    return sum(per_n) / scorer.n


def reference_adam_step(opt, lr):
    """`TR.Adam.step` as one pass over the whole flat vectors: the same NumPy
    calls in the same order, each making full-length temporaries."""
    g = opt.grad
    opt.t += 1
    b1, b2 = opt.beta1, opt.beta2
    opt.m *= b1
    opt.m += (1.0 - b1) * g
    opt.v *= b2
    opt.v += (1.0 - b2) * g * g
    update = lr * (opt.m / (1.0 - b1 ** opt.t))
    np.sqrt(np.divide(opt.v, 1.0 - b2 ** opt.t, out=g), out=g)
    g += opt.eps
    update /= g
    opt.params -= update
    g.fill(0.0)


def move_grads(opt, params):
    """Add each parameter's Tensor.grad into its view of `opt.grad` and clear it."""
    tensors = parameters(params)
    for t, g in zip(tensors, flat_views(opt.grad, tensors)):
        if t.grad is not None:
            g += t.grad
            t.grad = None


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
            with T.Tape() as tape:
                samples_of_batch = [train[int(idx)] for idx in batch]
                branches = TR.encode_batch(params, cfg, samples_of_batch, vocab)
                inputs, targets = [], []
                for s in samples_of_batch:
                    pair = TR.teacher_pair(vocab, s.gt_captions[0])
                    inputs.append(pair[0])
                    targets.append(pair[1])
                loss = TR.xe_loss(M.caption_logits(params, cfg, branches, inputs), pad_ids(targets))
                batch_loss = T.mul(loss, 1.0 / len(batch))
                tape.backward(batch_loss)
            del tape
            move_grads(opt, params)
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
            with T.Tape() as tape:
                encoded = TR.encode_batch(params, cfg, [train[int(idx)] for idx in batch], vocab)
                taught = []
                for idx, branch in zip(batch, encoded):
                    s = train[int(idx)]
                    sample_rng = TR._epoch_rng(cfg.seed, 303, epoch, int(idx))
                    sampled, greedy_ids = TR.scst_rollouts(params, cfg, vocab, s, sample_rng)
                    r_s = scorer.sentence(TR.caption_tokens(vocab, sampled), ref_by_id[s.id])
                    r_g = scorer.sentence(TR.caption_tokens(vocab, greedy_ids), ref_by_id[s.id])
                    reward_total += r_s
                    advantage = r_s - r_g
                    if advantage == 0.0:
                        continue
                    taught.append((branch, sampled, advantage))
                if not taught:
                    continue
                branches, sampled, advantages = zip(*taught)
                logits = M.caption_logits(params, cfg, list(branches), [[BOS_ID] + ids[:-1] for ids in sampled])
                batch_loss = T.mul(TR.reinforce_loss(logits, sampled, advantages), 1.0 / len(batch))
                tape.backward(batch_loss)
            del tape
            move_grads(opt, params)
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
# It reads the stored layers in the per-branch layout (`per_branch`), as do
# the branch loop and the one-scene cached decoder below.


def reference_attend(x_q, x_kv, q, k, v, h, bias=None, kv=linear):
    w = T.attention_weights(linear(x_q, q), kv(x_kv, k), h, bias=bias)
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
    layers = per_branch(layers, [b for b in BRANCH_NAMES if b in branch_outputs])
    ids = list(token_ids)
    t_len, d = len(ids), embed.data.shape[1]
    y = T.add(T.embedding_lookup(embed, ids), Tensor(sinusoidal_positions(t_len, d).data))
    bias = causal_bias(t_len)

    def causal_self_attention(y, lp):
        return reference_attend(y, y, lp.self_q, lp.self_k, lp.self_v, h, bias=bias)

    for lp in layers:
        y = reference_decoder_layer(y, lp, h, branch_outputs, causal_self_attention)
    return linear(y, out_proj)


# The decoder's inputs as they were before Scenes: each scene cut out of its
# batch as a {branch: [N x d]} dict of its real rows (`scene_rows`, one
# `index` per branch), and the dicts padded again onto the branch axis
# (`pad_scenes`), the reference that `model.branch_axis` is held to.


def _check_scenes(scenes):
    if not scenes:
        raise ContractError("a decoder needs the branch outputs of at least one scene")
    if any(set(s) != set(scenes[0]) for s in scenes):
        raise ContractError("every scene must have the same branch outputs")
    if any(len(out.data) == 0 for s in scenes for out in s.values()):
        raise ContractError("every branch output of every scene needs at least one row to attend to")


def pad_scenes(scenes):
    """Many scenes' branch outputs on one branch axis: (branches, [k x S x N x
    d], bool [k x S x N]), the k active branches in BRANCH_NAMES order and N
    the longest branch output of any scene. Entry [i, s] holds branch i of
    scene s, its rows first, zero rows after them, and the padding is True at
    those zero rows (`nn.pad_rows`)."""
    _check_scenes(scenes)
    branches = tuple(b for b in BRANCH_NAMES if b in scenes[0])
    if not branches:
        raise ConfigError("decoder needs at least one branch output")
    outs = [s[b] for b in branches for s in scenes]
    counts = np.array([len(out.data) for out in outs]).reshape(len(branches), len(scenes))
    return (branches, *nn.pad_rows(outs, counts))


def scene_rows(scene):
    """A Scene's real rows of its batch, {branch: [N_branch x d]}, one `index`
    per branch, as `model.encode_sample` handed them out before Scenes."""
    batch, i = scene.batch, scene.index
    rows = {"v": batch.regions[i], "s": batch.captions[i]}
    return {b: T.index(out, (i, slice(0, rows[b[0]]))) for b, out in batch.outputs.items()}


def decoder_forward(layers, h, scenes, embed, out_proj, token_ids):
    """`decoder.decoder_forward` on branch-output dicts, as it took them
    before Scenes: a list of B dicts and of B id sequences give [B x T x V],
    one dict and one sequence [T x V], the dicts padded by `pad_scenes`."""
    one = isinstance(scenes, dict)
    scenes, seqs = ([scenes], [token_ids]) if one else (scenes, token_ids)
    logits = decoder.decoder_forward(layers, h, pad_scenes(scenes), embed, out_proj, seqs)
    return T.reshape(logits, logits.data.shape[1:]) if one else logits


def caption_logits(params, cfg, scenes, token_ids):
    """`model.caption_logits` on Scenes, and on branch-output dicts the same
    pass through `decoder_forward` above."""
    if isinstance(scenes, Scene) or isinstance(scenes, list) and isinstance(scenes[0], Scene):
        return M.caption_logits(params, cfg, scenes, token_ids)
    return decoder_forward(params.dec_layers, cfg.heads, scenes, params.dec_embed, params.out, token_ids)


# The decoder's cross-attention as it stood before the branch axis: one
# attention, one gate and one product per branch, in a loop, each branch's
# outputs padded to that branch's longest scene.


def branch_loop_pad_scenes(scenes):
    """({branch: [S x longest x d]}, {branch: bool [S x longest]})."""
    _check_scenes(scenes)
    padded, padding = {}, {}
    for b in scenes[0]:
        outs = [s[b] for s in scenes]
        counts = np.array([len(out.data) for out in outs])
        padding[b] = np.arange(counts.max())[None, :] >= counts[:, None]
        rows = np.full(padding[b].shape, counts.sum())
        rows[~padding[b]] = np.arange(counts.sum())
        zero = Tensor(np.zeros((1, outs[0].data.shape[1])))
        padded[b] = T.embedding_lookup(T.concat(outs + [zero]), rows)
    return padded, padding


def branch_loop_keys_values(layers, branch_outputs, biases=None):
    """Per layer, {branch: (keys, values, key bias)}."""
    branches = [b for b in BRANCH_NAMES if b in branch_outputs]
    biases = biases or {}
    return [{b: (linear(branch_outputs[b], lp.cross[b].k), linear(branch_outputs[b], lp.cross[b].v), biases.get(b))
             for b in branches} for lp in layers]


def branch_loop_context(q, entry, h):
    k, v, bias = entry
    if k.data.ndim == q.data.ndim:
        return attend(q, k, v, h, bias=bias)
    n, d = q.data.shape
    return T.reshape(attend(T.reshape(q, (n, 1, d)), k, v, h, bias=bias), (n, d))


def branch_loop_modulated_multi_input(y, cross, layer, h):
    contexts, scores = [], []
    for b, entry in cross.items():
        c = branch_loop_context(linear(y, layer.cross[b].q), entry, h)
        contexts.append(c)
        scores.append(linear(T.concat([y, c], axis=-1), layer.mod[b]))
    gates = list(map(T.sigmoid, scores))
    out = T.mul(gates[0], contexts[0])
    for g, c in zip(gates[1:], contexts[1:]):
        out = T.add(out, T.mul(g, c))
    return out


def branch_loop_decoder_layer(y, self_context, lp, h, cross):
    y = layer_norm(T.add(y, self_context), lp.ln1)
    y = layer_norm(T.add(y, branch_loop_modulated_multi_input(y, cross, lp, h)), lp.ln2)
    return layer_norm(T.add(y, ffn(y, lp.ffn)), lp.ln3)


def branch_loop_decoder_forward(layers, h, scenes, embed, out_proj, seqs):
    """Teacher-forced [B x T x V] logits of B scenes and B BOS-led id sequences."""
    layers = per_branch(layers, [b for b in BRANCH_NAMES if b in scenes[0]])
    ids = pad_ids(seqs)
    t_len, d = ids.shape[1], embed.data.shape[1]
    padded, padding = branch_loop_pad_scenes(scenes)
    causal = causal_bias(t_len)
    biases = {b: nn.key_bias(p[:, None]) for b, p in padding.items()}
    positions = np.broadcast_to(sinusoidal_positions(t_len, d).data, ids.shape + (d,))
    y = T.add(T.embedding_lookup(embed, ids), Tensor(positions))
    for lp, cross in zip(layers, branch_loop_keys_values(layers, padded, biases)):
        context = attend(linear(y, lp.self_q), linear(y, lp.self_k), linear(y, lp.self_v), h, bias=causal)
        y = branch_loop_decoder_layer(y, context, lp, h, cross)
    return linear(y, out_proj)


def argmax_decode(step_fn, max_len):
    """`decoder.greedy_decode` as it stood before greedy became beam search
    of width 1: the argmax of each row (ties -> lowest token id); returns
    (generated ids, summed log-prob)."""
    ids = [BOS_ID]
    total = 0.0
    for _ in range(max_len):
        lp = step_fn([ids])[0]
        nxt = int(np.argmax(lp))  # first max = lowest token id on ties
        total += float(lp[nxt])
        ids.append(nxt)
        if nxt == EOS_ID:
            break
    return ids[1:], total


def stopping_beam_search(step_fn, beam, max_len):
    """`decoder.beam_search` as it stood before `decoder.decode` ranked on
    arrays: every (hypothesis, token) pair becomes a candidate tuple, all of
    them sorted by (-sum, ids), with the stop rule."""
    live = [((BOS_ID,), 0.0)]
    completed = []
    for _ in range(max_len):
        if not live:
            break
        candidates = []
        for (ids, cum), lp in zip(live, step_fn([ids for ids, _ in live])):
            for tok in range(len(lp)):
                candidates.append((ids + (tok,), cum + float(lp[tok])))
        candidates.sort(key=lambda c: (-c[1], c[0]))
        live = []
        for ids, cum in candidates[:beam]:
            if ids[-1] == EOS_ID:
                completed.append((ids, cum))
            else:
                live.append((ids, cum))
        if completed:  # stop once no live hypothesis can complete above the best completed one
            best = max(cum / (len(ids) - 1) for ids, cum in completed)
            if all(best > cum / max_len for _, cum in live):
                break
    pool = completed if completed else live
    scored = [(ids, cum, cum / (len(ids) - 1)) for ids, cum in pool]
    scored.sort(key=lambda c: (-c[2], c[0]))
    ids, cum, norm = scored[0]
    return list(ids[1:]), cum, norm


def reference_beam_search(step_fn, beam, max_len):
    """`decoder.beam_search` as it stood before its stop rule: it runs until
    every hypothesis completed or max_len tokens were generated."""
    live = [((BOS_ID,), 0.0)]
    completed = []
    for _ in range(max_len):
        if not live:
            break
        candidates = []
        for (ids, cum), lp in zip(live, step_fn([ids for ids, _ in live])):
            for tok in range(len(lp)):
                candidates.append((ids + (tok,), cum + float(lp[tok])))
        candidates.sort(key=lambda c: (-c[1], c[0]))
        live = []
        for ids, cum in candidates[:beam]:
            if ids[-1] == EOS_ID:
                completed.append((ids, cum))
            else:
                live.append((ids, cum))
    pool = completed if completed else live
    scored = [(ids, cum, cum / (len(ids) - 1)) for ids, cum in pool]
    scored.sort(key=lambda c: (-c[2], c[0]))
    ids, cum, norm = scored[0]
    return list(ids[1:]), cum, norm


def engine_ops(fn, *args):
    """(fn(*args), the number of engine ops it ran): calls of `T._emit`,
    with or without a tape."""
    emit, count = T._emit, [0]

    def counted(*a):
        count[0] += 1
        return emit(*a)

    T._emit = counted
    try:
        return fn(*args), count[0]
    finally:
        T._emit = emit


# The cached decoder as it stood before it took many scenes: one scene's
# branch outputs, plain prefixes, no cross-attention mask, and the branch loop.


class ReferenceCachedDecoder:
    def __init__(self, layers, h, branch_outputs, embed, out_proj):
        with T.no_grad():
            layers = per_branch(layers, [b for b in BRANCH_NAMES if b in branch_outputs])
            self.cross = branch_loop_keys_values(layers, branch_outputs)
        self.layers, self.h, self.embed, self.out_proj = layers, h, embed, out_proj
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
                y = branch_loop_decoder_layer(y, context, lp, self.h, cross)
            logprobs = T.log_softmax(linear(y, self.out_proj)).data
        self.self_kv = grown
        self.rows = {p: i for i, p in enumerate(prefixes)}
        return logprobs


# The many-scene cached decoder as it stood before its step ran on plain
# arrays: one engine op at a time, tapeless, on the layer body that teacher
# forcing runs, each row of many scenes gathering its scene's keys, values
# and padding.


class PerOpCachedDecoder:
    def __init__(self, layers, h, scenes, embed, out_proj):
        self.layers, self.h, self.embed, self.out_proj = layers, h, embed, out_proj
        self.scenes = scenes[1].data.shape[1]
        with T.no_grad():
            self.cross = decoder.cross_keys_values(layers, scenes)
        if self.scenes == 1:
            self.cross = [self._of_scenes(cross, 0) for cross in self.cross]
        self.rows = {(i, ()): 0 for i in range(self.scenes)}
        empty = np.zeros((1, 0, embed.data.shape[1]))
        self.self_kv = [(empty, empty)] * len(layers)

    @staticmethod
    def _of_scenes(cross, scenes):
        return dataclasses.replace(cross, keys=Tensor(cross.keys.data[:, scenes]),
                                   values=Tensor(cross.values.data[:, scenes]), bias=cross.bias[:, scenes])

    def _layer(self, y, context, lp, cross):
        """`decoder.decoder_layer` with the cross sublayer over one [N x d]
        block of keys per row when those were gathered by scene."""
        if self.scenes == 1:
            return decoder.decoder_layer(y, context, lp, self.h, cross)
        n, d = y.data.shape
        y = layer_norm(T.add(y, context), lp.ln1)
        mixed = decoder.modulated_multi_input(T.reshape(y, (n, 1, d)), cross, lp, self.h)
        y = layer_norm(T.add(y, T.reshape(mixed, (n, d))), lp.ln2)
        return layer_norm(T.add(y, ffn(y, lp.ffn)), lp.ln3)

    def __call__(self, rows):
        rows = [(scene, tuple(p)) for scene, p in rows]
        if not rows:
            raise ContractError("a decoding step needs at least one prefix")
        parents = []
        for scene, p in rows:
            if scene not in range(self.scenes):
                raise ContractError(f"row names scene {scene!r}, but the decoder holds {self.scenes} scenes")
            _check_bos(p)
            if (scene, p[:-1]) not in self.rows:
                raise ContractError(f"prefix {list(p)} of scene {scene} extends no prefix of the previous step")
            parents.append(self.rows[scene, p[:-1]])
        n, t, d = len(rows), len(rows[0][1]), self.embed.data.shape[1]
        grown = []
        with T.no_grad():
            crosses = self.cross
            if self.scenes > 1:
                crosses = [self._of_scenes(cross, np.array([scene for scene, _ in rows])) for cross in self.cross]
            pos = np.broadcast_to(sinusoidal_positions(t, d).data[t - 1], (n, d))
            y = T.add(T.embedding_lookup(self.embed, [p[-1] for _, p in rows]), Tensor(pos))
            for lp, cross, (keys, values) in zip(self.layers, crosses, self.self_kv):
                y1 = T.reshape(y, (n, 1, d))
                k = T.concat([Tensor(keys[parents]), linear(y1, lp.self_k)], axis=1)
                v = T.concat([Tensor(values[parents]), linear(y1, lp.self_v)], axis=1)
                grown.append((k.data, v.data))
                context = T.reshape(attend(linear(y1, lp.self_q), k, v, self.h), (n, d))
                y = self._layer(y, context, lp, cross)
            logprobs = T.log_softmax(linear(y, self.out_proj)).data
        self.self_kv = grown
        self.rows = {row: i for i, row in enumerate(rows)}
        return logprobs


# The GESA encoder as it stood before branch groups: each branch on its own
# (with its layers in the per-branch layout, `per_branch`), its geometry maps
# projected layer by layer, and each sample's dense captions encoded in a
# pass of their own.


def branch_loop_gesa_layer(x_prev, g_intra, g_inter, params, h):
    maps = [T.attention_weights(linear(x_prev, params.q_c), linear(x_prev, params.k_c), h)]
    for kind, g, q, k in (("intra", g_intra, params.q_intra, params.k_intra),
                          ("inter", g_inter, params.q_inter, params.k_inter)):
        if q is None:
            continue
        if g.data.shape != x_prev.data.shape:
            raise ShapeError(f"{kind}-geometry shape {g.data.shape} != content shape {x_prev.data.shape}")
        maps.append(T.attention_weights(linear(g, q), linear(g, k), h))
    gates = T.softmax(real_mean(linear(x_prev, params.gate), None))
    T.record("gesa_gates", gates)
    attended = T.apply_attention(T.mix_maps(maps, gates), linear(x_prev, params.v_c), h)
    a = layer_norm(T.add(x_prev, attended), params.ln1)
    return layer_norm(T.add(a, ffn(a, params.ffn)), params.ln2)


def branch_loop_encode_all(v_con, v_geo, s_con, s_geo, fusion_vs, fusion_sv, groups, h, er):
    branch_layers = per_branch(groups)
    active = list(branch_layers)
    need_vs, need_sv = needs_fusion(active)
    vs_out = sv_out = None
    if need_vs:
        with T.scope("fusion_vs"):
            vs_out = stack_fusion(fusion_vs, er, v_con, v_geo, s_con, s_geo)
    if need_sv:
        with T.scope("fusion_sv"):
            sv_out = stack_fusion(fusion_sv, er, s_con, s_geo, v_con, v_geo)
    inputs = {
        "ss": lambda: (s_con, s_geo, sv_out.inter_geometry),
        "sv": lambda: (sv_out.fused_content, s_geo, sv_out.inter_geometry),
        "vs": lambda: (vs_out.fused_content, v_geo, vs_out.inter_geometry),
        "vv": lambda: (v_con, v_geo, vs_out.inter_geometry),
    }
    outputs = {}
    for b in active:
        x, g_intra, g_inter = inputs[b]()
        with T.scope(b):
            for lp in branch_layers[b]:
                x = branch_loop_gesa_layer(x, g_intra, g_inter, lp, h)
        outputs[b] = x
    return outputs


def branch_loop_encode_sample(params, cfg, sample, vocab):
    """`model.encode_sample` with the sample's own caption pass and the per-branch loop."""
    v_con, v_geo, s_geo = scene_inputs(params, sample)
    s_con = encode_captions(params.captions, cfg.enc_heads, caption_ids(sample, vocab))
    return branch_loop_encode_all(v_con, v_geo, s_con, s_geo, params.fusion_vs, params.fusion_sv,
                                  params.branches, cfg.heads, cfg.expand_ratio)


# The per-sample encode of a training batch that the padded, masked pass
# replaced: one caption-encoder pass for the batch, each sample taking its
# rows, then each sample's regions, boxes, fusion and GESA on their own, at
# [N x d].


def scene_inputs(params, sample):
    """One sample's projected region features and its two geometry embeddings."""
    v_con = linear(Tensor(np.stack([r.feat for r in sample.regions])), params.vis_in)
    v_geo = embed_geometry(normalize_boxes([r.box for r in sample.regions], sample.image_wh), params.geo_visual)
    s_geo = embed_geometry(normalize_boxes([dc.box for dc in sample.dense_captions], sample.image_wh),
                           params.geo_semantic)
    return v_con, v_geo, s_geo


def per_sample_encode_batch(params, cfg, samples, vocab):
    """Each sample's branch outputs, its fusion and GESA run on its own."""
    ids = [caption_ids(s, vocab) for s in samples]
    encoded = encode_captions(params.captions, cfg.enc_heads, [seq for seqs in ids for seq in seqs])
    bounds = np.cumsum([0] + [len(seqs) for seqs in ids]).tolist()
    outputs = []
    for s, lo, hi in zip(samples, bounds[:-1], bounds[1:]):
        v_con, v_geo, s_geo = scene_inputs(params, s)
        outputs.append(encode_all(v_con, v_geo, T.index(encoded, slice(lo, hi)), s_geo, params.fusion_vs,
                                  params.fusion_sv, params.branches, cfg.heads, cfg.expand_ratio))
    return outputs


def every_caption_encode_scenes(params, cfg, samples, vocab):
    """`model.encode_scenes` as it was before each distinct dense caption was
    encoded once: every dense caption of the pass through the caption
    encoder, repeats too, and each scene's rows gathered from consecutive
    starts. Returns a SceneBatch."""
    feats, v_boxes = zip(*(M._region_rows(cfg, s) for s in samples))
    ids = [caption_ids(s, vocab) for s in samples]
    s_boxes = [normalize_boxes([dc.box for dc in s.dense_captions], s.image_wh) for s in samples]
    (feats, v_padding), (v_boxes, _), (s_boxes, s_padding) = M._padded(feats), M._padded(v_boxes), M._padded(s_boxes)
    v_con = linear(Tensor(feats), params.vis_in)
    v_geo = embed_geometry(v_boxes, params.geo_visual)
    captions = encode_captions(params.captions, cfg.enc_heads, [seq for seqs in ids for seq in seqs])
    captions = nn.pad_rows([captions], [len(seqs) for seqs in ids])[0]
    s_geo = embed_geometry(s_boxes, params.geo_semantic)
    outputs = encode_all(v_con, v_geo, captions, s_geo, params.fusion_vs, params.fusion_sv, params.branches,
                         cfg.heads, cfg.expand_ratio, v_padding, s_padding)
    return M.SceneBatch(outputs, [len(s.regions) for s in samples], [len(s.dense_captions) for s in samples])


def gesa_layer(x, g_intra, g_inter, group, h):
    """The package's GESA layer for one branch [N x d]: `group` a group of
    one, one layer deep (`encoder.branch_forward`); records its gates as
    "gesa_gates"."""
    return T.index(branch_forward(group, h, T.stack([x]), g_intra, g_inter, ["gesa_gates"]), 0)


# The per-branch parameter layout, before the branch axes were stored: each
# GESA branch held its own layers (a `GesaLayerParams` each, of unstacked
# tensors), each decoder layer a {branch: weights} dict of cross-attention
# and gate affines, and every call stacked them on the branch axis.


def _join(prefix, name):
    return f"{prefix}.{name}" if prefix else str(name)


def _sliced(obj, index, old, new, pairs):
    """obj (a parameter dataclass or None) with each Tensor t replaced by
    `T.index(t, index)`: a view of that slice, through which a live tape
    sends gradients on to t. Appends (old name, new name, index) per Tensor."""
    if obj is None:
        return None
    if isinstance(obj, Tensor):
        pairs.append((old, new, index))
        return T.index(obj, index)
    return type(obj)(*(_sliced(getattr(obj, f.name), index, _join(old, f.name), _join(new, f.name), pairs)
                       for f in dataclasses.fields(obj)))


def _group_layout(group, names, prefix, key, pairs):
    """{name: [GesaLayerParams per layer]} of a stored group (its list of
    layers) whose slices are the named branches: branch i's layer l is
    slice i of the group's layer l."""
    return {b: [_sliced(lp, i, _join(prefix, f"{b}.{l}"), _join(key, l), pairs) for l, lp in enumerate(group)]
            for i, b in enumerate(names)}


def _is_group(obj):
    return isinstance(obj, list) and bool(obj) and all(isinstance(lp, GesaLayerParams) for lp in obj)


def _layout(obj, branches, prefix, pairs):
    if obj is None:
        return None
    if isinstance(obj, Tensor):
        pairs.append((prefix, prefix, None))
        return obj
    if _is_group(obj):  # a lone group, its branches named by index
        return list(_group_layout(obj, range(len(obj[0].gate.w.data)), prefix, prefix, pairs).values())
    if isinstance(obj, dict) and obj and all(map(_is_group, obj.values())):
        out = {}
        for key, group in obj.items():
            out.update(_group_layout(group, key.split("+"), prefix, _join(prefix, key), pairs))
        return out
    if isinstance(obj, DecoderLayerParams):
        names = branches or range(len(obj.mod.w.data))
        fields = {}
        for f in dataclasses.fields(obj):
            child, at = getattr(obj, f.name), _join(prefix, f.name)
            if f.name in ("cross", "mod"):
                fields[f.name] = {b: _sliced(child, i, _join(at, b), at, pairs) for i, b in enumerate(names)}
            else:
                fields[f.name] = _layout(child, branches, at, pairs)
        return DecoderLayerParams(**fields)
    if isinstance(obj, ModelParams):
        branches = [b for key in obj.branches for b in key.split("+")]
    if dataclasses.is_dataclass(obj):
        return type(obj)(**{f.name: _layout(getattr(obj, f.name), branches, _join(prefix, f.name), pairs)
                            for f in dataclasses.fields(obj)})
    if isinstance(obj, (list, tuple)):
        return type(obj)(_layout(child, branches, _join(prefix, i), pairs) for i, child in enumerate(obj))
    if isinstance(obj, dict):
        return {k: _layout(child, branches, _join(prefix, k), pairs) for k, child in obj.items()}
    raise TypeError(f"cannot lay out {type(obj)!r} at {prefix!r}")


def per_branch(obj, branches=None):
    """obj (a model, GESA groups, decoder layers, or any nesting of them) in
    the per-branch layout, each per-branch tensor a view of its slice of the
    stored one (`T.index`, so a live tape sends its gradients on to the
    stored tensor) and every other tensor the stored one itself. A model
    names its decoder's branch slices; otherwise `branches` does, or their
    indices. A lone group comes out as a list of per-branch layer lists."""
    return _layout(obj, branches, "", [])


def name_map(obj, branches=None):
    """{per-branch name: (stored name, index into the stored tensor's leading
    axis, or None where the tensor is stored as it was)}, in the per-branch
    layout's walk order."""
    pairs = []
    with T.no_grad():
        _layout(obj, branches, "", pairs)
    return {old: (new, i) for old, new, i in pairs}


def stored_slice(obj, name, branches=None):
    """(stored Tensor, index or None) holding the per-branch parameter `name`."""
    new, i = name_map(obj, branches)[name]
    return dict(named_parameters(obj))[new], i


def mapped_grads(obj, branches=None):
    """{per-branch name: the stored gradient's slice under the name map, or None}."""
    stored = dict(named_parameters(obj))
    out = {}
    for old, (new, i) in name_map(obj, branches).items():
        g = stored[new].grad
        out[old] = g if g is None or i is None else g[i]
    return out


GEOMETRY_FIELDS = ("q_intra", "k_intra", "q_inter", "k_inter")


def v2_named_arrays(params):
    """(name, values) of a model's parameters as a gevst-checkpoint-v2 file
    laid them out: each GESA layer's weights but its geometry projections
    under `branches.<group>.layers.<l>`, then each geometry projection of
    the group as one [L*k x ...] tensor under `branches.<group>.geometry`,
    pair i*L + l being branch i's layer l."""
    out = []
    for f in dataclasses.fields(params):
        child = getattr(params, f.name)
        if f.name != "branches":
            out += [(n, t.data) for n, t in named_parameters(child, f.name)]
            continue
        for key, layers in child.items():
            for l, lp in enumerate(layers):
                content = dataclasses.replace(lp, **dict.fromkeys(GEOMETRY_FIELDS))
                out += [(n, t.data) for n, t in named_parameters(content, f"branches.{key}.layers.{l}")]
            branches = range(len(layers[0].gate.w.data))
            for g in GEOMETRY_FIELDS:
                if getattr(layers[0], g) is not None:
                    out += [(f"branches.{key}.geometry.{g}.{p}",
                             np.stack([getattr(getattr(lp, g), p).data[i] for i in branches for lp in layers]))
                            for p in ("w", "b")]
    return out


OLDER_CHECKPOINT_FORMATS = ("gevst-checkpoint-v1", "gevst-checkpoint-v2")


def older_checkpoint_bytes(fmt, cfg, vocab, params, trained_steps):
    """A checkpoint of `params` in the layout of an older format, as that
    format wrote it: v1 per branch (`per_branch`), v2 with each group's
    geometry projections apart from its layers (`v2_named_arrays`)."""
    named = ([(n, t.data) for n, t in named_parameters(per_branch(params))] if fmt == "gevst-checkpoint-v1"
             else v2_named_arrays(params))
    return O.checkpoint_v2_bytes(cfg.to_dict(), vocab.id_to_token, named, trained_steps, fmt=fmt)


def eager_linear(rng, d_in, d_out):
    limit = np.sqrt(6.0 / (d_in + d_out))
    return Linear(Tensor(rng.uniform(-limit, limit, size=(d_in, d_out)), requires_grad=True),
                  Tensor(np.zeros(d_out), requires_grad=True))


def eager_layer_norm(d):
    return LayerNorm(Tensor(np.ones(d), requires_grad=True), Tensor(np.zeros(d), requires_grad=True))


def eager_ffn(rng, d):
    return Ffn(eager_linear(rng, d, 4 * d), eager_linear(rng, 4 * d, d))


def eager_embedding(rng, vocab, d):
    return Tensor(rng.normal(0.0, 0.1, size=(vocab, d)), requires_grad=True)


def eager_fusion_cell(rng, d, er, base):
    def additive():
        return AdditiveAttention(eager_linear(rng, d, d), eager_linear(rng, d, d), eager_linear(rng, d, 1))
    return FusionCellParams(additive() if "c" in base else None, additive() if "g" in base else None,
                            eager_linear(rng, d, er * d), eager_linear(rng, d, er * d))


def eager_caption_encoder(rng, vocab_size, width, n_layers, d_out):
    layers = [EncoderLayerParams(*(eager_linear(rng, width, width) for _ in range(4)), eager_layer_norm(width),
                                 eager_ffn(rng, width), eager_layer_norm(width)) for _ in range(n_layers)]
    return CaptionEncoderParams(eager_embedding(rng, vocab_size, width), layers, eager_linear(rng, width, d_out))


def per_branch_init(cfg, vocab_size, rng):
    """A model in the per-branch layout, drawn as its init drew it: each leaf
    into an array of its own (the `eager_*` initializers), each GESA branch's
    layers in turn, each decoder layer's cross-attention and then gate
    affines branch by branch."""
    d, maps = cfg.d_model, variant_map_count(cfg.gesa_variant)
    need_vs, need_sv = needs_fusion(cfg.branches)
    active = [b for b in BRANCH_NAMES if b in cfg.branches]

    def branch_layer():
        linears = [eager_linear(rng, d, d) if i < 1 + 2 * maps else None for i in range(7)]
        return GesaLayerParams(*linears, eager_linear(rng, d, maps), eager_layer_norm(d), eager_ffn(rng, d),
                               eager_layer_norm(d))

    def decoder_layer():
        return DecoderLayerParams(
            *(eager_linear(rng, d, d) for _ in range(3)), eager_layer_norm(d),
            {b: CrossAttentionParams(*(eager_linear(rng, d, d) for _ in range(3))) for b in active},
            {b: eager_linear(rng, 2 * d, d) for b in active}, eager_layer_norm(d), eager_ffn(rng, d),
            eager_layer_norm(d))

    def fusion():
        return [eager_fusion_cell(rng, d, cfg.expand_ratio, cfg.fusion_base) for _ in range(cfg.fusion_cells)]

    return ModelParams(
        vis_in=eager_linear(rng, cfg.raw_feat_dim, d),
        geo_visual=eager_linear(rng, 4, d),
        geo_semantic=eager_linear(rng, 4, d),
        captions=eager_caption_encoder(rng, vocab_size, cfg.enc_width, cfg.enc_layers, d),
        fusion_vs=fusion() if need_vs else None,
        fusion_sv=fusion() if need_sv else None,
        branches={b: [branch_layer() for _ in range(cfg.layers)] for b in active},
        dec_embed=eager_embedding(rng, vocab_size, d),
        dec_layers=[decoder_layer() for _ in range(cfg.layers)],
        out=eager_linear(rng, d, vocab_size),
    )


def _stacked(objs, stack=T.stack):
    """Same-structured parameter dataclasses as one, each Tensor the members'
    `stack`."""
    first = objs[0]
    if first is None:
        return None
    if isinstance(first, Tensor):
        return stack(objs)
    return type(first)(*(_stacked([getattr(o, f.name) for o in objs], stack) for f in dataclasses.fields(first)))


def np_stack(tensors):
    """A new trainable Tensor of the members' values `np.stack`-ed."""
    return Tensor(np.stack([t.data for t in tensors]), requires_grad=True)


def restacked(model, stack=T.stack):
    """A model in the per-branch layout as the stored layout, each stored
    tensor the `stack` of its per-branch tensors: with `T.stack`, as that
    layout ran every call, so on a live tape gradients reach the per-branch
    tensors; with `np_stack`, as init stored it before models were born
    flat."""
    groups = {key: [_stacked(lps, stack) for lps in zip(*(model.branches[b] for b in members))]
              for key, members in active_groups(list(model.branches)).items()}
    return dataclasses.replace(model, branches=groups, dec_layers=[
        dataclasses.replace(lp, cross=_stacked(list(lp.cross.values()), stack),
                            mod=_stacked(list(lp.mod.values()), stack))
        for lp in model.dec_layers])


def flatten(obj):
    """obj with its parameters' values concatenated, in walk order, into one
    new vector and each Tensor rebound to its view of it, as
    `nn.flat_parameters` flattened parameters before models were born flat;
    returns obj."""
    tensors = parameters(obj)
    flat = np.concatenate([np.zeros(0)] + [t.data.ravel() for t in tensors])
    for t, view in zip(tensors, flat_views(flat, tensors)):
        t.data = view
    return obj


def reference_init_model(cfg, vocab_size, rng):
    """`init_model` as it ran before models were born flat: each leaf drawn
    into an array of its own (`per_branch_init`), the branch axes
    `np.stack`-ed and the whole concatenated (`flatten`)."""
    return flatten(restacked(per_branch_init(cfg, vocab_size, rng), np_stack))
