"""Branch-modulated caption decoder plus greedy and beam decoding.

Each decoder layer runs three post-norm sublayers: causal masked self
attention, a modulated multi-input cross-attention, and the 4x FFN. The cross
sublayer attends the self-attended states over EVERY active encoder branch
(per-branch Q/K/V, multi-head, no output projection), gates each branch's
context elementwise with the sigmoid of W [Y; C_b] + b, and sums the gated
contexts — a plain sum, not an average.

The branches share one leading axis (`CrossInputs`; `model.branch_axis`
lays it out), every branch output padded to the longest of any scene, its
padded keys masked by one key bias, so one attention, one gate affine and
one sum serve them all. Each layer stores its per-branch cross q, k, v and
gate affines on that axis, as [k x ...] tensors, in BRANCH_NAMES order.

Teacher forcing (`decoder_forward`) runs the layer body (`decoder_layer`) on
the tape, for a batch at rank 3, the batch's id sequences padded with PAD,
with causal self attention over the whole sequence. Decoding
(`CachedDecoder`) computes one new row per (scene, prefix) in one tapeless
NumPy step over plain arrays, with the engine's softmax and layer-norm
forwards, reading every weight in place. Its self attention reads the keys
and values kept for the rest of the prefix, and its cross attention reads
its own scene's keys and values. Both take the cross keys, values and key
bias from `cross_keys_values` (the branch outputs projected once per
layer); those keys and values are all a decoder copies. The decoder is
causal, so the two agree to rounding.

Every caption comes from one driver, `decode`, over a batched `step(rows)
-> [len(rows) x V]` log-prob matrix, one row per (scene, prefix), so it is
testable against rigged models. One step call per token advances every
live hypothesis of every group: a beam ranked on arrays by cumulative
log-prob (greedy is width 1: ties of the rounded sum -> lowest id), or a
caption drawn from a stream. A beam returns the completed hypothesis of
best sum / length score (truncated ones compete only when none completed).
It stops at `max_len`, or once no live sum `cum` can complete above the
best completed score: with log-probs <= 0, at most cum / max_len (Huang et
al. 2017, 1709.07349).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import BOS_ID, EOS_ID, pad_ids
from .errors import ConfigError, ContractError, DecodeDiverged
from .nn import (
    Ffn,
    LayerNorm,
    Linear,
    Tensor,
    attend,
    ffn,
    init_ffn,
    init_layer_norm,
    init_linear,
    key_bias,
    layer_norm,
    linear,
    sinusoidal_positions,
)
from .tensor import layer_norm_rows, softmax_rows


@functools.cache
def causal_bias(t):
    """The read-only causal bias [t x t]: -1e9 where row i sees j > i, else 0."""
    bias = np.triu(np.full((t, t), -1e9), k=1)
    bias.flags.writeable = False
    return bias


@dataclass
class CrossAttentionParams:
    q: Linear  # w [k x d x d], b [k x d]: one projection per branch
    k: Linear
    v: Linear


@dataclass
class DecoderLayerParams:
    self_q: Linear
    self_k: Linear
    self_v: Linear
    ln1: LayerNorm
    cross: CrossAttentionParams
    mod: Linear  # the branches' gate affines: w [k x 2d x d], b [k x d]
    ln2: LayerNorm
    ffn: Ffn
    ln3: LayerNorm


def init_decoder_layer(layout, d, branches):
    """A layer over the k named branches; each branch's cross q, k, v and then
    each branch's gate affine are drawn in turn, each into its slice of the
    stacked tensor."""
    return DecoderLayerParams(
        self_q=init_linear(layout, d, d),
        self_k=init_linear(layout, d, d),
        self_v=init_linear(layout, d, d),
        ln1=init_layer_norm(layout, d),
        cross=layout.stack([CrossAttentionParams(*(init_linear(layout, d, d) for _ in range(3))) for _ in branches]),
        mod=layout.stack([init_linear(layout, 2 * d, d) for _ in branches]),
        ln2=init_layer_norm(layout, d),
        ffn=init_ffn(layout, d),
        ln3=init_layer_norm(layout, d),
    )


@dataclass
class CrossInputs:
    """One layer's cross-attention inputs on the branch axis: the k active
    branches, in BRANCH_NAMES order, stacked on a leading axis."""

    branches: tuple  # the k branch names
    keys: Tensor  # [k x ... x N x d]
    values: Tensor  # [k x ... x N x d]
    bias: np.ndarray  # [k x ... x 1 x 1 x N]: the padded keys' per-head key bias (`nn.key_bias`)


def cross_keys_values(layers, scenes):
    """Per layer, the CrossInputs of S scenes on the branch axis (names,
    [k x S x N x d], bool padding [k x S x N]; `model.branch_axis`): the keys
    and values are each branch projected through that layer's cross-attention
    k and v. They depend only on the scenes, not on the decoded rows. Every
    layer shares the one key bias of the padding."""
    branches, padded, padding = scenes
    bias = key_bias(padding[..., None, :])
    return [CrossInputs(branches, linear(padded, lp.cross.k), linear(padded, lp.cross.v), bias) for lp in layers]


def modulated_multi_input(y, cross: CrossInputs, lp: DecoderLayerParams, h):
    """Gated sum over the branch axis of the cross-attention contexts of y
    [..., n x d], whose rows share the keys and values of `cross` (of y's
    rank plus the branch axis). Each branch attends with its own q of layer
    `lp`, and gates its context c elementwise with the sigmoid of its
    W [y; c] + b (`lp.mod`).

    Records each branch's gate, shaped like y, as "decoder_gates_<branch>"
    (see `T.record`)."""
    ys = T.stack([y] * len(cross.branches))  # y once per branch, a broadcast view
    c = attend(linear(ys, lp.cross.q), cross.keys, cross.values, h, bias=cross.bias)
    gates = T.sigmoid(linear(T.concat([ys, c], axis=-1), lp.mod))
    T.record_each((f"decoder_gates_{b}" for b in cross.branches), gates)
    return T.sum_axis(T.mul(gates, c), 0)


def decoder_layer(y, self_context, lp: DecoderLayerParams, h, cross):
    """One decoder layer over the rows of y [..., n x d], given each row's
    self-attended context (shaped like y) and the layer's CrossInputs."""
    y = layer_norm(T.add(y, self_context), lp.ln1)
    y = layer_norm(T.add(y, modulated_multi_input(y, cross, lp, h)), lp.ln2)
    return layer_norm(T.add(y, ffn(y, lp.ffn)), lp.ln3)


def _check_bos(ids):
    if not ids or ids[0] != BOS_ID:
        raise ContractError(f"decoder input must start with BOS, got {list(ids[:3])}")


def decoder_forward(layers, h, scenes, embed, out_proj, token_ids):
    """Teacher-forced logits [S x T x V] of S scenes on the branch axis (as
    `cross_keys_values` takes them) and S BOS-led id sequences; position t
    predicts token t+1, T is the longest sequence. Shorter sequences are
    padded with PAD, and their rows past the end mean nothing (a loss weights
    them 0). The padded keys are masked, so row s equals scene s's own
    forward to rounding."""
    seqs = list(token_ids)
    if len(seqs) != scenes[1].data.shape[1]:
        raise ContractError(f"{scenes[1].data.shape[1]} scenes vs {len(seqs)} id sequences")
    for seq in seqs:
        _check_bos(list(seq))
    ids = pad_ids(seqs)
    t_len, d = ids.shape[1], embed.data.shape[1]
    positions = np.broadcast_to(sinusoidal_positions(t_len, d).data, ids.shape + (d,))
    y = T.add(T.embedding_lookup(embed, ids), Tensor(positions))
    causal = causal_bias(t_len)
    for lp, cross in zip(layers, cross_keys_values(layers, scenes)):
        context = attend(linear(y, lp.self_q), linear(y, lp.self_k), linear(y, lp.self_v), h, bias=causal)
        y = decoder_layer(y, context, lp, h, cross)
    return linear(y, out_proj)


class CachedDecoder:
    """Incremental decoding of one or more scenes in lockstep: `step(rows)`
    takes (scene, prefix) pairs, scene an index into the S scenes on the
    branch axis the decoder was made with (as `decoder_forward` takes them),
    and returns the [len(rows) x V] log-probs of the token after each
    prefix, row i equal to rounding to the log softmax of the last row of
    `decoder_forward` on prefix i over its scene.

    On the first call every prefix must be [BOS]; on each later call every
    prefix must extend some prefix of the previous call by one token, for the
    same scene. Anything else raises ContractError.

    A call is one tapeless NumPy step over plain arrays: per layer a few
    GEMMs and the engine's own row softmax and layer-norm forwards
    (`T.softmax_rows`, `T.layer_norm_rows`), then the vocabulary log softmax
    of `T.log_softmax`. Every weight is read where the model stores it, at
    each call. A decoder holds, besides the self-attention cache, only what
    depends on its scenes: per layer every scene's cross keys and values
    (`cross_keys_values`), stored head-major, and the one key bias teacher
    forcing adds (`CrossInputs.bias`). Making it records on a live tape, so
    callers make it under `T.no_grad`. The cross keys and values are
    snapshots of the parameters at that time, so make a new decoder after
    an update.
    With one scene every row queries its keys without a gather; with many,
    each row gathers its own scene's, so a step costs in proportion to its
    rows. A call computes one new row per prefix: its self attention reads
    the head-major keys and values kept for the parent prefix, and the call
    keeps those of its own prefixes for the next one.
    """

    def __init__(self, layers, h, scenes, embed, out_proj):
        self.layers, self.h, self.embed, self.out_proj = layers, h, embed.data, out_proj
        self.scenes = scenes[1].data.shape[1]
        crosses = cross_keys_values(layers, scenes)
        k, s, n, d = crosses[0].keys.data.shape
        heads = (k, s, n, h, d // h)
        # per layer, the cross keys [k x S x h x dh x N] (each head's transposed) and values [k x S x h x N x dh]
        self.cross = [(np.ascontiguousarray(c.keys.data.reshape(heads).transpose(0, 1, 3, 4, 2)),
                       np.ascontiguousarray(c.values.data.reshape(heads).transpose(0, 1, 3, 2, 4))) for c in crosses]
        self.bias = crosses[0].bias  # [k x S x 1 x 1 x N]
        # each (scene, prefix) of the previous call -> its row in `self_kv`
        self.rows = {(i, ()): 0 for i in range(self.scenes)}
        # per layer, [rows x 2 x h x prefix length x dh]: each prefix's self keys, then values, per head
        self.self_kv = [np.zeros((1, 2, h, 0, d // h))] * len(layers)

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
                raise ContractError(f"prefix {list(p)} of scene {scene} is neither [BOS] on the first step "
                                    f"nor one token longer than a prefix of that scene on the previous step")
            parents.append(self.rows[scene, p[:-1]])
        n, t, (_, d), h = len(rows), len(rows[0][1]), self.embed.shape, self.h
        dh, parents = d // h, np.array(parents)
        scale = 1.0 / np.sqrt(dh)
        # One scene's rows are the queries of one attention over its keys; many scenes' rows gather their own.
        scenes, rows_at = (slice(None), 3) if self.scenes == 1 else ([scene for scene, _ in rows], 1)
        bias = self.bias[:, scenes]
        y = self.embed[[p[-1] for _, p in rows]] + sinusoidal_positions(t, d).data[t - 1]
        grown = []
        for lp, (keys, values), kv in zip(self.layers, self.cross, self.self_kv):
            new_kv = np.stack([_affine(y, lp.self_k), _affine(y, lp.self_v)], 1).reshape(n, 2, h, 1, dh)
            kv = np.concatenate([kv[parents], new_kv], axis=3)
            grown.append(kv)
            q = _affine(y, lp.self_q).reshape(n, h, 1, dh)
            context = softmax_rows((q @ kv[:, 0].swapaxes(-1, -2)) * scale) @ kv[:, 1]
            y = layer_norm_rows(y + context.reshape(n, d), lp.ln1.gain.data, lp.ln1.bias.data)[0]
            q = _affine(y, lp.cross.q).reshape(-1, n, h, 1, dh).swapaxes(1, rows_at)
            cross = (softmax_rows((q @ keys[:, scenes]) * scale + bias) @ values[:, scenes]).swapaxes(1, rows_at)
            cross = cross.reshape(-1, n, d)  # [k x n x d]
            gate_w = lp.mod.w.data  # [k x 2d x d]: each branch's half over y, then its half over the context
            gates = 1.0 / (1.0 + np.exp(-(y @ gate_w[:, :d] + cross @ gate_w[:, d:] + lp.mod.b.data[:, None])))
            y = layer_norm_rows(y + np.add.reduce(gates * cross, 0), lp.ln2.gain.data, lp.ln2.bias.data)[0]
            hidden = np.maximum(_affine(y, lp.ffn.inner), 0.0)
            y = layer_norm_rows(y + _affine(hidden, lp.ffn.outer), lp.ln3.gain.data, lp.ln3.bias.data)[0]
        self.self_kv = grown
        self.rows = {row: i for i, row in enumerate(rows)}
        return T.log_softmax(Tensor(_affine(y, self.out_proj))).data


def _affine(x, lin):
    """x @ w + b on the stored arrays of a Linear; a stacked b [k x N] adds to each slice's rows."""
    return x @ lin.w.data + lin.b.data[..., None, :]


# ----------------------------------------------------------------- decoding


def decode(step, groups, max_len):
    """One (generated ids, sum log-prob, sum / length score) per group
    (scene, width, rng): a beam of that width over `scene`, or with an rng
    one caption drawn from it. Each token is one `step(rows)` call over the
    (scene, prefix) of every live hypothesis, in group then rank order; a
    non-finite row raises DecodeDiverged before anything is drawn or ranked.
    A beam ranks the rounded sums cum + lp, so at width 1 two log-probs
    closer than the rounding of cum tie, and the lower token id wins."""
    if any(width < 1 for _, width, _ in groups):
        raise ConfigError(f"beam width must be >= 1, got {min(width for _, width, _ in groups)}")
    live = [[((BOS_ID,), 0.0)] for _ in groups]  # per group, its (ids, sum) hypotheses, best first
    completed = [[] for _ in groups]
    for _ in range(max_len):
        rows = [(scene, ids) for (scene, _, _), hyps in zip(groups, live) for ids, _ in hyps]
        if not rows:
            break
        logprobs = step(rows)
        finite = np.isfinite(logprobs).all(axis=1)
        if not finite.all():
            raise DecodeDiverged(rows[int(np.argmin(finite))][0])  # the scene of the first row not finite
        sums = np.array([cum for hyps in live for _, cum in hyps])[:, None] + logprobs
        start = 0
        for g, (_, width, rng) in enumerate(groups):
            n = len(live[g])
            if not n:
                continue
            extended = _advance(live[g], logprobs[start:start + n], sums[start:start + n].ravel(), width, rng)
            start += n
            completed[g] += [h for h in extended if h[0][-1] == EOS_ID]
            live[g] = [h for h in extended if h[0][-1] != EOS_ID]
            if completed[g]:  # stop once no live hypothesis can complete above the best completed one
                best = max(cum / (len(ids) - 1) for ids, cum in completed[g])
                if all(best > cum / max_len for _, cum in live[g]):
                    live[g] = []
    results = []
    for hyps, done in zip(live, completed):
        scored = [(list(ids[1:]), cum, cum / max(len(ids) - 1, 1)) for ids, cum in done or hyps]
        results.append(min(scored, key=lambda c: (-c[2], c[0])))
    return results


def _advance(hyps, lp, sums, width, rng):
    """The extensions (ids, sum) of `hyps` under rows lp and flat sums, best first by (-sum, ids): the `width`
    best, only sums at or above the width-th best becoming tuples (ties included), or the one rng draws."""
    v = lp.shape[1]
    if rng is None:
        cut = max(sums.size - width, 0)
        kept = (sums >= np.partition(sums, cut)[cut]).nonzero()[0]
    else:  # one hypothesis, one draw
        kept = np.array([rng.choice(v, p=np.exp(lp[0]))])
    candidates = [(hyps[i // v][0] + (i % v,), s) for i, s in zip(kept.tolist(), sums[kept].tolist())]
    candidates.sort(key=lambda c: (-c[1], c[0]))
    return candidates[:width]


def greedy_decode(step_fn, max_len):
    """Beam search of width 1; returns (generated ids, summed log-prob)."""
    return beam_search(step_fn, 1, max_len)[:2]


def beam_search(step_fn, beam, max_len):
    """`decode` of one scene over plain prefixes; returns (generated ids, sum log-prob, normalized score)."""
    return decode(lambda rows: step_fn([ids for _, ids in rows]), [(0, beam, None)], max_len)[0]
