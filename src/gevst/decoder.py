"""Branch-modulated caption decoder plus greedy and beam decoding.

Each decoder layer runs three post-norm sublayers: causal masked self
attention, a modulated multi-input cross-attention, and the 4x FFN. The cross
sublayer attends the self-attended states over EVERY active encoder branch
separately (per-branch Q/K/V, multi-head, no output projection), gates each
result elementwise with the sigmoid of W [Y; C_b] + b, and sums the gated
results — a plain sum, not an average.

Teacher forcing (`decoder_forward`) and decoding (`CachedDecoder`) share the
layer body (`decoder_layer`, rank-agnostic) and the cross-attention keys and
values (`cross_keys_values`: each branch output projected once per layer,
plain tensors). Only the self-attention context they hand the layer differs.
Teacher forcing computes it with causal self attention over the whole
sequence, for one scene at rank 2 or for a training batch at rank 3: the
batch's id sequences padded with PAD and each branch's outputs padded to the
longest scene by `pad_scenes`, on the tape, with the padded keys masked.
Decoding projects the cross keys and values once, for one scene or many
(padded by the same `pad_scenes`), and computes one new row per (scene,
prefix), whose self attention reads the keys and values kept for the rest
of the prefix and whose cross attention reads its own scene's keys and
values. The decoder is causal, so the two agree to rounding.

Decoding works through a batched `step_fn(prefixes) -> [len(prefixes) x V]`
log-prob matrix, one row per prefix, so the strategies are testable against
rigged models. Greedy takes the argmax (ties -> lowest token id); beam search
advances all live hypotheses in one step call, ranks them by cumulative
log-prob, completes them at EOS, and returns the completed hypothesis with
the best sum-logprob/length score (truncated live hypotheses compete only
when nothing completed). Generation stops at EOS or `max_len` tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import BRANCH_NAMES
from .data import BOS_ID, EOS_ID, pad_ids
from .errors import ConfigError, ContractError
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
    layer_norm,
    linear,
    sinusoidal_positions,
)
from .tensor import no_grad

MAX_LEN = 20

_MASK_CACHE = {}


def causal_mask(h, t):
    key = (h, t)
    m = _MASK_CACHE.get(key)
    if m is None:
        m = np.broadcast_to(np.triu(np.ones((t, t), dtype=bool), k=1), (h, t, t))
        _MASK_CACHE[key] = m
    return m


@dataclass
class CrossAttentionParams:
    q: Linear
    k: Linear
    v: Linear


@dataclass
class DecoderLayerParams:
    self_q: Linear
    self_k: Linear
    self_v: Linear
    ln1: LayerNorm
    cross: dict  # branch -> CrossAttentionParams
    mod: dict  # branch -> Linear [2d -> d]
    ln2: LayerNorm
    ffn: Ffn
    ln3: LayerNorm


def init_decoder_layer(rng, d, branches):
    return DecoderLayerParams(
        self_q=init_linear(rng, d, d),
        self_k=init_linear(rng, d, d),
        self_v=init_linear(rng, d, d),
        ln1=init_layer_norm(d),
        cross={b: CrossAttentionParams(init_linear(rng, d, d), init_linear(rng, d, d), init_linear(rng, d, d)) for b in branches},
        mod={b: init_linear(rng, 2 * d, d) for b in branches},
        ln2=init_layer_norm(d),
        ffn=init_ffn(rng, d),
        ln3=init_layer_norm(d),
    )


def _check_scenes(scenes):
    if not scenes:
        raise ContractError("a decoder needs the branch outputs of at least one scene")
    if any(set(s) != set(scenes[0]) for s in scenes):
        raise ContractError("every scene must have the same branch outputs")
    if any(len(out.data) == 0 for s in scenes for out in s.values()):
        raise ContractError("every branch output of every scene needs at least one row to attend to")


def pad_scenes(scenes):
    """Many scenes' branch outputs laid side by side: ({branch: [S x longest
    x d]}, {branch: bool [S x longest]}), scene i's rows first in row i, zero
    rows after them, and the padding True at those zero rows. Recorded on the
    tape when the outputs are: one concat and one row gather per branch."""
    _check_scenes(scenes)
    padded, padding = {}, {}
    for b in scenes[0]:
        outs = [s[b] for s in scenes]
        counts = np.array([len(out.data) for out in outs])
        padding[b] = np.arange(counts.max())[None, :] >= counts[:, None]
        rows = np.full(padding[b].shape, counts.sum())  # the zero row appended below
        rows[~padding[b]] = np.arange(counts.sum())
        zero = Tensor(np.zeros((1, outs[0].data.shape[1])))
        padded[b] = T.embedding_lookup(T.concat(outs + [zero]), rows)
    return padded, padding


def cross_keys_values(layers, branch_outputs, masks=None):
    """Per layer, {branch: (keys, values, mask)}: each active branch output
    [..., N x d] projected through that layer's cross-attention k and v, in
    BRANCH_NAMES order, with masks[branch] (or None) as the mask. They depend
    only on the scenes, not on the decoded rows."""
    branches = [b for b in BRANCH_NAMES if b in branch_outputs]
    if not branches:
        raise ConfigError("decoder needs at least one branch output")
    masks = masks or {}
    return [{b: (linear(branch_outputs[b], lp.cross[b].k), linear(branch_outputs[b], lp.cross[b].v), masks.get(b))
             for b in branches} for lp in layers]


def _cross_context(q, entry, h):
    """Attention of the queries q over one branch's (keys, values, mask):
    keys and values of q's rank, which q's rows share, or, for q [n x d], one
    [N x d] block of keys and values per row ([n x N x d]). The mask (None,
    or a bool array of the score shape) marks the keys a row must not attend to."""
    k, v, mask = entry
    if k.data.ndim == q.data.ndim:
        return attend(q, k, v, h, mask=mask)
    n, d = q.data.shape
    return T.reshape(attend(T.reshape(q, (n, 1, d)), k, v, h, mask=mask), (n, d))


def modulated_multi_input(y, cross, layer: DecoderLayerParams, h):
    """Gated sum of per-branch cross-attention contexts of y over `cross`,
    one layer's {branch: entry} (see `_cross_context`), as `cross_keys_values`
    or `CachedDecoder` gives it.

    Records each branch's [T x d] gate as "decoder_gates_<branch>" (see `T.record`).
    """
    contexts, scores = [], []
    for b, entry in cross.items():
        c = _cross_context(linear(y, layer.cross[b].q), entry, h)
        contexts.append(c)
        scores.append(linear(T.concat([y, c], axis=-1), layer.mod[b]))
    gates = list(map(T.sigmoid, scores))
    for b, g in zip(cross, gates):
        T.record(f"decoder_gates_{b}", g)
    out = T.mul(gates[0], contexts[0])
    for g, c in zip(gates[1:], contexts[1:]):
        out = T.add(out, T.mul(g, c))
    return out


def decoder_layer(y, self_context, lp: DecoderLayerParams, h, cross):
    """One decoder layer over the rows of y [..., n x d], given each row's
    self-attended context (shaped like y) and the layer's cross-attention entry."""
    y = layer_norm(T.add(y, self_context), lp.ln1)
    y = layer_norm(T.add(y, modulated_multi_input(y, cross, lp, h)), lp.ln2)
    return layer_norm(T.add(y, ffn(y, lp.ffn)), lp.ln3)


def _check_bos(ids):
    if not ids or ids[0] != BOS_ID:
        raise ContractError(f"decoder input must start with BOS, got {list(ids[:3])}")


def decoder_forward(layers, h, branch_outputs, embed, out_proj, token_ids):
    """Teacher-forced logits; position t predicts token t+1.

    One scene: `branch_outputs` is its {branch: [N x d]} and `token_ids` one
    BOS-led id sequence; returns [T x V]. A batch: a list of B scenes' branch
    outputs and a list of B BOS-led sequences; returns [B x T x V], T the
    longest sequence. Shorter sequences are padded with PAD, and their rows
    past the end mean nothing (a loss weights them 0). Each branch's outputs
    are padded to the longest scene (`pad_scenes`), with the padded keys
    masked, so row b equals scene b's own forward to rounding.
    """
    one = isinstance(branch_outputs, dict)
    seqs = [token_ids] if one else list(token_ids)
    if not one and len(seqs) != len(branch_outputs):
        raise ContractError(f"{len(branch_outputs)} scenes vs {len(seqs)} id sequences")
    for seq in seqs:
        _check_bos(list(seq))
    ids = pad_ids(seqs)
    t_len, d = ids.shape[1], embed.data.shape[1]
    if one:
        ids, causal, masks = ids[0], causal_mask(h, t_len), None
    else:
        branch_outputs, padding = pad_scenes(branch_outputs)
        lead = (len(seqs), h, t_len)
        causal = np.broadcast_to(causal_mask(h, t_len), lead + (t_len,))
        masks = {b: np.broadcast_to(p[:, None, None, :], lead + p.shape[1:]) for b, p in padding.items()}
    positions = np.broadcast_to(sinusoidal_positions(t_len, d).data, ids.shape + (d,))
    y = T.add(T.embedding_lookup(embed, ids), Tensor(positions))
    for lp, cross in zip(layers, cross_keys_values(layers, branch_outputs, masks)):
        context = attend(linear(y, lp.self_q), linear(y, lp.self_k), linear(y, lp.self_v), h, mask=causal)
        y = decoder_layer(y, context, lp, h, cross)
    return linear(y, out_proj)


def _log_probs(logits):
    """Row-wise log softmax of a [n x V] array."""
    m = logits.max(axis=-1, keepdims=True)
    return logits - (m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True)))


class CachedDecoder:
    """Incremental decoding of one or more scenes in lockstep: `step(rows)`
    takes (scene, prefix) pairs, scene an index into the list of branch
    outputs the decoder was made with, and returns the [len(rows) x V]
    log-probs of the token after each prefix, row i equal to rounding to the
    log softmax of the last row of `decoder_forward(prefix_i)` over scene i's
    branch outputs.

    On the first call every prefix must be [BOS]; on each later call every
    prefix must extend some prefix of the previous call by one token, for the
    same scene. Anything else raises ContractError. The cross-attention keys
    and values are projected once, when the decoder is made. With one scene
    every row attends to them as teacher forcing does. With many, the
    scenes' branch outputs are padded to the longest scene's (`pad_scenes`,
    as a teacher-forced batch pads them) and each row gathers its own
    scene's keys and values, with the padding masked, so a step costs in
    proportion to its rows, however many scenes there are. A call computes
    one new row per prefix: its self attention reads the keys and values
    kept for the parent prefix, and the call keeps those of its own prefixes
    for the next one. It runs tapeless, on the data of the branch outputs.
    """

    def __init__(self, layers, h, scenes, embed, out_proj):
        _check_scenes(scenes)
        self.layers, self.h, self.embed, self.out_proj = layers, h, embed, out_proj
        self.scenes = len(scenes)
        self.padding = None  # per branch, [scenes x longest key count] bool: True past a scene's keys
        with no_grad():
            if self.scenes == 1:
                self.cross = cross_keys_values(layers, scenes[0])
            else:
                padded, self.padding = pad_scenes(scenes)
                self.cross = [{b: (k.data, v.data) for b, (k, v, _) in entry.items()}
                              for entry in cross_keys_values(layers, padded)]
        # each (scene, prefix) of the previous call -> its row in `self_kv`
        self.rows = {(i, ()): 0 for i in range(self.scenes)}
        empty = np.zeros((1, 0, embed.data.shape[1]))
        self.self_kv = [(empty, empty)] * len(layers)  # per layer: [rows x prefix length x d] keys, values

    def _row_cross(self, rows):
        """Each layer's cross-attention entry for the given (scene, prefix) rows."""
        if self.padding is None:
            return self.cross
        scenes, n = np.array([scene for scene, _ in rows]), len(rows)
        masks = {b: np.broadcast_to(p[scenes][:, None, None, :], (n, self.h, 1, p.shape[1]))
                 for b, p in self.padding.items()}
        return [{b: (Tensor(k[scenes]), Tensor(v[scenes]), masks[b]) for b, (k, v) in entry.items()}
                for entry in self.cross]

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
        n, t, d = len(rows), len(rows[0][1]), self.embed.data.shape[1]
        grown = []
        with no_grad():
            crosses = self._row_cross(rows)
            pos = np.broadcast_to(sinusoidal_positions(t, d).data[t - 1], (n, d))
            y = T.add(T.embedding_lookup(self.embed, [p[-1] for _, p in rows]), Tensor(pos))
            for lp, cross, (keys, values) in zip(self.layers, crosses, self.self_kv):
                y1 = T.reshape(y, (n, 1, d))
                k = T.concat([Tensor(keys[parents]), linear(y1, lp.self_k)], axis=1)
                v = T.concat([Tensor(values[parents]), linear(y1, lp.self_v)], axis=1)
                grown.append((k.data, v.data))
                context = T.reshape(attend(linear(y1, lp.self_q), k, v, self.h), (n, d))
                y = decoder_layer(y, context, lp, self.h, cross)
            logits = linear(y, self.out_proj).data
        self.self_kv = grown
        self.rows = {row: i for i, row in enumerate(rows)}
        return _log_probs(logits)


# ----------------------------------------------------------------- decoding


def greedy_decode(step_fn, max_len=MAX_LEN):
    """Argmax decoding; returns (generated ids, summed log-prob)."""
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


def beam_search(step_fn, beam=5, max_len=MAX_LEN):
    """Length-normalized beam search; returns (generated ids, sum log-prob, normalized score)."""
    if beam < 1:
        raise ConfigError(f"beam width must be >= 1, got {beam}")
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
