"""Branch-modulated caption decoder plus greedy and beam decoding.

Each decoder layer runs three post-norm sublayers: causal masked self
attention, a modulated multi-input cross-attention, and the 4x FFN. The cross
sublayer attends the self-attended states over EVERY active encoder branch
(per-branch Q/K/V, multi-head, no output projection), gates each branch's
context elementwise with the sigmoid of W [Y; C_b] + b, and sums the gated
contexts — a plain sum, not an average.

The branches share one leading axis (`CrossInputs`), every branch output
padded to the longest of any scene, so one masked attention, one gate
affine and one sum serve them all. Each layer stores its per-branch cross
q, k, v and gate affines on that axis, as [k x ...] tensors, in
BRANCH_NAMES order.

Teacher forcing (`decoder_forward`) and decoding (`CachedDecoder`) share the
layer body (`decoder_layer`, rank-agnostic) and the cross-attention inputs
(`cross_keys_values`: the branch outputs projected once per layer). Only
the self-attention context they hand the layer differs. Teacher forcing
computes it with causal self attention over the whole sequence, always for
a batch at rank 3 (one scene is a batch of one), the batch's id sequences
padded with PAD, on the tape. Decoding projects the cross keys and values
once, for one scene or many, and computes one new row per (scene, prefix),
whose self attention reads the keys and values kept for the rest of the
prefix and whose cross attention reads its own scene's keys and values.
The decoder is causal, so the two agree to rounding.

Decoding works through a batched `step_fn(prefixes) -> [len(prefixes) x V]`
log-prob matrix, one row per prefix, so the strategies are testable against
rigged models. Greedy takes the argmax (ties -> lowest token id); beam search
advances all live hypotheses in one step call, ranks them by cumulative
log-prob, completes them at EOS, and returns the completed hypothesis with
the best sum-logprob/length score (truncated live hypotheses compete only
when nothing completed). Generation stops at EOS or `max_len` tokens. Beam
search also stops, with the same result, once no live hypothesis can
complete above the best completed one (see LOGPROB_SLACK; the
optimal-stopping bound of Huang et al. 2017, arXiv 1709.07349).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

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
    pad_rows,
    sinusoidal_positions,
    stack_params,
)
from .tensor import no_grad


# The most a token's log-prob is taken to lie above 0: `T.log_softmax` returns
# about +1.1e-16 for a near-certain token, because its `(s / v) * v` can round
# below s. With every log-prob at most this slack, a live hypothesis of sum
# `cum` with r tokens still to go completes with a mean log-prob of at most
# (cum + r * slack) / max_len, which is what beam search's stop rule bounds.
LOGPROB_SLACK = 1e-15


@functools.cache
def causal_mask(h, t):
    return np.broadcast_to(np.triu(np.ones((t, t), dtype=bool), k=1), (h, t, t))


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


def init_decoder_layer(rng, d, branches):
    """A layer over the k named branches; each branch's cross q, k, v and then
    each branch's gate affine are drawn in turn, then stacked."""
    return DecoderLayerParams(
        self_q=init_linear(rng, d, d),
        self_k=init_linear(rng, d, d),
        self_v=init_linear(rng, d, d),
        ln1=init_layer_norm(d),
        cross=stack_params([CrossAttentionParams(*(init_linear(rng, d, d) for _ in range(3))) for _ in branches]),
        mod=stack_params([init_linear(rng, 2 * d, d) for _ in branches]),
        ln2=init_layer_norm(d),
        ffn=init_ffn(rng, d),
        ln3=init_layer_norm(d),
    )


@dataclass
class CrossInputs:
    """One layer's cross-attention inputs on the branch axis: the k active
    branches, in BRANCH_NAMES order, stacked on a leading axis."""

    branches: tuple  # the k branch names
    keys: Tensor  # [k x ... x N x d]
    values: Tensor  # [k x ... x N x d]
    padding: np.ndarray  # bool, shaped like keys without d: True at a padded key


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
    return (branches, *pad_rows(outs, counts))


def cross_keys_values(layers, scenes):
    """Per layer, the CrossInputs of many scenes' branch outputs (`pad_scenes`):
    the keys and values [k x S x N x d] are each branch projected through that
    layer's cross-attention k and v. They depend only on the scenes, not on
    the decoded rows."""
    branches, padded, padding = pad_scenes(scenes)
    return [CrossInputs(branches, linear(padded, lp.cross.k), linear(padded, lp.cross.v), padding) for lp in layers]


def modulated_multi_input(y, cross: CrossInputs, lp: DecoderLayerParams, h):
    """Gated sum over the branch axis of the cross-attention contexts of y
    [..., n x d]. The keys and values of `cross` are of y's rank plus the
    branch axis, which y's rows share, or, for y [n x d], hold one [N x d]
    block per row ([k x n x N x d]). Each branch attends with its own q of
    layer `lp`, and gates its context c elementwise with the sigmoid of its
    W [y; c] + b (`lp.mod`).

    Records each branch's gate, shaped like y, as "decoder_gates_<branch>"
    (see `T.record`)."""
    shape = y.data.shape
    keys = cross.keys.data
    per_row = keys.ndim > y.data.ndim + 1
    if per_row:
        y = T.reshape(y, (shape[0], 1, shape[1]))
    ys = T.concat([T.reshape(y, (1,) + y.data.shape)] * len(cross.branches))  # y once per branch
    q = linear(ys, lp.cross.q)
    mask = np.broadcast_to(cross.padding[..., None, None, :], keys.shape[:-2] + (h, q.data.shape[-2], keys.shape[-2]))
    c = attend(q, cross.keys, cross.values, h, mask=mask)
    gates = T.sigmoid(linear(T.concat([ys, c], axis=-1), lp.mod))
    T.record_each((f"decoder_gates_{b}" for b in cross.branches), gates, shape)
    out = T.sum_axis(T.mul(gates, c), 0)
    return T.reshape(out, shape) if per_row else out


def decoder_layer(y, self_context, lp: DecoderLayerParams, h, cross):
    """One decoder layer over the rows of y [..., n x d], given each row's
    self-attended context (shaped like y) and the layer's CrossInputs."""
    y = layer_norm(T.add(y, self_context), lp.ln1)
    y = layer_norm(T.add(y, modulated_multi_input(y, cross, lp, h)), lp.ln2)
    return layer_norm(T.add(y, ffn(y, lp.ffn)), lp.ln3)


def _check_bos(ids):
    if not ids or ids[0] != BOS_ID:
        raise ContractError(f"decoder input must start with BOS, got {list(ids[:3])}")


def decoder_forward(layers, h, branch_outputs, embed, out_proj, token_ids):
    """Teacher-forced logits; position t predicts token t+1.

    A list of B scenes' branch outputs and a list of B BOS-led id sequences
    give [B x T x V], T the longest sequence. Shorter sequences are padded
    with PAD, and their rows past the end mean nothing (a loss weights them
    0). Every branch output is padded to the longest of any scene
    (`pad_scenes`), with the padded keys masked, so row b equals scene b's
    own forward to rounding. One scene's {branch: [N x d]} and one id
    sequence run as a batch of one and give [T x V].
    """
    one = isinstance(branch_outputs, dict)
    scenes, seqs = ([branch_outputs], [token_ids]) if one else (branch_outputs, list(token_ids))
    if len(seqs) != len(scenes):
        raise ContractError(f"{len(scenes)} scenes vs {len(seqs)} id sequences")
    for seq in seqs:
        _check_bos(list(seq))
    ids = pad_ids(seqs)
    t_len, d = ids.shape[1], embed.data.shape[1]
    causal = np.broadcast_to(causal_mask(h, t_len), (len(seqs), h, t_len, t_len))
    positions = np.broadcast_to(sinusoidal_positions(t_len, d).data, ids.shape + (d,))
    y = T.add(T.embedding_lookup(embed, ids), Tensor(positions))
    for lp, cross in zip(layers, cross_keys_values(layers, scenes)):
        context = attend(linear(y, lp.self_q), linear(y, lp.self_k), linear(y, lp.self_v), h, mask=causal)
        y = decoder_layer(y, context, lp, h, cross)
    logits = linear(y, out_proj)
    return T.reshape(logits, logits.data.shape[1:]) if one else logits


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
    and values are projected once, when the decoder is made, with every
    branch of every scene padded to the longest (`pad_scenes`, as a
    teacher-forced batch pads them). With one scene every row attends to its
    [k x N x d] keys. With many, each row gathers its own scene's keys and
    values, with the padding masked, so a step costs in proportion to its
    rows, however many scenes there are. A call computes one new row per
    prefix: its self attention reads the keys and values kept for the parent
    prefix, and the call keeps those of its own prefixes for the next one.
    It runs tapeless, on the data of the branch outputs.
    """

    def __init__(self, layers, h, scenes, embed, out_proj):
        self.layers, self.h, self.embed, self.out_proj = layers, h, embed, out_proj
        self.scenes = len(scenes)
        with no_grad():
            self.cross = cross_keys_values(layers, scenes)
        if self.scenes == 1:  # every row attends to the one scene's keys
            self.cross = [self._of_scenes(cross, 0) for cross in self.cross]
        # each (scene, prefix) of the previous call -> its row in `self_kv`
        self.rows = {(i, ()): 0 for i in range(self.scenes)}
        empty = np.zeros((1, 0, embed.data.shape[1]))
        self.self_kv = [(empty, empty)] * len(layers)  # per layer: [rows x prefix length x d] keys, values

    @staticmethod
    def _of_scenes(cross, scenes):
        """`cross` with the keys, values and padding of the given scene index
        (or index array) along the scene axis."""
        return replace(cross, keys=Tensor(cross.keys.data[:, scenes]), values=Tensor(cross.values.data[:, scenes]),
                       padding=cross.padding[:, scenes])

    def _row_cross(self, rows):
        """Each layer's CrossInputs for the given (scene, prefix) rows."""
        if self.scenes == 1:
            return self.cross
        scenes = np.array([scene for scene, _ in rows])
        return [self._of_scenes(cross, scenes) for cross in self.cross]

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
            logprobs = T.log_softmax(linear(y, self.out_proj)).data
        self.self_kv = grown
        self.rows = {row: i for i, row in enumerate(rows)}
        return logprobs


# ----------------------------------------------------------------- decoding


def greedy_decode(step_fn, max_len):
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


def beam_search(step_fn, beam, max_len):
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
        if completed:  # stop once no live hypothesis can complete above the best completed one
            best = max(cum / (len(ids) - 1) for ids, cum in completed)
            if all(best > (cum + (max_len + 1 - len(ids)) * LOGPROB_SLACK) / max_len for ids, cum in live):
                break
    pool = completed if completed else live
    scored = [(ids, cum, cum / (len(ids) - 1)) for ids, cum in pool]
    scored.sort(key=lambda c: (-c[2], c[0]))
    ids, cum, norm = scored[0]
    return list(ids[1:]), cum, norm
