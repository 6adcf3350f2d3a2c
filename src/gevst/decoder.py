"""Branch-modulated caption decoder plus greedy and beam decoding.

Each decoder layer runs three post-norm sublayers: causal masked self
attention, a modulated multi-input cross-attention, and the 4x FFN. The cross
sublayer attends the self-attended states over EVERY active encoder branch
separately (per-branch Q/K/V, multi-head, no output projection), gates each
result elementwise with the sigmoid of W [Y; C_b] + b, and sums the gated
results — a plain sum, not an average.

Teacher forcing (`decoder_forward`) and decoding (`CachedDecoder`) share the
layer body (`decoder_layer`) and the cross-attention keys and values
(`cross_keys_values`: each branch output projected once per layer, plain
tensors). Only the self-attention context they hand the layer differs.
Teacher forcing computes it with causal self attention over the whole
sequence. Decoding projects the cross keys and values once per scene and
computes one new row per prefix, whose self attention reads the keys and
values kept for the rest of the prefix. The decoder is causal, so the two
agree to rounding.

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
from .data import BOS_ID, EOS_ID
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


def cross_keys_values(layers, branch_outputs):
    """Per layer, {branch: (keys, values)}: each active branch output [N x d]
    projected through that layer's cross-attention k and v, in BRANCH_NAMES
    order. They depend only on the scene, not on the decoded rows."""
    branches = [b for b in BRANCH_NAMES if b in branch_outputs]
    if not branches:
        raise ConfigError("decoder needs at least one branch output")
    return [{b: (linear(branch_outputs[b], lp.cross[b].k), linear(branch_outputs[b], lp.cross[b].v))
             for b in branches} for lp in layers]


def modulated_multi_input(y, cross, layer: DecoderLayerParams, h):
    """Gated sum of per-branch cross-attention contexts of y over `cross`,
    one layer's entry of `cross_keys_values`.

    Records each branch's [T x d] gate as "decoder_gates_<branch>" (see `T.record`).
    """
    contexts, scores = [], []
    for b, (k, v) in cross.items():
        c = attend(linear(y, layer.cross[b].q), k, v, h)
        contexts.append(c)
        scores.append(linear(T.concat([y, c], axis=1), layer.mod[b]))
    gates = list(map(T.sigmoid, scores))
    for b, g in zip(cross, gates):
        T.record(f"decoder_gates_{b}", g)
    out = T.mul(gates[0], contexts[0])
    for g, c in zip(gates[1:], contexts[1:]):
        out = T.add(out, T.mul(g, c))
    return out


def decoder_layer(y, self_context, lp: DecoderLayerParams, h, cross):
    """One decoder layer over the rows of y [n x d], given each row's
    self-attended context [n x d] and the layer's `cross_keys_values` entry."""
    y = layer_norm(T.add(y, self_context), lp.ln1)
    y = layer_norm(T.add(y, modulated_multi_input(y, cross, lp, h)), lp.ln2)
    return layer_norm(T.add(y, ffn(y, lp.ffn)), lp.ln3)


def _check_bos(ids):
    if not ids or ids[0] != BOS_ID:
        raise ContractError(f"decoder input must start with BOS, got {list(ids[:3])}")


def decoder_forward(layers, h, branch_outputs, embed, out_proj, token_ids):
    """Logits [T x V] for a BOS-led token id sequence (position t predicts t+1)."""
    ids = list(token_ids)
    _check_bos(ids)
    t_len = len(ids)
    d = embed.data.shape[1]
    y = T.add(T.embedding_lookup(embed, ids), Tensor(sinusoidal_positions(t_len, d).data))
    mask = causal_mask(h, t_len)
    for lp, cross in zip(layers, cross_keys_values(layers, branch_outputs)):
        context = attend(linear(y, lp.self_q), linear(y, lp.self_k), linear(y, lp.self_v), h, mask=mask)
        y = decoder_layer(y, context, lp, h, cross)
    return linear(y, out_proj)


def _log_probs(logits):
    """Row-wise log softmax of a [n x V] array."""
    m = logits.max(axis=-1, keepdims=True)
    return logits - (m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True)))


class CachedDecoder:
    """Incremental decoding of one scene: `step(prefixes)` returns the
    [len(prefixes) x V] log-probs of the token after each prefix, row i equal
    to rounding to the log softmax of the last row of
    `decoder_forward(prefixes[i])`.

    On the first call every prefix must be [BOS]; on each later call every
    prefix must extend some prefix of the previous call by one token. Anything
    else raises ContractError. The cross-attention keys and values are
    projected once, when the decoder is made. A call computes one new row per
    prefix: its self attention reads the keys and values kept for the parent
    prefix, and the call keeps those of its own prefixes for the next one. It
    runs tapeless.
    """

    def __init__(self, layers, h, branch_outputs, embed, out_proj):
        self.layers, self.h, self.embed, self.out_proj = layers, h, embed, out_proj
        with no_grad():
            self.cross = cross_keys_values(layers, branch_outputs)
        self.rows = {(): 0}  # each prefix of the previous call -> its row in `self_kv`
        empty = np.zeros((1, 0, embed.data.shape[1]))
        self.self_kv = [(empty, empty)] * len(layers)  # per layer: [rows x prefix length x d] keys, values

    def __call__(self, prefixes):
        prefixes = [tuple(p) for p in prefixes]
        if not prefixes:
            raise ContractError("a decoding step needs at least one prefix")
        parents = []
        for p in prefixes:
            _check_bos(p)
            if p[:-1] not in self.rows:
                raise ContractError(f"prefix {list(p)} is neither [BOS] on the first step "
                                    f"nor one token longer than a prefix of the previous step")
            parents.append(self.rows[p[:-1]])
        n, t, d = len(prefixes), len(prefixes[0]), self.embed.data.shape[1]
        grown = []
        with no_grad():
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
