"""Branch-modulated caption decoder plus greedy and beam decoding.

Each decoder layer runs three post-norm sublayers: causal masked self
attention, a modulated multi-input cross-attention, and the 4x FFN. The cross
sublayer attends the self-attended states over EVERY active encoder branch
separately (per-branch Q/K/V, multi-head, no output projection), gates each
result elementwise with sigmoid(W [Y; C_b] + b), and sums the gated results —
a plain sum, not an average. A softmax-across-branches gate exists behind
`gate_mode="softmax"` for ablations.

One layer body (`decoder_layer`) serves both uses of the decoder. Teacher
forcing (`decoder_forward`) runs it over a whole sequence with causal self
attention. Decoding (`CachedDecoder`) runs it over one new row per prefix,
whose self attention reads the keys and values cached for the rest of the
prefix, and reuses each branch's cross-attention keys and values, projected
once per scene. The decoder is causal, so the two agree to rounding.

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


def modulated_multi_input(y, branch_outputs, layer: DecoderLayerParams, h, gate_mode="sigmoid", kv=linear):
    """Gated sum of per-branch cross-attention contexts; `kv` as in `nn.attend`.

    Records each branch's [T x d] gate as "decoder_gates_<branch>" (see `T.record`).
    """
    if gate_mode not in ("sigmoid", "softmax"):
        raise ConfigError(f"gate_mode must be sigmoid or softmax, got {gate_mode!r}")
    branches = [b for b in ("ss", "sv", "vs", "vv") if b in branch_outputs]
    if not branches:
        raise ConfigError("decoder needs at least one branch output")
    contexts, scores = [], []
    for b in branches:
        p = layer.cross[b]
        c = attend(y, branch_outputs[b], p.q, p.k, p.v, h, kv=kv)
        contexts.append(c)
        scores.append(linear(T.concat([y, c], axis=1), layer.mod[b]))

    if gate_mode == "sigmoid":
        gates = [T.sigmoid(z) for z in scores]
    else:
        t_len, d = y.data.shape
        stacked = T.concat([T.reshape(z, (1, t_len, d)) for z in scores], axis=0)
        sm = T.softmax(T.transpose(stacked, (1, 2, 0)))  # [t x d x B], softmax over branches
        back = T.transpose(sm, (2, 0, 1))
        gates = [T.reshape(T.narrow(back, 0, i, 1), (t_len, d)) for i in range(len(branches))]

    for b, g in zip(branches, gates):
        T.record(f"decoder_gates_{b}", g)
    out = T.mul(gates[0], contexts[0])
    for g, c in zip(gates[1:], contexts[1:]):
        out = T.add(out, T.mul(g, c))
    return out


def decoder_layer(y, lp: DecoderLayerParams, h, branch_outputs, self_attention, gate_mode="sigmoid", cross_kv=linear):
    """One decoder layer over the rows of y [n x d].

    `self_attention(y, lp)` gives each row's self-attended context; it is the
    only part that differs between teacher forcing and cached decoding.
    `cross_kv` projects the branch outputs to keys and values, as in `nn.attend`.
    """
    y = layer_norm(T.add(y, self_attention(y, lp)), lp.ln1)
    att = modulated_multi_input(y, branch_outputs, lp, h, gate_mode=gate_mode, kv=cross_kv)
    y = layer_norm(T.add(y, att), lp.ln2)
    return layer_norm(T.add(y, ffn(y, lp.ffn)), lp.ln3)


def _check_bos(ids):
    if not ids or ids[0] != BOS_ID:
        raise ContractError(f"decoder input must start with BOS, got {list(ids[:3])}")


def decoder_forward(layers, h, branch_outputs, embed, out_proj, token_ids, gate_mode="sigmoid"):
    """Logits [T x V] for a BOS-led token id sequence (position t predicts t+1)."""
    ids = list(token_ids)
    _check_bos(ids)
    t_len = len(ids)
    d = embed.data.shape[1]
    y = T.add(T.embedding_lookup(embed, ids), Tensor(sinusoidal_positions(t_len, d).data))
    mask = causal_mask(h, t_len)

    def causal_self_attention(y, lp):
        return attend(y, y, lp.self_q, lp.self_k, lp.self_v, h, mask=mask)

    for lp in layers:
        y = decoder_layer(y, lp, h, branch_outputs, causal_self_attention, gate_mode=gate_mode)
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
    else raises ContractError. A call computes one new row per prefix: its
    self attention reads the keys and values kept for the parent prefix, and
    the cross attention reads each branch's keys and values, projected on
    first use and kept for the life of the decoder. The call then keeps the
    keys and values of its own prefixes for the next one. It runs tapeless.
    """

    def __init__(self, layers, h, branch_outputs, embed, out_proj, gate_mode="sigmoid"):
        self.layers, self.h, self.branch_outputs = layers, h, branch_outputs
        self.embed, self.out_proj, self.gate_mode = embed, out_proj, gate_mode
        self.rows = {(): 0}  # each prefix of the previous call -> its row in `self_kv`
        self.self_kv = {}  # id(self_k or self_v Linear) -> [rows x prefix length x d]
        self.cross_kv = {}  # id(cross k or v Linear) -> projected branch output

    def _cross(self, x, p):
        kv = self.cross_kv.get(id(p))
        if kv is None:
            kv = self.cross_kv[id(p)] = linear(x, p)
        return kv

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
        grown = {}

        def cached_kv(x, p):
            past = self.self_kv.get(id(p), np.zeros((1, 0, d)))[parents]
            full = T.concat([Tensor(past), linear(x, p)], axis=1)
            grown[id(p)] = full.data
            return full

        def cached_self_attention(y, lp):
            y1 = T.reshape(y, (n, 1, d))
            return T.reshape(attend(y1, y1, lp.self_q, lp.self_k, lp.self_v, self.h, kv=cached_kv), (n, d))

        with no_grad():
            pos = np.broadcast_to(sinusoidal_positions(t, d).data[t - 1], (n, d))
            y = T.add(T.embedding_lookup(self.embed, [p[-1] for p in prefixes]), Tensor(pos))
            for lp in self.layers:
                y = decoder_layer(y, lp, self.h, self.branch_outputs, cached_self_attention,
                                  gate_mode=self.gate_mode, cross_kv=self._cross)
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
