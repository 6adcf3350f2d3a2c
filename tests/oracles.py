"""Independent scalar reimplementations used to cross-check the package.

Everything here is loop-based pure Python over float lists, summed with
math.fsum — no numpy, no imports from the package under test. The formulas
are written straight from their definitions so that agreement with the
vectorized implementations is evidence, not circularity.

Conventions shared with the package (part of the checked contract):
linear layers are x @ W + b with W [in x out]; multi-head attention splits
the width into h contiguous column blocks and scores each head by
softmax(Q K^T / sqrt(d_h)); masked positions are set to exactly -1e9 before
the softmax; layer norm uses population variance with eps=1e-5 inside the
square root.

The last section is the exception: it keeps, as bit-exact references, the
per-tensor numpy optimizer and checkpoint writer that the flat parameter
vector replaced, the kron-gather additive-attention map that the engine's
pairwise_add replaced, and the multi-head attention built from the engine's
reshape/transpose/matmul/mul/softmax ops (plus masked_fill, kept here since
the engine has no other use for it) that its fused attention_weights and
apply_attention replaced. They still import nothing from the package: the
attention functions and masked_fill take the tensor engine as an argument.
"""

import json
import math
from collections import Counter

import numpy as np


# ----------------------------------------------------------- tiny algebra


def mat(a):
    """Copy any 2-D array-like into nested Python float lists."""
    return [[float(v) for v in row] for row in a]


def vec(a):
    return [float(v) for v in a]


def mat_vec_rows(x, w, b):
    """Rows of x @ W + b; x: [n][din], w: [din][dout], b: [dout]."""
    n, din, dout = len(x), len(w), len(w[0])
    out = []
    for i in range(n):
        row = []
        for o in range(dout):
            row.append(math.fsum([x[i][c] * w[c][o] for c in range(din)] + [b[o]]))
        out.append(row)
    return out


def softmax_row(xs):
    m = max(xs)
    es = [math.exp(v - m) for v in xs]
    z = math.fsum(es)
    return [e / z for e in es]


def sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


def layer_norm_rows(x, gain, bias, eps=1e-5):
    out = []
    d = len(x[0])
    for row in x:
        mu = math.fsum(row) / d
        var = math.fsum((v - mu) ** 2 for v in row) / d
        inv = 1.0 / math.sqrt(var + eps)
        out.append([(row[c] - mu) * inv * gain[c] + bias[c] for c in range(d)])
    return out


def ffn_rows(x, w1, b1, w2, b2):
    hidden = mat_vec_rows(x, w1, b1)
    hidden = [[max(0.0, v) for v in row] for row in hidden]
    return mat_vec_rows(hidden, w2, b2)


def add_rows(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def heads_cols(d, h):
    dh = d // h
    return [(hd * dh, (hd + 1) * dh) for hd in range(h)]


def multi_head_maps(q, k, h, causal=False):
    """Per-head softmax(Q K^T / sqrt(d_h)); q: [nq][d], k: [nk][d]."""
    d = len(q[0])
    dh = d // h
    scale = 1.0 / math.sqrt(dh)
    maps = []
    for lo, hi in heads_cols(d, h):
        head = []
        for i in range(len(q)):
            scores = []
            for j in range(len(k)):
                s = math.fsum(q[i][c] * k[j][c] for c in range(lo, hi)) * scale
                if causal and j > i:
                    s = -1e9
                scores.append(s)
            head.append(softmax_row(scores))
        maps.append(head)
    return maps


def apply_maps(maps, v, h):
    """Merge per-head weighted sums back to [nq][d]."""
    d = len(v[0])
    nq = len(maps[0])
    out = [[0.0] * d for _ in range(nq)]
    for hd, (lo, hi) in enumerate(heads_cols(d, h)):
        for i in range(nq):
            for c in range(lo, hi):
                out[i][c] = math.fsum(maps[hd][i][j] * v[j][c] for j in range(len(v)))
    return out


# ------------------------------------------------- fusion cell (additive)


def additive_map(q, k, wq, bq, wk, bk, wo, bo):
    """Row-stochastic additive-attention map.

    score(i, j) = w_o . tanh(W_q q_i + b_q + W_k k_j + b_k) + b_o
    """
    pq = mat_vec_rows(q, wq, bq)
    pk = mat_vec_rows(k, wk, bk)
    da = len(pq[0])
    rows = []
    for i in range(len(q)):
        scores = []
        for j in range(len(k)):
            hidden = [math.tanh(pq[i][c] + pk[j][c]) for c in range(da)]
            scores.append(math.fsum([hidden[c] * wo[c][0] for c in range(da)] + [bo[0]]))
        rows.append(softmax_row(scores))
    return rows


def fusion_cell_oracle(content_q, geo_q, content_k, geo_k, p, er, renorm=False):
    """One fusion cell, scalar.

    `p` is a dict: optional "content"/"geometry" -> (wq, bq, wk, bk, wo, bo),
    plus "v_exp"/"s_exp" -> (w, b). Returns dict with the updated content,
    both maps, and the inter-geometry rows.
    """
    n, d = len(content_q), len(content_q[0])
    alpha_con = alpha_geo = None
    if p.get("content") is not None:
        alpha_con = additive_map(content_q, content_k, *p["content"])
    if p.get("geometry") is not None:
        alpha_geo = additive_map(geo_q, geo_k, *p["geometry"])

    if alpha_con is not None and alpha_geo is not None:
        weights = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(alpha_con, alpha_geo)]
        if renorm:
            weights = [[0.5 * v for v in row] for row in weights]
    else:
        weights = alpha_con if alpha_con is not None else alpha_geo

    m = len(content_k)
    s_hat = [[math.fsum(weights[i][j] * content_k[j][c] for j in range(m)) for c in range(d)]
             for i in range(n)]
    v_dot = mat_vec_rows(content_q, *p["v_exp"])
    s_dot = mat_vec_rows(s_hat, *p["s_exp"])
    fused = [[math.fsum(s_dot[i][c * er + u] * v_dot[i][c * er + u] for u in range(er))
              for c in range(d)] for i in range(n)]
    updated = add_rows(content_q, fused)

    if alpha_geo is not None:
        inter = [[math.fsum(alpha_geo[i][j] * geo_k[j][c] for j in range(m)) for c in range(d)]
                 for i in range(n)]
    else:
        inter = [[0.0] * d for _ in range(n)]
    return {"updated": updated, "content_map": alpha_con, "geometry_map": alpha_geo,
            "weights": weights, "s_hat": s_hat, "inter": inter}


# --------------------------------------------- geometry-entangled layer


def gesa_layer_oracle(x, g_intra, g_inter, p, h):
    """One self-attention layer mixing up to three per-head maps.

    `p`: dict with "q_c","k_c","v_c" -> (w, b); optional "q_intra","k_intra",
    "q_inter","k_inter"; "gate" -> (w, b); "ln1","ln2" -> (gain, bias);
    "ffn" -> (w1, b1, w2, b2). Map order: content, intra, inter.
    """
    maps = [multi_head_maps(mat_vec_rows(x, *p["q_c"]), mat_vec_rows(x, *p["k_c"]), h)]
    if p.get("q_intra") is not None:
        maps.append(multi_head_maps(mat_vec_rows(g_intra, *p["q_intra"]),
                                    mat_vec_rows(g_intra, *p["k_intra"]), h))
    if p.get("q_inter") is not None:
        maps.append(multi_head_maps(mat_vec_rows(g_inter, *p["q_inter"]),
                                    mat_vec_rows(g_inter, *p["k_inter"]), h))

    n = len(x)
    raw = mat_vec_rows(x, *p["gate"])
    k = len(raw[0])
    gates = softmax_row([math.fsum(raw[i][t] for i in range(n)) / n for t in range(k)])

    combined = []
    for hd in range(h):
        head = [[math.fsum(gates[t] * maps[t][hd][i][j] for t in range(len(maps)))
                 for j in range(n)] for i in range(n)]
        combined.append(head)

    values = mat_vec_rows(x, *p["v_c"])
    attended = apply_maps(combined, values, h)
    a = layer_norm_rows(add_rows(x, attended), *p["ln1"])
    out = layer_norm_rows(add_rows(a, ffn_rows(a, *p["ffn"])), *p["ln2"])
    return {"out": out, "gates": gates, "maps": maps, "combined": combined}


# ------------------------------------------------------- decoder forward


def positional_rows(n, d):
    out = []
    for pos in range(n):
        row = []
        for i in range(d):
            angle = pos / (10000.0 ** (2.0 * (i // 2) / d))
            row.append(math.sin(angle) if i % 2 == 0 else math.cos(angle))
        out.append(row)
    return out


def decoder_forward_oracle(ids, branch_outputs, layers, embed, out_proj, h):
    """Logits for a BOS-led id sequence, sigmoid branch modulation.

    `branch_outputs`: dict branch -> [n_b][d] (iterated in ss/sv/vs/vv order);
    `layers`: list of dicts with "self_q","self_k","self_v" -> (w, b),
    "ln1","ln2","ln3" -> (gain, bias), "ffn" -> (w1, b1, w2, b2),
    "cross" -> {branch: (wq, bq, wk, bk, wv, bv)},
    "mod" -> {branch: (w, b)};  embed: [V][d];  out_proj: (w, b).
    """
    d = len(embed[0])
    t_len = len(ids)
    pe = positional_rows(t_len, d)
    y = [[embed[tok][c] + pe[t][c] for c in range(d)] for t, tok in enumerate(ids)]

    order = [b for b in ("ss", "sv", "vs", "vv") if b in branch_outputs]
    for lp in layers:
        q = mat_vec_rows(y, *lp["self_q"])
        k = mat_vec_rows(y, *lp["self_k"])
        v = mat_vec_rows(y, *lp["self_v"])
        self_att = apply_maps(multi_head_maps(q, k, h, causal=True), v, h)
        y = layer_norm_rows(add_rows(y, self_att), *lp["ln1"])

        total = [[0.0] * d for _ in range(t_len)]
        for b in order:
            wq, bq, wk, bk, wv, bv = lp["cross"][b]
            ctx = apply_maps(
                multi_head_maps(mat_vec_rows(y, wq, bq),
                                mat_vec_rows(branch_outputs[b], wk, bk), h),
                mat_vec_rows(branch_outputs[b], wv, bv), h)
            wm, bm = lp["mod"][b]
            cat = [y[t] + ctx[t] for t in range(t_len)]  # [Y; C_b] concat
            gate = [[sigmoid(v2) for v2 in row] for row in mat_vec_rows(cat, wm, bm)]
            for t in range(t_len):
                for c in range(d):
                    total[t][c] += gate[t][c] * ctx[t][c]
        y = layer_norm_rows(add_rows(y, total), *lp["ln2"])
        y = layer_norm_rows(add_rows(y, ffn_rows(y, *lp["ffn"])), *lp["ln3"])
    return mat_vec_rows(y, *out_proj)


# ------------------------------------------------------------- metrics


def ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_oracle(candidates, references, max_n=4):
    """Corpus BLEU-1..max_n, clipped counts, closest-ref brevity penalty."""
    clipped = [0] * (max_n + 1)
    totals = [0] * (max_n + 1)
    cand_len = ref_len = 0
    for cand, refs in zip(candidates, references):
        c = len(cand)
        cand_len += c
        ref_len += min(((abs(len(r) - c), len(r)) for r in refs))[1]
        for n in range(1, max_n + 1):
            counts = ngrams(cand, n)
            best = Counter()
            for r in refs:
                rc = ngrams(r, n)
                for g in counts:
                    best[g] = max(best[g], rc.get(g, 0))
            totals[n] += sum(counts.values())
            clipped[n] += sum(min(counts[g], best[g]) for g in counts)
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len) if cand_len > 0 else 0.0
    out = []
    for k in range(1, max_n + 1):
        if any(clipped[n] == 0 for n in range(1, k + 1)):
            out.append(0.0)
            continue
        log_p = math.fsum(math.log(clipped[n] / totals[n]) for n in range(1, k + 1)) / k
        out.append(bp * math.exp(log_p))
    return out


def lcs_oracle(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = table[i - 1][j - 1] + 1 if a[i - 1] == b[j - 1] \
                else max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def rouge_l_oracle(candidates, references, beta_sq=1.2):
    scores = []
    for cand, refs in zip(candidates, references):
        best = 0.0
        for r in refs:
            l = lcs_oracle(cand, r)
            if l == 0 or not cand or not r:
                continue
            prec, rec = l / len(cand), l / len(r)
            best = max(best, (1.0 + beta_sq) * prec * rec / (rec + beta_sq * prec))
        scores.append(best)
    return math.fsum(scores) / len(scores) if scores else 0.0


def cider_d_oracle(candidates, references, sigma=6.0, max_n=4):
    """Corpus CIDEr-D: tf-idf cosine per n, clipped, Gaussian length penalty."""
    n_docs = len(references)
    dfs = [Counter() for _ in range(max_n + 1)]
    for refs in references:
        for n in range(1, max_n + 1):
            seen = set()
            for r in refs:
                seen |= set(ngrams(r, n))
            for g in seen:
                dfs[n][g] += 1

    def tfidf(tokens, n):
        counts = ngrams(tokens, n)
        return {g: c * (math.log(n_docs) - math.log(max(1.0, dfs[n][g])))
                for g, c in counts.items()}

    def norm(v):
        return math.sqrt(math.fsum(x * x for x in v.values()))

    sent_scores = []
    for cand, refs in zip(candidates, references):
        per_n = []
        for n in range(1, max_n + 1):
            cv = tfidf(cand, n)
            cn = norm(cv)
            ref_scores = []
            for r in refs:
                rv = tfidf(r, n)
                rn = norm(rv)
                num = math.fsum(min(cv[g], rv[g]) * rv[g] for g in cv if g in rv)
                sim = num / (cn * rn) if cn > 0 and rn > 0 else 0.0
                delta = len(cand) - len(r)
                sim *= math.exp(-delta * delta / (2.0 * sigma * sigma))
                ref_scores.append(sim)
            per_n.append(math.fsum(ref_scores) / len(refs))
        sent_scores.append(10.0 * math.fsum(per_n) / max_n)
    return (math.fsum(sent_scores) / len(sent_scores) if sent_scores else 0.0), sent_scores


# ------------------------------------------------------------- decoding


def enumerate_best(step_fn, vocab_size, eos_id, max_len):
    """Global argmax over all length-limited sequences by mean log-prob.

    Mirrors the beam contract: completed (EOS-terminated) sequences beat
    truncated ones; ties broken by ascending id tuple.
    """
    completed, truncated = [], []

    def expand(prefix, cum):
        lp = step_fn([1] + prefix)  # BOS-led
        for tok in range(vocab_size):
            seq = prefix + [tok]
            score = cum + float(lp[tok])
            if tok == eos_id:
                completed.append((tuple(seq), score))
            elif len(seq) == max_len:
                truncated.append((tuple(seq), score))
            else:
                expand(seq, score)

    expand([], 0.0)
    pool = completed if completed else truncated
    scored = sorted(pool, key=lambda c: (-(c[1] / len(c[0])), c[0]))
    ids, cum = scored[0]
    return list(ids), cum, cum / len(ids)


# ------------------------- per-tensor optimizer, format, kron-gather map


class PerTensorAdam:
    """Bias-corrected Adam with one m/v array per parameter, updated in a
    per-tensor loop; a parameter whose grad is None is skipped entirely.
    `named` is a list of (name, tensor) with `.data` and `.grad` arrays."""

    def __init__(self, named, beta1=0.9, beta2=0.98, eps=1e-9):
        self.named = list(named)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(t.data) for _, t in self.named]
        self.v = [np.zeros_like(t.data) for _, t in self.named]
        self.t = 0

    def step(self, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for i, (_, p) in enumerate(self.named):
            g = p.grad
            if g is None:
                continue
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            p.data = p.data - lr * (self.m[i] / c1) / (np.sqrt(self.v[i] / c2) + self.eps)


def clip_per_tensor(named, max_norm):
    """Global-norm clipping with the squared norm summed tensor by tensor.
    Each gradient is rebound to a scaled copy, never scaled in place, so
    aliased and read-only gradient arrays are handled correctly."""
    with_grad = [t for _, t in named if t.grad is not None]
    total = math.sqrt(sum(float((t.grad * t.grad).sum()) for t in with_grad))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for t in with_grad:
            t.grad = t.grad * scale
    return total


def checkpoint_v1_bytes(config, vocab_tokens, named_arrays, trained_steps=0):
    """A gevst-checkpoint-v1 file: one compact JSON header line, then one
    little-endian float64 tobytes() per parameter in manifest order."""
    manifest, chunks, offset = [], [], 0
    for name, values in named_arrays:
        arr = np.ascontiguousarray(values, dtype="<f8")
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        chunks.append(arr.tobytes())
        offset += arr.nbytes
    header = {
        "format": "gevst-checkpoint-v1",
        "config": config,
        "vocab": vocab_tokens,
        "trained_steps": int(trained_steps),
        "params": manifest,
        "data_bytes": offset,
    }
    return json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n" + b"".join(chunks)


def kron_attention_map(T, att, queries, keys):
    """Row-stochastic [N x M] additive-attention map with the [N*M x d_a]
    pair grid built by multiplying both projections by constant kron gather
    matrices. T is the tensor engine; att holds v_proj (queries), s_proj
    (keys) and out, each with .w and .b tensors."""
    n, m = queries.data.shape[0], keys.data.shape[0]
    p = T.affine(queries, att.v_proj.w, att.v_proj.b)
    k = T.affine(keys, att.s_proj.w, att.s_proj.b)
    eq = T.Tensor(np.kron(np.eye(n), np.ones((m, 1))))
    ek = T.Tensor(np.kron(np.ones((n, 1)), np.eye(m)))
    h = T.tanh(T.add(T.matmul(eq, p), T.matmul(ek, k)))
    scores = T.reshape(T.affine(h, att.out.w, att.out.b), (n, m))
    return T.softmax(scores)


def split_heads(T, x, h):
    """[..., n, d] -> [..., h, n, d/h] through the engine T."""
    shp = x.data.shape
    n, d = shp[-2], shp[-1]
    if d % h != 0:
        raise T.ShapeError(f"width {d} not divisible by {h} heads")
    y = T.reshape(x, shp[:-2] + (n, h, d // h))
    perm = tuple(range(len(shp) - 2)) + (len(shp) - 1, len(shp) - 2, len(shp))
    return T.transpose(y, perm)


def merge_heads(T, x):
    """[..., h, n, dh] -> [..., n, h*dh] through the engine T."""
    shp = x.data.shape
    h, n, dh = shp[-3], shp[-2], shp[-1]
    perm = tuple(range(len(shp) - 3)) + (len(shp) - 2, len(shp) - 3, len(shp) - 1)
    return T.reshape(T.transpose(x, perm), shp[:-3] + (n, h * dh))


def masked_fill(T, x, mask, value):
    """Entries of x where the bool array mask is True replaced by a constant,
    as one engine node whose backward zeroes the masked entries."""
    xd = x.data
    m = np.asarray(mask, dtype=bool)
    if m.shape != xd.shape:
        raise T.ShapeError(f"masked_fill: mask shape {m.shape} != tensor shape {xd.shape}")
    return T._emit(np.where(m, float(value), xd), (x,), lambda g: (np.where(m, 0.0, g),))


def attention_weights(T, q, k, h, mask=None):
    """softmax(Q K^T / sqrt(d_h)) per head, -1e9 where mask, one engine op per step."""
    dh = q.data.shape[-1] // h
    qh = split_heads(T, q, h)
    kh = split_heads(T, k, h)
    ndim = len(kh.data.shape)
    kt = T.transpose(kh, tuple(range(ndim - 2)) + (ndim - 1, ndim - 2))
    scores = T.mul(T.matmul(qh, kt), 1.0 / np.sqrt(dh))
    if mask is not None:
        scores = masked_fill(T, scores, mask, -1e9)
    return T.softmax(scores)


def apply_attention(T, weights, v, h):
    """weights [..., h, n_q, n_k] over v [..., n_k, d] -> [..., n_q, d]."""
    return merge_heads(T, T.matmul(weights, split_heads(T, v, h)))
