"""Caption quality metrics: BLEU-1..4, ROUGE-L, CIDEr-D.

All functions take pre-tokenized sentences: candidates as lists of tokens,
references as one list of token-lists per candidate.

BLEU is corpus-level (clipped n-gram counts and lengths accumulate over all
segments) with brevity penalty min(1, e^{1-r/c}) where r sums each segment's
closest reference length (ties -> shorter). ROUGE-L is the LCS F-measure with
beta^2 = 1.2, max over references, corpus = mean. CIDEr-D follows the
standard recipe: per n in 1..4 a tf-idf vector cosine with candidate counts
clipped to the reference's, a Gaussian length penalty (sigma = 6), average
over references then over n, times 10; corpus = mean of per-sentence scores.
IDF statistics build once per reference corpus (document = one reference set)
and can be reused across calls via CiderScorer, which also vectorizes each
distinct reference once.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter

from .errors import InputError

BLEU_N, ROUGE_BETA_SQ = 4, 1.2


def ngram_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _check_pairs(candidates, references):
    if not candidates:
        raise InputError("no candidates to score")
    if len(candidates) != len(references):
        raise InputError(f"{len(candidates)} candidates vs {len(references)} reference sets")
    for refs in references:
        if not refs:
            raise InputError("every candidate needs at least one reference")


def bleu(candidates, references):
    """Corpus BLEU-1..4 as a list; no smoothing (zero precision -> 0)."""
    _check_pairs(candidates, references)
    clipped = [0] * BLEU_N
    totals = [0] * BLEU_N
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references):
        c = len(cand)
        cand_len += c
        ref_len += min((abs(len(r) - c), len(r)) for r in refs)[1]
        for n in range(1, BLEU_N + 1):
            counts = ngram_counts(cand, n)
            if not counts:
                continue
            max_ref = Counter()
            for r in refs:
                for gram, k in ngram_counts(r, n).items():
                    if k > max_ref[gram]:
                        max_ref[gram] = k
            totals[n - 1] += sum(counts.values())
            clipped[n - 1] += sum(min(k, max_ref[gram]) for gram, k in counts.items())
    if cand_len == 0:
        return [0.0] * BLEU_N
    bp = min(1.0, math.exp(1.0 - ref_len / cand_len))
    precisions = [clipped[i] / totals[i] if totals[i] else 0.0 for i in range(BLEU_N)]
    scores = []
    for k in range(1, BLEU_N + 1):
        if any(p == 0.0 for p in precisions[:k]):
            scores.append(0.0)
        else:
            mean = math.exp(sum(math.log(p) for p in precisions[:k]) / k)
            scores.append(bp * mean)
    return scores


def lcs_length(a, b):
    la, lb = len(a), len(b)
    prev = [0] * (lb + 1)
    for i in range(1, la + 1):
        cur = [0] * (lb + 1)
        ai = a[i - 1]
        for j in range(1, lb + 1):
            cur[j] = prev[j - 1] + 1 if ai == b[j - 1] else max(prev[j], cur[j - 1])
        prev = cur
    return prev[lb]


def rouge_l(candidates, references):
    """(corpus mean, per-sentence scores); per sentence the max over references."""
    _check_pairs(candidates, references)
    per = []
    for cand, refs in zip(candidates, references):
        best = 0.0
        for r in refs:
            if not cand or not r:
                continue
            lcs = lcs_length(cand, r)
            if lcs == 0:
                continue
            p = lcs / len(cand)
            rec = lcs / len(r)
            f = (1.0 + ROUGE_BETA_SQ) * p * rec / (rec + ROUGE_BETA_SQ * p)
            if f > best:
                best = f
        per.append(best)
    return sum(per) / len(per), per


class CiderScorer:
    """CIDEr-D with IDF built once from a reference corpus."""
    n, sigma = 4, 6.0  # n-gram orders, length-penalty width

    def __init__(self, references):
        if not references:
            raise InputError("empty reference corpus")
        self.num_docs = len(references)
        if self.num_docs < 2:
            warnings.warn("CIDEr-D over a single-document corpus: IDF degenerates to log(1) = 0")
        self.log_docs = math.log(self.num_docs)
        df = Counter()
        for refs in references:
            seen = set()
            for r in refs:
                for k in range(1, self.n + 1):
                    seen.update(ngram_counts(r, k))
            df.update(seen)
        self.df = df
        self._ref_vecs = {}  # tuple(reference) -> its _vec, made on the reference's first use

    def _ref_vec(self, tokens):
        key = tuple(tokens)
        vecs = self._ref_vecs.get(key)
        if vecs is None:
            vecs = self._ref_vecs[key] = self._vec(tokens)
        return vecs

    def _vec(self, tokens):
        """Per n: (tf-idf dict, norm). Unseen n-grams get df = 1."""
        vecs = []
        for k in range(1, self.n + 1):
            v = {}
            for gram, tf in ngram_counts(tokens, k).items():
                idf = self.log_docs - math.log(max(1.0, self.df[gram]))
                v[gram] = tf * idf
            norm = math.sqrt(sum(x * x for x in v.values()))
            vecs.append((v, norm))
        return vecs

    def sentence(self, cand, refs):
        if not refs:
            raise InputError("every candidate needs at least one reference")
        cand_vecs = self._vec(cand)
        acc = [0.0] * self.n
        for r in refs:
            ref_vecs = self._ref_vec(r)
            delta = float(len(cand) - len(r))
            penalty = math.exp(-(delta * delta) / (2.0 * self.sigma * self.sigma))
            for k in range(self.n):
                cv, cn = cand_vecs[k]
                rv, rn = ref_vecs[k]
                if cn == 0.0 or rn == 0.0:
                    continue
                num = sum(min(val, rv[gram]) * rv[gram] for gram, val in cv.items() if gram in rv)
                acc[k] += penalty * num / (cn * rn)
        per_n = [10.0 * a / len(refs) for a in acc]
        return sum(per_n) / self.n

    def corpus(self, candidates, references):
        _check_pairs(candidates, references)
        per = [self.sentence(c, r) for c, r in zip(candidates, references)]
        return sum(per) / len(per), per


def cider_d(candidates, references):
    """(corpus score, per-sentence scores) with IDF from `references` itself."""
    _check_pairs(candidates, references)
    return CiderScorer(references).corpus(candidates, references)


def evaluate(candidates, references):
    """The standard report: BLEU-1..4, ROUGE-L, CIDEr-D, sample count."""
    b = bleu(candidates, references)
    rl, _ = rouge_l(candidates, references)
    cd, _ = cider_d(candidates, references)
    return {
        "bleu1": b[0],
        "bleu2": b[1],
        "bleu3": b[2],
        "bleu4": b[3],
        "rouge_l": rl,
        "cider_d": cd,
        "n": len(candidates),
    }
