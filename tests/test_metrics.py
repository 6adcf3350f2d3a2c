import numpy as np
import pytest

import oracles as O
import util as U
from gevst.errors import InputError
from gevst.metrics import (CiderScorer, bleu, cider_d, evaluate, lcs_length,
                           rouge_l)

WORDS = ["a", "red", "circle", "sits", "left", "of", "the", "blue", "square",
         "triangle", "above", "green"]


def rand_corpus(rng, n_sent=6, n_refs=2, lo=3, hi=9):
    cands, refss = [], []
    for _ in range(n_sent):
        cands.append([WORDS[i] for i in rng.integers(0, len(WORDS), rng.integers(lo, hi))])
        refss.append([[WORDS[i] for i in rng.integers(0, len(WORDS), rng.integers(lo, hi))]
                      for _ in range(n_refs)])
    return cands, refss


def test_identity_scores_are_exact(rng):
    # three distinct sentences, each long enough to own 4-grams, with no
    # shared words so every n-gram keeps a positive IDF
    sents = [["a", "red", "circle", "sits"],
             ["the", "blue", "square", "rests", "here"],
             ["one", "green", "triangle", "floats"]]
    refs = [[list(s)] for s in sents]
    assert bleu(sents, refs) == [1.0, 1.0, 1.0, 1.0]
    corpus, per = rouge_l(sents, refs)
    assert corpus == 1.0 and per == [1.0, 1.0, 1.0]
    corpus, per = cider_d(sents, refs)
    assert corpus == 10.0 and all(p == 10.0 for p in per)


def test_bleu_matches_oracle(rng):
    for _ in range(20):
        cands, refss = rand_corpus(rng)
        got = bleu(cands, refss)
        want = O.bleu_oracle(cands, refss)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-9


def test_rouge_matches_oracle(rng):
    for _ in range(20):
        cands, refss = rand_corpus(rng)
        got, _ = rouge_l(cands, refss)
        assert abs(got - O.rouge_l_oracle(cands, refss)) < 1e-9


def test_cider_matches_oracle(rng):
    for _ in range(20):
        cands, refss = rand_corpus(rng)
        got, got_per = cider_d(cands, refss)
        want, want_per = O.cider_d_oracle(cands, refss)
        assert abs(got - want) < 1e-9
        assert max(abs(g - w) for g, w in zip(got_per, want_per)) < 1e-9


def test_lcs_known_values():
    assert lcs_length("abcde", "ace") == 3
    assert lcs_length([], [1, 2]) == 0
    assert lcs_length([1, 2, 3], [3, 2, 1]) == 1


def test_bleu_zero_precision_and_brevity():
    # no 2-gram overlap -> BLEU-2..4 collapse to 0, BLEU-1 stays positive
    scores = bleu([["a", "b"]], [[["b", "a"]]])
    assert scores[0] > 0 and scores[1:] == [0.0, 0.0, 0.0]
    # short candidate is punished by the brevity penalty
    full = bleu([["a", "b", "c", "d"]], [[["a", "b", "c", "d"]]])[0]
    short = bleu([["a", "b"]], [[["a", "b", "c", "d"]]])[0]
    assert full == 1.0 and 0 < short < 1.0
    assert abs(short - np.exp(1 - 4 / 2)) < 1e-12


def test_closest_ref_length_tie_prefers_shorter():
    # candidate length 3, references of 2 and 4: tie -> r = 2 -> BP = 1
    scores = bleu([["a", "b", "c"]], [[["a", "b"], ["a", "b", "c", "d"]]])
    assert scores[0] == 1.0


@pytest.mark.filterwarnings("ignore:CIDEr-D over a single-document corpus")
def test_disjoint_sentences_score_zero():
    cands = [["a", "b"]]
    refs = [[["c", "d"]]]
    assert bleu(cands, refs) == [0.0] * 4
    assert rouge_l(cands, refs)[0] == 0.0
    assert cider_d(cands, refs)[0] == 0.0


def test_length_penalty_direction():
    # second document keeps the IDF away from the single-document degeneracy
    refs = [[["a"] * 5], [["b", "c", "d", "e"]]]
    other = ["b", "c", "d", "e"]
    near = cider_d([["a"] * 5, other], refs)[1][0]
    far = cider_d([["a"] * 9, other], refs)[1][0]
    assert near > far > 0.0


def test_cider_scorer_reuse_matches_one_shot(rng):
    cands, refss = rand_corpus(rng)
    scorer = CiderScorer(refss)
    assert scorer.corpus(cands, refss) == cider_d(cands, refss)


def test_single_document_corpus_warns():
    with pytest.warns(UserWarning, match="single-document"):
        CiderScorer([[["a", "b"]]])


def test_input_validation():
    with pytest.raises(InputError):
        bleu([], [])
    with pytest.raises(InputError):
        rouge_l([["a"]], [])
    with pytest.raises(InputError):
        cider_d([["a"]], [[]])


def test_evaluate_report_shape(rng):
    cands, refss = rand_corpus(rng, n_sent=3)
    rep = evaluate(cands, refss)
    assert set(rep) == {"bleu1", "bleu2", "bleu3", "bleu4", "rouge_l", "cider_d", "n"}
    assert rep["n"] == 3
    assert rep["bleu4"] <= rep["bleu1"]


def test_cider_scorer_vectorizes_each_reference_once(rng):
    """SCST scores every sample against the same references each step: the
    scorer vectorizes each distinct reference once, and its scores over
    repeated calls stay bit-identical to vectorizing every reference on every
    call (tests/util.py keeps that as the reference, here on a second scorer
    of the same corpus), also for references outside its IDF corpus."""
    _, refss = rand_corpus(rng, n_sent=5)
    scorer, plain = CiderScorer(refss), CiderScorer(refss)
    vectorized, vec = [], scorer._vec
    scorer._vec = lambda tokens: vectorized.append(tuple(tokens)) or vec(tokens)
    refss = refss + [[[WORDS[i] for i in rng.integers(0, len(WORDS), 6)]]]
    calls = 0
    for _ in range(4):
        cands, _ = rand_corpus(rng, n_sent=len(refss))
        for cand, refs in zip(cands, refss):
            assert scorer.sentence(cand, refs) == U.reference_cider_sentence(plain, cand, refs)
            calls += 1
    distinct = {tuple(r) for refs in refss for r in refs}
    assert len(vectorized) == calls + len(distinct)
