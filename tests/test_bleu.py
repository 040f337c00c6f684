import json

import pytest

import oracles
from simtrans.bleu import MAX_ORDER, batch_stats, corpus_bleu, tokenize_13a
from simtrans.errors import InputMismatch
from simtrans.rng import make_rng

from conftest import FIXTURES


def test_identity_corpus_scores_100():
    corpus = [
        "The cat sat on the mat today.",
        "A quick brown fox jumps over the lazy dog.",
    ]
    assert corpus_bleu(corpus, corpus) == pytest.approx(100.0, abs=1e-9)


def test_no_unigram_overlap_scores_zero():
    assert corpus_bleu(["aa bb cc dd"], ["xx yy zz ww"]) == 0.0


def test_golden_fixtures_within_tolerance():
    # golden values minted once from an independent reference scorer
    cases = json.loads((FIXTURES / "bleu_cases.json").read_text())
    assert len(cases) == 3
    for case in cases:
        score = corpus_bleu(case["hyps"], case["refs"])
        assert score == pytest.approx(case["bleu"], abs=0.01), case["name"]


def test_corpus_order_invariance():
    hyps = ["the cat sat down", "dogs bark loudly at night", "rain fell all day"]
    refs = ["the cat sat down", "dogs bark loudly at midnight", "rain fell all week"]
    base = corpus_bleu(hyps, refs)
    assert corpus_bleu(hyps[::-1], refs[::-1]) == pytest.approx(base, abs=1e-12)


def test_brevity_penalty_applies():
    # identical n-gram precision, shorter hypothesis must score lower
    full = corpus_bleu(["a b c d e f"], ["a b c d e f"])
    short = corpus_bleu(["a b c d"], ["a b c d e f"])
    assert short < full


def test_length_mismatch_rejected():
    with pytest.raises(InputMismatch):
        corpus_bleu(["a"], ["a", "b"])
    with pytest.raises(InputMismatch):
        corpus_bleu([], [])


def test_13a_tokenizer_splits():
    assert tokenize_13a("Hello, world! It costs 3.5 dollars.") == [
        "Hello", ",", "world", "!", "It", "costs", "3.5", "dollars", ".",
    ]
    assert tokenize_13a("x&amp;y") == ["x", "&", "y"]
    assert tokenize_13a("1996-2000") == ["1996", "-", "2000"]


def test_13a_matches_regex_oracle_fuzz():
    pieces = list("abcXYZ0123456789 .,-\n\t'") + [chr(c) for c in range(33, 127)] + [
        "&amp;", "&quot;", "&lt;", "&gt;", "<skipped>", "-\n", "é", "—", "3.5", "1,000",
        "\x1c", "\xa0", "\u3000", "\r", "\x0b",
    ]
    rng = make_rng(13)
    # one chunk memo across every line, as an evaluate run shares it
    memo = {}
    for _ in range(2000):
        picks = rng.integers(0, len(pieces), size=int(rng.integers(0, 30)))
        line = "".join(pieces[int(i)] for i in picks)
        assert tokenize_13a(line, memo) == oracles.regex_tokenize_13a(line), repr(line)


def test_large_vocabulary_matches_string_oracle():
    # 70 000 distinct tokens. Each reference edit puts id p + 1 + 2**16 after
    # id p - 1, which packed 16 bits per token reads as the hypothesis bigram
    # (p, p + 1); dense n-gram ids must not confuse them
    size, width = 70_000, 100
    words = [f"t{i}" for i in range(size)]
    hyps, refs = [], []
    for start in range(0, size, width):
        ids = list(range(start, start + width))
        hyps.append(" ".join(words[i] for i in ids))
        edited = [(i + 1 + 2**16) % size if i % 7 == 3 else i for i in ids]
        refs.append(" ".join(words[i] for i in edited))
    score = corpus_bleu(hyps, refs)
    assert 0.0 < score < 100.0
    assert score == oracles.string_corpus_bleu(hyps, refs)


def test_empty_and_short_hypotheses():
    hyps = ["", "a", "a b", "a b c", "a b c d e"]
    refs = ["a b c d", "a b", "a b", "x a b c", "a b c d e"]
    memo = {}
    stats = batch_stats([tokenize_13a(h, memo) for h in hyps],
                        [tokenize_13a(r, memo) for r in refs], range(len(refs)))
    assert stats.tolist() == [
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 4],
        [1, 0, 0, 0, 1, 0, 0, 0, 1, 2],
        [2, 1, 0, 0, 2, 1, 0, 0, 2, 2],
        [3, 2, 1, 0, 3, 2, 1, 0, 3, 4],
        [5, 4, 3, 2, 5, 4, 3, 2, 5, 5],
    ]
    for end in range(1, len(hyps) + 1):
        assert corpus_bleu(hyps[:end], refs[:end]) == oracles.string_corpus_bleu(
            hyps[:end], refs[:end])
    assert batch_stats([], [], []).shape == (0, 2 * MAX_ORDER + 2)

