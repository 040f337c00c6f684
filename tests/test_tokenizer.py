import json

import pytest

from simtrans.errors import EmptySentence
from simtrans.tokenizer import tokenize

from conftest import FIXTURES
from oracles import scan_tokenize


def test_simple_sentence():
    assert tokenize("I like tea.") == ["I", "like", "tea", "."]


def test_comma_split():
    assert tokenize("Ja, gut.") == ["Ja", ",", "gut", "."]


def test_contraction_split():
    assert tokenize("don't stop") == ["do", "n't", "stop"]


def test_contraction_sample_frozen():
    # 50 sentences double-checked against an independent treebank-style
    # regex splitter before freezing; see fixtures/contraction_sample.json.
    cases = json.loads((FIXTURES / "contraction_sample.json").read_text())
    assert len(cases) == 50
    for case in cases:
        assert tokenize(case["sentence"]) == case["tokens"], case["sentence"]


def test_empty_sentence_raises():
    with pytest.raises(EmptySentence):
        tokenize("   \t ")


def test_decimal_and_thousands_kept():
    assert tokenize("It costs 3.5 or 1,000 now.") == \
        ["It", "costs", "3.5", "or", "1,000", "now", "."]


def test_hyphen_kept_inside_words():
    assert tokenize("a well-known fact") == ["a", "well-known", "fact"]


def test_negative_number():
    assert tokenize("-5 degrees") == ["-5", "degrees"]


def test_no_empty_words(rng):
    for _ in range(200):
        n = int(rng.integers(1, 40))
        text = "".join(
            rng.choice(list("ab .,!?()'\"-3"), size=n)
        )
        try:
            words = tokenize(text)
        except EmptySentence:
            continue
        assert all(w and not any(c.isspace() for c in w) for w in words)


def test_tokenize_matches_a_full_scan(rng):
    # chunks with and without split marks, contraction suffixes, curly
    # apostrophes, digits, marks kept inside words and a decomposed umlaut
    alphabet = list("abNT3 .,:'’-\"(%/") + ["n't", "'S", "’ll", "u\u0308", "\u00a0", "well-"]
    for _ in range(2000):
        n = int(rng.integers(1, 16))
        text = "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=n))
        if not text.strip():
            continue
        assert tokenize(text) == scan_tokenize(text), text
    # whole chunks: plain words, lone marks, marks at either edge of a chunk
    # or at both, contractions; one sentence in four has no mark at all
    plain = ["cat", "Dogs", "3", "x%y", "a/b", "na\u00efve", "u\u0308ber"]
    marked = [".", "'", "’", "-", "—", "«", "“", "¿", "…", '"', ",cat", "cat,", "(cat)",
              "'cat'", "-3", "3-", "«cat»", "don't", "DON’T", "they're", "n't", "'ll",
              "cats'", "rock'n'roll", "3.5", "1,000", "well-known", "O'Brien", "'tis"]
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        words = plain if rng.random() < 0.25 else plain + marked
        text = " ".join(words[int(i)] for i in rng.integers(0, len(words), size=n))
        assert tokenize(text) == scan_tokenize(text), text


def _natural_sentence(rng):
    """Sentence in standard orthography."""
    lexicon = ["time", "stream", "don't", "it's", "well-known", "Anna",
               "quickly", "3.5", "1,000", "word", "they're", "O'Brien"]
    n = int(rng.integers(1, 9))
    words = [lexicon[int(rng.integers(0, len(lexicon)))] for _ in range(n)]
    parts = []
    for i, w in enumerate(words):
        parts.append(w)
        if i < n - 1 and rng.random() < 0.15:
            parts[-1] += ","
        if i < n - 1 and rng.random() < 0.1:
            parts.append("—")
    if rng.random() < 0.3:
        parts[0] = "(" + parts[0]
        parts[-1] += ")"
    if rng.random() < 0.3:
        parts[0] = '"' + parts[0]
        parts[-1] += '"'
    return " ".join(parts) + "."


def test_natural_sentences_match_a_full_scan(rng):
    # the tokenizer's output is also idempotent: its space-joined words
    # tokenize to themselves
    for _ in range(500):
        sentence = _natural_sentence(rng)
        words = tokenize(sentence)
        assert words == scan_tokenize(sentence), sentence
        assert tokenize(" ".join(words)) == words, sentence


def test_determinism():
    s = 'The "quick" fox doesn\'t wait — (really), 3.5 times.'
    assert tokenize(s) == tokenize(s)
