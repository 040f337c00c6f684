"""Corpus-level BLEU-4 with mteval-13a tokenization.

Unsmoothed geometric mean of 1..4-gram precisions times the brevity
penalty, on the 0-100 scale. Any order with zero matches zeroes the score;
sentence-level smoothing variants are deliberately not provided.

Each hypothesis is reduced once to integer sufficient statistics (clipped
n-gram matches, n-gram totals and both lengths); corpus BLEU is a function
of their sums, so any subset or resample of sentences is scored by summing
rows (Post, 2018).
"""

import math
import re
from collections import Counter
from dataclasses import dataclass

from .errors import InputMismatch

MAX_ORDER = 4

_PUNCT_PAT = re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])")
_PERIOD_BEFORE = re.compile(r"([^0-9])([\.,])")
_PERIOD_AFTER = re.compile(r"([\.,])([^0-9])")
_DIGIT_DASH = re.compile(r"([0-9])(-)")
_WS = re.compile(r"\s+")
# _PUNCT_PAT.sub(r" \1 ", text) as a translation table: the class holds only
# single ASCII characters, and translate avoids a Python call per match
_PUNCT_SPLIT = str.maketrans(
    {c: f" {c} " for c in map(chr, range(128)) if _PUNCT_PAT.fullmatch(c)}
)


def tokenize_13a(line: str) -> list:
    """mteval-v13a tokenization: split symbols, keep digit-internal . and ,"""
    norm = line.replace("<skipped>", "")
    norm = norm.replace("-\n", "").replace("\n", " ")
    norm = (
        norm.replace("&quot;", '"')
        .replace("&amp;", "&")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
    )
    norm = f" {norm} "
    norm = norm.translate(_PUNCT_SPLIT)
    norm = _PERIOD_BEFORE.sub(r"\1 \2 ", norm)
    norm = _PERIOD_AFTER.sub(r" \1 \2", norm)
    norm = _DIGIT_DASH.sub(r"\1 \2 ", norm)
    return _WS.sub(" ", norm).strip().split()


def _ngram_counts(tokens, max_order=MAX_ORDER) -> Counter:
    counts = Counter()
    for n in range(1, max_order + 1):
        counts.update(zip(*(tokens[i:] for i in range(n))))
    return counts


# Column layout of one sentence's statistics: clipped n-gram matches for
# orders 1..4, n-gram totals for orders 1..4, hypothesis length, reference
# length. Corpus BLEU over any multiset of sentences is bleu_from_stats of
# the column sums of their rows.
STATS_WIDTH = 2 * MAX_ORDER + 2


@dataclass(frozen=True)
class ReferenceStats:
    """A reference tokenized once: its 13a token count and n-gram counts."""

    length: int
    ngrams: Counter


def reference_stats(reference: str) -> ReferenceStats:
    tokens = tokenize_13a(reference)
    return ReferenceStats(len(tokens), _ngram_counts(tokens))


def sentence_stats(hypothesis: str, reference: ReferenceStats) -> list:
    """The STATS_WIDTH integers one hypothesis contributes to corpus BLEU."""
    tokens = tokenize_13a(hypothesis)
    correct = [0] * MAX_ORDER
    total = [0] * MAX_ORDER
    for ngram, count in _ngram_counts(tokens).items():
        n = len(ngram)
        total[n - 1] += count
        correct[n - 1] += min(count, reference.ngrams.get(ngram, 0))
    return correct + total + [len(tokens), reference.length]


def bleu_from_stats(stats) -> float:
    """BLEU from summed sentence statistics (see STATS_WIDTH for the layout)."""
    stats = [int(v) for v in stats]
    correct, total = stats[:MAX_ORDER], stats[MAX_ORDER : 2 * MAX_ORDER]
    sys_len, ref_len = stats[2 * MAX_ORDER], stats[2 * MAX_ORDER + 1]
    if sys_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(MAX_ORDER):
        if correct[n] == 0 or total[n] == 0:
            return 0.0
        log_sum += math.log(correct[n] / total[n])

    brevity = 1.0 if sys_len >= ref_len else math.exp(1.0 - ref_len / sys_len)
    return 100.0 * brevity * math.exp(log_sum / MAX_ORDER)


def corpus_bleu(hypotheses, references) -> float:
    """BLEU over parallel hypothesis/reference corpora (one ref per hyp)."""
    hypotheses = list(hypotheses)
    references = list(references)
    if not hypotheses or len(hypotheses) != len(references):
        raise InputMismatch(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    summed = [0] * STATS_WIDTH
    for hyp, ref in zip(hypotheses, references):
        for col, value in enumerate(sentence_stats(hyp, reference_stats(ref))):
            summed[col] += value
    return bleu_from_stats(summed)
