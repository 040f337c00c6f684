"""Corpus-level BLEU-4 with mteval-13a tokenization.

Unsmoothed geometric mean of 1..4-gram precisions times the brevity
penalty, on the 0-100 scale. Any order with zero matches zeroes the score;
sentence-level smoothing variants are deliberately not provided.

Each hypothesis is reduced once to integer sufficient statistics (clipped
n-gram matches, n-gram totals and both lengths); corpus BLEU is a function
of their sums, so any subset or resample of sentences is scored by summing
rows (Post, 2018).
"""

import itertools
import math
import re

import numpy as np

from .errors import InputMismatch

MAX_ORDER = 4

_PUNCT_PAT = re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])")
_PERIOD_BEFORE = re.compile(r"([^0-9])([\.,])")
_PERIOD_AFTER = re.compile(r"([\.,])([^0-9])")
_DIGIT_DASH = re.compile(r"([0-9])(-)")
# _PUNCT_PAT.sub(r" \1 ", text) as a translation table: the class holds only
# single ASCII characters, and translate avoids a Python call per match
_PUNCT_SPLIT = str.maketrans(
    {c: f" {c} " for c in map(chr, range(128)) if _PUNCT_PAT.fullmatch(c)}
)


def _split_chunk(chunk: str) -> list:
    """The 13a tokens of one whitespace-free chunk.

    Every rule after the line-wide replacements reads at most two adjacent
    characters and treats whitespace as a non-digit that is never split off,
    so a chunk padded with spaces tokenizes as it would inside its line.
    """
    if chunk.isalnum():
        return [chunk]
    norm = f" {chunk} ".translate(_PUNCT_SPLIT)
    norm = _PERIOD_BEFORE.sub(r"\1 \2 ", norm)
    norm = _PERIOD_AFTER.sub(r" \1 \2", norm)
    norm = _DIGIT_DASH.sub(r"\1 \2 ", norm)
    return norm.split()


def tokenize_13a(line: str, memo=None) -> list:
    """mteval-v13a tokenization: split symbols, keep digit-internal . and ,

    memo, when given, maps each whitespace-separated chunk already seen to
    its tokens; a caller tokenizing many lines passes one dict to all of
    them, so each distinct chunk is split once.
    """
    norm = line.replace("<skipped>", "")
    norm = norm.replace("-\n", "").replace("\n", " ")
    norm = (
        norm.replace("&quot;", '"')
        .replace("&amp;", "&")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
    )
    if memo is None:
        memo = {}
    tokens = []
    for chunk in norm.split():
        split = memo.get(chunk)
        if split is None:
            split = memo[chunk] = _split_chunk(chunk)
        tokens += split
    return tokens


# Column layout of one sentence's statistics: clipped n-gram matches for
# orders 1..4, n-gram totals for orders 1..4, hypothesis length, reference
# length. Corpus BLEU over any multiset of sentences is bleu_from_stats of
# the column sums of their rows.
STATS_WIDTH = 2 * MAX_ORDER + 2


def batch_stats(hyp_tokens, ref_tokens, ref_index) -> np.ndarray:
    """The (len(hyp_tokens), STATS_WIDTH) int64 statistics of a batch.

    Row i scores the token list hyp_tokens[i] against ref_tokens[ref_index[i]],
    so a reference shared by many hypotheses is given once. All n-grams are
    counted in one numpy pass per order: tokens become int ids, each n-gram
    a dense id from its (n-1)-gram's id and its last token, and clipped
    matches are the per-sentence sums of min(hypothesis count, reference count).
    """
    ref_index = np.asarray(ref_index, dtype=np.int64)
    n_hyp, n_ref = len(hyp_tokens), len(ref_tokens)
    if len(ref_index) != n_hyp:
        raise InputMismatch(f"{n_hyp} hypotheses vs {len(ref_index)} reference indices")
    if n_hyp and not (0 <= ref_index.min() and ref_index.max() < n_ref):
        raise InputMismatch(f"a reference index is outside the {n_ref} references")

    sentences = [*hyp_tokens, *ref_tokens]
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    words = list(itertools.chain.from_iterable(sentences))
    vocab = dict(zip(dict.fromkeys(words), itertools.count()))
    ids = np.fromiter(map(vocab.__getitem__, words), dtype=np.int64, count=len(words))
    owner = np.repeat(np.arange(len(sentences), dtype=np.int64), lengths)
    # tokens from each position to the end of its sentence, that position's included
    left = np.cumsum(lengths)[owner] - np.arange(len(words), dtype=np.int64)

    hyp_len = lengths[:n_hyp]
    stats = np.zeros((n_hyp, STATS_WIDTH), dtype=np.int64)
    pos = np.arange(len(words), dtype=np.int64)
    gram, grams = ids, max(len(vocab), 1)
    for n in range(1, MAX_ORDER + 1):
        if n > 1:
            keep = left[pos] >= n
            pos = pos[keep]
            # dense ids stay below the token count, so codes stay below its
            # square; bits packed per token would overflow int64 at 4-grams
            distinct, gram = np.unique(gram[keep] * len(vocab) + ids[pos + n - 1],
                                       return_inverse=True)
            grams = max(len(distinct), 1)
        # one key per (sentence, n-gram): hypotheses first, then references
        keys, counts = np.unique(owner[pos] * grams + gram, return_counts=True)
        split = np.searchsorted(keys, n_hyp * grams)
        rows, row_gram = np.divmod(keys[:split], grams)
        wanted = (n_hyp + ref_index[rows]) * grams + row_gram
        at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        in_ref = np.where(keys[at] == wanted, counts[at], 0)
        clipped = np.minimum(counts[:split], in_ref)
        stats[:, n - 1] = np.bincount(rows, weights=clipped, minlength=n_hyp)
        stats[:, MAX_ORDER + n - 1] = np.maximum(hyp_len - n + 1, 0)
    stats[:, 2 * MAX_ORDER] = hyp_len
    stats[:, 2 * MAX_ORDER + 1] = lengths[n_hyp:][ref_index]
    return stats


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
    memo = {}
    stats = batch_stats(
        [tokenize_13a(hyp, memo) for hyp in hypotheses],
        [tokenize_13a(ref, memo) for ref in references],
        range(len(references)),
    )
    return bleu_from_stats(stats.sum(axis=0))
