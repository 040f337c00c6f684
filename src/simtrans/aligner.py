"""Statistical word alignment: EM-trained lexical tables plus intersection.

Training follows the classic one-to-many lexical translation model: every
target word is generated by exactly one source position (a positionless NULL
source word absorbs target words with no counterpart). Tables are trained in
both directions and per-position argmax links are intersected, which keeps
only high-confidence correspondences and guarantees each target index links
at most once.
"""

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from . import _kernels, inputs
from .errors import BoundsError, EmptyCorpus, InputMismatch, ParseError
from .links import DEFAULT_ITERATIONS, AlignmentLinkSet


@dataclass
class TranslationTable:
    """Sparse row-stochastic table p(target word | source word).

    Row 0 is the NULL source word. Rows cover only co-occurring pairs; any
    other combination has probability zero.
    """

    source_vocab: list[str]
    target_vocab: list[str]
    row_ptr: np.ndarray
    col: np.ndarray
    probs: np.ndarray
    log_likelihood_history: list[float]
    _trained: "_TrainedLinks" = field(repr=False, compare=False, default=None)
    # word -> id: source ids from 1 (0 is NULL), target ids from 0
    _src_index: dict = field(repr=False, init=False, compare=False)
    _tgt_index: dict = field(repr=False, init=False, compare=False)
    _slot_keys: np.ndarray = field(repr=False, init=False, compare=False, default=None)

    def __post_init__(self):
        self._src_index = {w: e for e, w in enumerate(self.source_vocab, start=1)}
        self._tgt_index = {w: f for f, w in enumerate(self.target_vocab)}

    @property
    def iterations_run(self) -> int:
        return len(self.log_likelihood_history)

    def prob(self, source_word, target_word) -> float:
        """p(target_word | source_word); source_word=None selects NULL."""
        return self.row(source_word).get(target_word, 0.0)

    def row(self, source_word) -> dict:
        """Full row as {target word: probability}; None selects NULL."""
        e = 0 if source_word is None else self._src_index.get(source_word)
        if e is None:
            return {}
        sl = slice(self.row_ptr[e], self.row_ptr[e + 1])
        return {
            self.target_vocab[int(f)]: float(p)
            for f, p in zip(self.col[sl], self.probs[sl])
        }

    def row_sums(self) -> np.ndarray:
        return _kernels.segment_sum(self.probs, self.row_ptr)

    def _weights(self, layout) -> np.ndarray:
        """Probability of every event of a layout; 0 where the table has no slot."""
        n_tgt = len(self.target_vocab)
        if self._slot_keys is None:
            rows = np.repeat(np.arange(self.row_ptr.size - 1), np.diff(self.row_ptr))
            # the trailing -1 is what a search past the last slot finds
            self._slot_keys = np.append(rows * n_tgt + self.col, -1)
        known = (layout.event_row >= 0) & (layout.event_col >= 0)
        keys = np.where(known, layout.event_row * n_tgt + layout.event_col, -1)
        slot = np.searchsorted(self._slot_keys[:-1], keys)
        hit = self._slot_keys[slot] == keys
        return np.where(hit, np.append(self.probs, 0.0)[slot], 0.0)


class _Layout(NamedTuple):
    """Flat event layout of a corpus in one direction (see _kernels).

    Every (row words, column words) pair gives one group per column
    position, over NULL and then each row position. Words are table ids:
    row id 0 is NULL, and -1 marks a word the table does not know.
    """

    event_row: np.ndarray
    event_col: np.ndarray
    group_ptr: np.ndarray
    row_lens: np.ndarray  # row words per pair, NULL not counted
    col_lens: np.ndarray


class _TrainedLinks(NamedTuple):
    """A table's own argmax over the pairs it was trained on (see _best_rows).

    Only the per-group result and the pairs' words are kept, not the layout:
    its event arrays are the bulk of training memory.
    """

    pairs: list  # (row words, column words) tuples in the table's direction
    best: np.ndarray  # segment_argmax of every group under the final table


def _layout(pairs, row_index, col_index) -> _Layout:
    """Layout of (row words, column words) pairs, word ids read from
    row_index and col_index; a word missing from its index gets -1."""
    row_words = list(chain.from_iterable(r for r, _ in pairs))
    col_words = list(chain.from_iterable(c for _, c in pairs))
    row_lens = np.fromiter(map(len, (r for r, _ in pairs)), dtype=np.int64, count=len(pairs))
    col_lens = np.fromiter(map(len, (c for _, c in pairs)), dtype=np.int64, count=len(pairs))
    sizes = np.repeat(row_lens + 1, col_lens)
    group_ptr = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=group_ptr[1:])
    # row ids of all pairs, each pair's block led by NULL (id 0)
    null_at = np.cumsum(row_lens + 1) - (row_lens + 1)
    row_ids = np.zeros(len(row_words) + len(pairs), dtype=np.int64)
    words_at = np.ones(row_ids.size, dtype=bool)
    words_at[null_at] = False
    row_ids[words_at] = _ids(row_words, row_index)
    # event e of group g reads row_ids[start of g's pair block + e - group_ptr[g]]
    shift = np.repeat(np.repeat(null_at, col_lens) - group_ptr[:-1], sizes)
    event_row = row_ids[np.arange(group_ptr[-1]) + shift]
    event_col = np.repeat(_ids(col_words, col_index), sizes)
    return _Layout(event_row, event_col, group_ptr, row_lens, col_lens)


def _ids(words, index) -> np.ndarray:
    return np.fromiter(map(index.get, words, repeat(-1)), dtype=np.int64, count=len(words))


def train_table(corpus, iterations: int = DEFAULT_ITERATIONS, direction: str = "forward") -> TranslationTable:
    """EM-train a lexical table over (source, target) sentence pairs.

    direction="reverse" swaps the sides before training, giving the table
    needed for intersection symmetrization. The per-iteration corpus
    log-likelihood (under the table entering that iteration) is recorded and
    is non-decreasing.

    The table also keeps the words of its pairs and the argmax of every
    column position under the final probabilities, taken over the layout EM
    already built: align_corpus reads it for pairs equal to those.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    pairs = [(tuple(s), tuple(t)) for s, t in corpus]
    if direction == "reverse":
        pairs = [(t, s) for s, t in pairs]
    elif direction != "forward":
        raise ValueError(f"unknown direction {direction!r}")
    if not pairs:
        raise EmptyCorpus("alignment training needs at least one sentence pair")

    # word ids in first-seen order; source ids from 1, 0 is NULL
    src_index = _first_seen(chain.from_iterable(r for r, _ in pairs), start=1)
    tgt_index = _first_seen(chain.from_iterable(c for _, c in pairs), start=0)
    n_tgt = len(tgt_index)
    if not n_tgt:
        side = "target" if direction == "forward" else "source"
        raise EmptyCorpus(f"alignment training needs at least one {side} word")
    layout = _layout(pairs, src_index, tgt_index)
    ll_const = 0.0
    for n_rows, n_cols in zip(layout.row_lens.tolist(), layout.col_lens.tolist()):
        ll_const += n_cols * math.log(n_rows + 1)

    slots, event_slot = np.unique(
        layout.event_col + layout.event_row * n_tgt, return_inverse=True
    )
    row_ptr = np.searchsorted(slots // n_tgt, np.arange(len(src_index) + 2))
    probs = np.full(slots.size, 1.0 / n_tgt, dtype=np.float64)
    probs, history = _kernels.em_sweep(probs, event_slot, layout.group_ptr, row_ptr, ll_const, iterations)
    best = _kernels.segment_argmax(probs[event_slot], layout.group_ptr)

    return TranslationTable(
        source_vocab=list(src_index),
        target_vocab=list(tgt_index),
        row_ptr=row_ptr,
        col=slots % n_tgt,
        probs=probs,
        log_likelihood_history=history,
        _trained=_TrainedLinks(pairs, best),
    )


def _first_seen(words, start) -> dict:
    """word -> id, ids counting from start in first-seen order."""
    return {w: e for e, w in enumerate(dict.fromkeys(words), start=start)}


def _best_rows(pairs, table: TranslationTable):
    """Argmax row position of every (pair, column position), or -1; pairs
    are (row words, column words) tuples in the table's direction.

    Pairs equal to those the table was trained on lay out to the same events
    under the same table, so the argmax EM kept is returned as it is.
    """
    trained = table._trained
    if trained is not None and trained.pairs == pairs:
        return trained.best
    layout = _layout(pairs, table._src_index, table._tgt_index)
    return _kernels.segment_argmax(table._weights(layout), layout.group_ptr)


def align_corpus(corpus, forward: TranslationTable, reverse: TranslationTable) -> list:
    """Link every (source, target) pair; one AlignmentLinkSet per pair.

    Links are the intersection of forward per-target and reverse per-source
    argmax links. Ties go to the lowest position, and NULL must strictly
    beat every position to absorb a word. A word a table never saw has
    probability 0 there, so it gets no link.

    Pairs equal to those both tables were trained on, such as the training
    corpus or a copy of it, read the argmax EM took over its own layout, and
    no table slot is searched. Any other pairs, such as held-out ones, take
    the general path: a layout over the table's vocabulary, each event's
    probability found by slot search, then the same argmax.
    """
    pairs = [(tuple(s), tuple(t)) for s, t in corpus]
    src_lens = np.array([len(s) for s, _ in pairs], dtype=np.int64)
    tgt_lens = np.array([len(t) for _, t in pairs], dtype=np.int64)
    # fwd[g]: source position for target position g; rev[g]: target position for source g
    fwd = _best_rows(pairs, forward)
    rev = _best_rows([(t, s) for s, t in pairs], reverse)
    # forward link (i, j) survives when the reverse argmax of source i is j
    pair = np.repeat(np.arange(len(pairs)), tgt_lens)
    j = np.arange(fwd.size) - np.repeat(np.cumsum(tgt_lens) - tgt_lens, tgt_lens)
    rev_at = np.where(fwd >= 0, (np.cumsum(src_lens) - src_lens)[pair] + fwd, rev.size)
    kept = np.append(rev, -1)[rev_at] == j
    links = [set() for _ in pairs]
    for p, i, jj in zip(pair[kept].tolist(), fwd[kept].tolist(), j[kept].tolist()):
        links[p].add((i, jj))
    return [
        AlignmentLinkSet(links=ls, source_len=len(s), target_len=len(t))
        for ls, (s, t) in zip(links, pairs)
    ]


def parse_pharaoh_line(line: str, line_no: int = None, path=None) -> set:
    links = set()
    for tok in line.split():
        i_s, sep, j_s = tok.partition("-")
        if sep != "-" or not i_s.isdigit() or not j_s.isdigit():
            raise ParseError(f"bad alignment token {tok!r}", line_no, path)
        links.add((int(i_s), int(j_s)))
    return links


def import_alignments(path, corpus) -> list:
    """Read Pharaoh "i-j" lines, validating bounds against a companion corpus."""
    sizes = [(len(s), len(t)) for s, t in corpus]
    out = []
    lines = list(inputs.lines(inputs.read_text(path)))  # a blank line is a pair with no links
    if len(lines) != len(sizes):
        raise InputMismatch(
            f"{path}: {len(lines)} alignment lines for {len(sizes)} corpus pairs"
        )
    for n, (line, (src_len, tgt_len)) in enumerate(zip(lines, sizes), start=1):
        links = parse_pharaoh_line(line, n, path)
        for i, j in links:
            if i >= src_len or j >= tgt_len:
                raise BoundsError(
                    f"{path}: line {n}: link ({i},{j}) outside {src_len}x{tgt_len}"
                )
        out.append(AlignmentLinkSet(links=links, source_len=src_len, target_len=tgt_len))
    return out
