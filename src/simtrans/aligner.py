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
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import BoundsError, EmptyCorpus, InputMismatch, ParseError

DEFAULT_ITERATIONS = 15


def _word_list(sentence) -> list[str]:
    words = getattr(sentence, "words", sentence)
    return list(words)


@dataclass
class AlignmentLinkSet:
    links: set
    source_len: int
    target_len: int

    def __post_init__(self):
        for i, j in self.links:
            if not (0 <= i < self.source_len and 0 <= j < self.target_len):
                raise BoundsError(
                    f"link ({i},{j}) outside {self.source_len}x{self.target_len}"
                )

    def sorted_links(self) -> list:
        return sorted(self.links)


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
    iterations_run: int
    log_likelihood_history: list[float]
    _src_index: dict = field(repr=False, default_factory=dict)
    _tgt_index: dict = field(repr=False, default_factory=dict)
    _slot_keys: np.ndarray = field(repr=False, init=False, compare=False, default=None)

    def _row_slice(self, row: int):
        return slice(int(self.row_ptr[row]), int(self.row_ptr[row + 1]))

    def _prob_by_ids(self, e: int, f: int) -> float:
        sl = self._row_slice(e)
        cols = self.col[sl]
        k = np.searchsorted(cols, f)
        if k < cols.size and cols[k] == f:
            return float(self.probs[sl][k])
        return 0.0

    def prob(self, source_word, target_word) -> float:
        """p(target_word | source_word); source_word=None selects NULL."""
        f = self._tgt_index.get(target_word)
        if f is None:
            return 0.0
        if source_word is None:
            return self._prob_by_ids(0, f)
        e = self._src_index.get(source_word)
        if e is None:
            return 0.0
        return self._prob_by_ids(e, f)

    def row(self, source_word) -> dict:
        """Full row as {target word: probability}; None selects NULL."""
        e = 0 if source_word is None else self._src_index.get(source_word)
        if e is None:
            return {}
        sl = self._row_slice(e)
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


def _layout(pairs, row_id, col_id) -> _Layout:
    row_ids, col_ids, row_lens, col_lens = [], [], [], []
    for row_words, col_words in pairs:
        row_ids.append(0)
        row_ids.extend(map(row_id, row_words))
        col_ids.extend(map(col_id, col_words))
        row_lens.append(len(row_words))
        col_lens.append(len(col_words))
    row_lens = np.array(row_lens, dtype=np.int64)
    col_lens = np.array(col_lens, dtype=np.int64)
    sizes = np.repeat(row_lens + 1, col_lens)
    group_ptr = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=group_ptr[1:])
    # event e of group g reads row_ids[start of g's pair block + e - group_ptr[g]]
    null_at = np.cumsum(row_lens + 1) - (row_lens + 1)
    shift = np.repeat(np.repeat(null_at, col_lens) - group_ptr[:-1], sizes)
    event_row = np.array(row_ids, dtype=np.int64)[np.arange(group_ptr[-1]) + shift]
    event_col = np.repeat(np.array(col_ids, dtype=np.int64), sizes)
    return _Layout(event_row, event_col, group_ptr, row_lens, col_lens)


def _encode(pairs):
    src_index, tgt_index = {}, {}
    layout = _layout(
        pairs,
        lambda w: src_index.setdefault(w, len(src_index) + 1),  # 0 reserved for NULL
        lambda w: tgt_index.setdefault(w, len(tgt_index)),
    )
    ll_const = 0.0
    for n_rows, n_cols in zip(layout.row_lens.tolist(), layout.col_lens.tolist()):
        ll_const += n_cols * math.log(n_rows + 1)

    n_tgt = len(tgt_index)
    slots, event_slot = np.unique(
        layout.event_col + layout.event_row * n_tgt, return_inverse=True
    )
    col = slots % n_tgt
    row_ptr = np.searchsorted(slots // n_tgt, np.arange(len(src_index) + 2))
    return (
        list(src_index),
        list(tgt_index),
        src_index,
        tgt_index,
        col,
        row_ptr,
        event_slot,
        layout.group_ptr,
        ll_const,
    )


def train_table(corpus, iterations: int = DEFAULT_ITERATIONS, direction: str = "forward") -> TranslationTable:
    """EM-train a lexical table over (source, target) sentence pairs.

    direction="reverse" swaps the sides before training, giving the table
    needed for intersection symmetrization. The per-iteration corpus
    log-likelihood (under the table entering that iteration) is recorded and
    is non-decreasing.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    pairs = [( _word_list(s), _word_list(t)) for s, t in corpus]
    if direction == "reverse":
        pairs = [(t, s) for s, t in pairs]
    elif direction != "forward":
        raise ValueError(f"unknown direction {direction!r}")
    if not pairs:
        raise EmptyCorpus("alignment training needs at least one sentence pair")

    (src_vocab, tgt_vocab, src_index, tgt_index,
     col, row_ptr, event_slot, group_ptr, ll_const) = _encode(pairs)
    if not tgt_vocab:
        side = "target" if direction == "forward" else "source"
        raise EmptyCorpus(f"alignment training needs at least one {side} word")

    probs = np.full(col.size, 1.0 / len(tgt_vocab), dtype=np.float64)
    history = []
    for _ in range(iterations):
        probs, ll = _kernels.em_sweep(probs, event_slot, group_ptr, row_ptr, ll_const)
        history.append(ll)

    return TranslationTable(
        source_vocab=src_vocab,
        target_vocab=tgt_vocab,
        row_ptr=row_ptr,
        col=col,
        probs=probs,
        iterations_run=iterations,
        log_likelihood_history=history,
        _src_index=src_index,
        _tgt_index=tgt_index,
    )


def _best_rows(pairs, table: TranslationTable):
    """Argmax row position of every (pair, column position), or -1; and the layout."""
    layout = _layout(
        pairs,
        lambda w: table._src_index.get(w, -1),
        lambda w: table._tgt_index.get(w, -1),
    )
    return _kernels.segment_argmax(table._weights(layout), layout.group_ptr), layout


def align_corpus(corpus, forward: TranslationTable, reverse: TranslationTable) -> list:
    """Link every (source, target) pair; one AlignmentLinkSet per pair.

    Links are the intersection of forward per-target and reverse per-source
    argmax links. Ties go to the lowest position, and NULL must strictly
    beat every position to absorb a word. A word a table never saw has
    probability 0 there, so it gets no link.
    """
    pairs = [(_word_list(s), _word_list(t)) for s, t in corpus]
    # fwd[g]: source position for target position g; rev[g]: target position for source g
    fwd, layout = _best_rows(pairs, forward)
    rev, _ = _best_rows([(t, s) for s, t in pairs], reverse)
    # forward link (i, j) survives when the reverse argmax of source i is j
    src_lens, tgt_lens = layout.row_lens, layout.col_lens
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


def align_pair(src, tgt, forward: TranslationTable, reverse: TranslationTable) -> AlignmentLinkSet:
    """Links of one pair; see align_corpus."""
    return align_corpus([(src, tgt)], forward, reverse)[0]


def parse_pharaoh_line(line: str, line_no: int = None, path=None) -> set:
    links = set()
    for tok in line.split():
        i_s, sep, j_s = tok.partition("-")
        if sep != "-" or not i_s.isdigit() or not j_s.isdigit():
            raise ParseError(f"bad alignment token {tok!r}", line_no, path)
        links.add((int(i_s), int(j_s)))
    return links


def format_pharaoh_line(links) -> str:
    return " ".join(f"{i}-{j}" for i, j in sorted(links))


def import_alignments(path, corpus) -> list:
    """Read Pharaoh "i-j" lines, validating bounds against a companion corpus."""
    sizes = [(len(_word_list(s)), len(_word_list(t))) for s, t in corpus]
    out = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
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


def export_alignments(link_sets, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ls in link_sets:
            fh.write(format_pharaoh_line(ls.links) + "\n")
