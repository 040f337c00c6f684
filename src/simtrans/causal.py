"""Causal restructuring of aligned sentence pairs.

A pair is causal when no target word sits earlier (counting words from the
sentence start) than the last source word it is linked to. The builder walks
the target left to right and inserts wait markers in front of any word that
would otherwise run ahead of its alignment constraint, then pads the shorter
side so both sides end up the same length: fillers on the source tail, or
trailing wait markers on the target when the source is the longer side.
Both marker kinds are transport-only and are stripped again before anything
reaches a model.
"""

import json
from dataclasses import dataclass

from .aligner import AlignmentLinkSet, align_corpus
from .errors import ParseError, SimtransError
from .units import FILLER_TOKEN, WAIT_TOKEN


@dataclass
class CausalPair:
    source_words: list[str]
    target_words: list[str]
    wait_count: int
    filler_count: int
    origin_links: AlignmentLinkSet

    def aligned_length(self) -> int:
        return len(self.source_words)

    def stripped_source(self) -> list[str]:
        return [w for w in self.source_words if w != FILLER_TOKEN]

    def stripped_target(self) -> list[str]:
        return [w for w in self.target_words if w != WAIT_TOKEN]


def causal_align(src, tgt, links: AlignmentLinkSet) -> CausalPair:
    """Insert wait markers so every linked target word trails its source.

    The constraint index of target word j is the maximum source index among
    its links; unlinked words carry none. A greedy left-to-right pass inserts
    the minimum number of markers for this scheme.
    """
    src_words = list(getattr(src, "words", src))
    tgt_words = list(getattr(tgt, "words", tgt))

    constraint = {}
    for i, j in links.links:
        constraint[j] = max(i, constraint.get(j, -1))

    out_target = []
    for j, word in enumerate(tgt_words):
        need = constraint.get(j, -1)
        while len(out_target) < need:
            out_target.append(WAIT_TOKEN)
        out_target.append(word)

    out_source = list(src_words)
    if len(out_target) > len(out_source):
        out_source.extend([FILLER_TOKEN] * (len(out_target) - len(out_source)))
    elif len(out_source) > len(out_target):
        out_target.extend([WAIT_TOKEN] * (len(out_source) - len(out_target)))

    return CausalPair(
        source_words=out_source,
        target_words=out_target,
        wait_count=sum(1 for w in out_target if w == WAIT_TOKEN),
        filler_count=len(out_source) - len(src_words),
        origin_links=links,
    )


@dataclass
class CorpusStats:
    pair_count: int
    wait_total: int
    filler_total: int

    @property
    def mean_waits(self) -> float:
        return self.wait_total / self.pair_count if self.pair_count else 0.0


def build_corpus(pairs, forward, reverse, align_fn=None):
    """Causally align every (source, target) pair; returns (pairs, stats).

    align_fn overrides the table-based aligner, e.g. to feed imported link
    sets: it receives (index, src, tgt) and returns an AlignmentLinkSet.
    """
    pairs = list(pairs)
    if align_fn is None:
        link_sets = align_corpus(pairs, forward, reverse)
        align_fn = lambda idx, src, tgt: link_sets[idx]

    out = []
    for idx, (src, tgt) in enumerate(pairs):
        try:
            out.append(causal_align(src, tgt, align_fn(idx, src, tgt)))
        except SimtransError as exc:
            raise type(exc)(f"pair {idx}: {exc}") from exc
    stats = CorpusStats(
        pair_count=len(out),
        wait_total=sum(p.wait_count for p in out),
        filler_total=sum(p.filler_count for p in out),
    )
    return out, stats


def pair_to_record(pair: CausalPair) -> dict:
    return {
        "source": pair.source_words,
        "target": pair.target_words,
        "waits": pair.wait_count,
        "fillers": pair.filler_count,
        "links": [[i, j] for i, j in pair.origin_links.sorted_links()],
    }


def pair_from_record(record: dict, line_no: int = None, path=None) -> CausalPair:
    try:
        source = list(record["source"])
        target = list(record["target"])
        links = {(int(i), int(j)) for i, j in record["links"]}
        wait_count = int(record.get("waits", target.count(WAIT_TOKEN)))
        filler_count = int(record.get("fillers", source.count(FILLER_TOKEN)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad causal corpus record: {exc}", line_no, path) from exc
    stripped_src = [w for w in source if w != FILLER_TOKEN]
    stripped_tgt = [w for w in target if w != WAIT_TOKEN]
    return CausalPair(
        source_words=source,
        target_words=target,
        wait_count=wait_count,
        filler_count=filler_count,
        origin_links=AlignmentLinkSet(
            links=links, source_len=len(stripped_src), target_len=len(stripped_tgt)
        ),
    )


def write_corpus(pairs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            fh.write(json.dumps(pair_to_record(pair), ensure_ascii=False) + "\n")


def read_corpus(path) -> list:
    out = []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc}", n, path) from exc
            out.append(pair_from_record(record, n, path))
    return out


def verify_pair(record: dict) -> list:
    """Re-derive the causal invariants from the raw record fields.

    Returns a list of violation strings (empty = pass). Deliberately avoids
    CausalPair bookkeeping: everything is recomputed from source/target/links.
    """
    problems = []
    source = record.get("source")
    target = record.get("target")
    links = record.get("links")
    if not isinstance(source, list) or not isinstance(target, list) or not isinstance(links, list):
        return ["record missing source/target/links lists"]

    if len(source) != len(target):
        problems.append(f"length mismatch {len(source)} != {len(target)}")

    n_fill = source.count(FILLER_TOKEN)
    if n_fill and source[-n_fill:] != [FILLER_TOKEN] * n_fill:
        problems.append("fillers are not a contiguous source suffix")
    if FILLER_TOKEN in source[: len(source) - n_fill]:
        problems.append("filler inside source body")

    # map original target index -> post-insertion index
    positions = [idx for idx, w in enumerate(target) if w != WAIT_TOKEN]
    stripped_src_len = len(source) - n_fill
    for pair_link in links:
        try:
            i, j = int(pair_link[0]), int(pair_link[1])
        except (TypeError, ValueError, IndexError):
            problems.append(f"malformed link {pair_link!r}")
            continue
        if not (0 <= i < stripped_src_len):
            problems.append(f"link source index {i} out of range")
            continue
        if not (0 <= j < len(positions)):
            problems.append(f"link target index {j} out of range")
            continue
        if positions[j] < i:
            problems.append(
                f"causality violated: target {j} at position {positions[j]} < source {i}"
            )
    return problems


def verify_corpus_file(path):
    """Independent invariant check over a corpus file.

    Yields (1-based record index, 1-based line number, [violations]) for
    each record; blank lines are skipped and hold no record.
    """
    record_no = 0
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            record_no += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                yield record_no, n, [f"invalid JSON: {exc}"]
                continue
            yield record_no, n, verify_pair(record)
