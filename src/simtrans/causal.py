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
from itertools import chain

from .aligner import AlignmentLinkSet
from .errors import BoundsError, InputMismatch, ParseError
from .inputs import json_lines, read_jsonl, unpaired_surrogate
from .units import FILLER_TOKEN, WAIT_TOKEN

# what json.dumps(record, ensure_ascii=False) writes, without a new encoder per line
_ENCODER = json.JSONEncoder(ensure_ascii=False)
_STR = frozenset((str,))
# a link index is an int, never a bool, a float or a numeric string
_INT = frozenset((int,))


@dataclass
class CausalPair:
    source_words: list[str]
    target_words: list[str]
    origin_links: AlignmentLinkSet

    @property
    def wait_count(self) -> int:
        return self.target_words.count(WAIT_TOKEN)

    @property
    def filler_count(self) -> int:
        return self.source_words.count(FILLER_TOKEN)

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
    constraint = {}
    for i, j in links.links:
        constraint[j] = max(i, constraint.get(j, -1))

    out_target = []
    for j, word in enumerate(tgt):
        need = constraint.get(j, -1)
        while len(out_target) < need:
            out_target.append(WAIT_TOKEN)
        out_target.append(word)

    out_source = list(src)
    if len(out_target) > len(out_source):
        out_source.extend([FILLER_TOKEN] * (len(out_target) - len(out_source)))
    elif len(out_source) > len(out_target):
        out_target.extend([WAIT_TOKEN] * (len(out_source) - len(out_target)))

    return CausalPair(
        source_words=out_source,
        target_words=out_target,
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


def build_corpus(pairs, link_sets):
    """Causally align every (source, target) pair with its link set, in
    order; returns (pairs, stats)."""
    pairs = list(pairs)
    if len(link_sets) != len(pairs):
        raise InputMismatch(f"{len(link_sets)} link sets for {len(pairs)} pairs")
    out = [causal_align(src, tgt, links) for (src, tgt), links in zip(pairs, link_sets)]
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


_NOT_AN_OBJECT = "a record must be a JSON object"


def pair_from_record(record: dict, line_no: int = None, path=None) -> CausalPair:
    """The pair a record holds: source and target lists of words, links
    inside the unpadded sentences, and optional waits and fillers counts
    equal to the markers its words hold."""
    if not isinstance(record, dict):
        raise ParseError(_NOT_AN_OBJECT, line_no, path)
    try:
        source, target = record["source"], record["target"]
        links = {(i, j) for i, j in record["links"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad causal corpus record: {exc}", line_no, path) from exc
    if not _INT.issuperset(map(type, chain.from_iterable(links))):
        bad = next(link for link in record["links"] if not _INT.issuperset(map(type, link)))
        raise ParseError(f"malformed link {bad!r}", line_no, path)
    for key, words in (("source", source), ("target", target)):
        # a string would pass as a list of its characters
        if not (isinstance(words, list) and _STR.issuperset(map(type, words))):
            raise ParseError(f"{key} must be a list of words", line_no, path)
    waits = target.count(WAIT_TOKEN)
    fillers = source.count(FILLER_TOKEN)
    for key, count in (("waits", waits), ("fillers", fillers)):
        if key in record and not (type(record[key]) is int and record[key] == count):
            raise ParseError(f"{key} is {record[key]!r} but the words hold {count}",
                             line_no, path)
    try:
        origin = AlignmentLinkSet(
            links=links, source_len=len(source) - fillers, target_len=len(target) - waits
        )
    except BoundsError as exc:
        raise ParseError(str(exc), line_no, path) from exc
    return CausalPair(source_words=source, target_words=target, origin_links=origin)


def write_corpus(pairs, path) -> None:
    text = "".join(f"{_ENCODER.encode(pair_to_record(pair))}\n" for pair in pairs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_corpus(path) -> list:
    return [pair_from_record(record, n, path) for n, record in read_jsonl(path)]


def verify_pair(record) -> list:
    """Re-derive the causal invariants from the raw record fields.

    Returns a list of violation strings (empty = pass). Deliberately avoids
    CausalPair bookkeeping: everything is recomputed from source/target/links.
    """
    if not isinstance(record, dict):
        return [_NOT_AN_OBJECT]
    problems = []
    source = record.get("source")
    target = record.get("target")
    links = record.get("links")
    if not isinstance(source, list) or not isinstance(target, list) or not isinstance(links, list):
        return ["record missing source/target/links lists"]
    for key, words in (("source", source), ("target", target)):
        if not _STR.issuperset(map(type, words)):
            problems.append(f"{key} must be a list of words")

    if len(source) != len(target):
        problems.append(f"length mismatch {len(source)} != {len(target)}")

    n_fill = source.count(FILLER_TOKEN)
    for key, count in (("waits", target.count(WAIT_TOKEN)), ("fillers", n_fill)):
        if key in record and not (type(record[key]) is int and record[key] == count):
            problems.append(f"{key} is {record[key]!r} but the words hold {count}")
    if n_fill and source[-n_fill:] != [FILLER_TOKEN] * n_fill:
        problems.append("fillers are not a contiguous source suffix")
    if FILLER_TOKEN in source[: len(source) - n_fill]:
        problems.append("filler inside source body")

    # map original target index -> post-insertion index
    positions = [idx for idx, w in enumerate(target) if w != WAIT_TOKEN]
    stripped_src_len = len(source) - n_fill
    for pair_link in links:
        if not (type(pair_link) is list and len(pair_link) == 2
                and type(pair_link[0]) is int and type(pair_link[1]) is int):
            problems.append(f"malformed link {pair_link!r}")
            continue
        i, j = pair_link
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
    for record_no, (n, line) in enumerate(json_lines(path), start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            yield record_no, n, [f"invalid JSON: {exc}"]
            continue
        at = unpaired_surrogate(line) if "\\" in line else None
        if at is not None:
            yield record_no, n, [f"unpaired surrogate {line[at:at + 6]}"]
            continue
        yield record_no, n, verify_pair(record)
