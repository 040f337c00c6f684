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

from .errors import InputMismatch, ParseError
from .inputs import json_lines, read_jsonl, unpaired_surrogate
from .links import AlignmentLinkSet
from .units import FILLER_TOKEN, WAIT_TOKEN

# what json.dumps(record, ensure_ascii=False) writes, without a new encoder per line
_ENCODER = json.JSONEncoder(ensure_ascii=False)
_STR = frozenset((str,))


@dataclass
class CausalPair:
    """Both sides with their markers, unchecked: causal_align and read_corpus
    make causal ones, and verify_pair checks a pair's record."""

    source_words: list[str]
    target_words: list[str]

    @property
    def wait_count(self) -> int:
        return self.target_words.count(WAIT_TOKEN)

    @property
    def filler_count(self) -> int:
        return self.source_words.count(FILLER_TOKEN)

    def aligned_length(self) -> int:
        return len(self.source_words)


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

    return CausalPair(source_words=out_source, target_words=out_target)


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
    order; returns (pairs, stats). write_corpus takes the same link sets."""
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


def pair_to_record(pair: CausalPair, links: AlignmentLinkSet) -> dict:
    """The corpus record of a pair and the links it was aligned from."""
    return {
        "source": pair.source_words,
        "target": pair.target_words,
        "waits": pair.wait_count,
        "fillers": pair.filler_count,
        "links": [[i, j] for i, j in sorted(links.links)],
    }


def pair_from_record(record: dict, line_no: int = None, path=None) -> CausalPair:
    """The pair a record holds, once verify_pair finds nothing wrong with it;
    otherwise a ParseError with verify_pair's first violation."""
    problems = verify_pair(record)
    if problems:
        raise ParseError(problems[0], line_no, path)
    return CausalPair(source_words=record["source"], target_words=record["target"])


def write_corpus(pairs, link_sets, path) -> None:
    """One record per pair, with the link set it was aligned from."""
    text = "".join(f"{_ENCODER.encode(pair_to_record(pair, links))}\n"
                   for pair, links in zip(pairs, link_sets, strict=True))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_corpus(path) -> list:
    """The pairs of a causal corpus file, in order; the first record
    verify_pair reports is a ParseError naming its line."""
    return [pair_from_record(record, n, path) for n, record in read_jsonl(path)]


def verify_pair(record) -> list:
    """Re-derive the causal invariants from the raw record fields.

    Returns a list of violation strings (empty = pass); build-dataset refuses
    a record with the first. Deliberately avoids CausalPair bookkeeping:
    everything is recomputed from source/target/links.
    """
    if not isinstance(record, dict):
        return ["a record must be a JSON object"]
    source, target, links = record.get("source"), record.get("target"), record.get("links")
    if not (isinstance(source, list) and isinstance(target, list) and isinstance(links, list)):
        # a string would pass as a list of its characters
        fields = (("source", source, "words"), ("target", target, "words"),
                  ("links", links, "index pairs"))
        return [f"{key} must be a list of {kind}" for key, value, kind in fields
                if not isinstance(value, list)]
    problems = []
    for key, words in (("source", source), ("target", target)):
        if not _STR.issuperset(map(type, words)):
            problems.append(f"{key} must be a list of words")

    n_fill = source.count(FILLER_TOKEN)
    n_wait = target.count(WAIT_TOKEN)
    # each marker kind belongs to one side, and each side needs a word
    stray_waits, stray_fillers = source.count(WAIT_TOKEN), target.count(FILLER_TOKEN)
    if len(source) == n_fill + stray_waits:
        problems.append("source holds no word")
    if len(target) == n_wait + stray_fillers:
        problems.append("target holds no word")
    if stray_waits:
        problems.append(f"{WAIT_TOKEN} in source")
    if stray_fillers:
        problems.append(f"{FILLER_TOKEN} in target")

    if len(source) != len(target):
        problems.append(f"length mismatch {len(source)} != {len(target)}")
    for key, count in (("waits", n_wait), ("fillers", n_fill)):
        if key in record and not (type(record[key]) is int and record[key] == count):
            problems.append(f"{key} is {record[key]!r} but the words hold {count}")
    # fillers pad the source tail only: the first one starts the padding
    if n_fill and source.index(FILLER_TOKEN) < len(source) - n_fill:
        problems.append("filler inside source body")

    # map original target index -> post-insertion index
    positions = [idx for idx, w in enumerate(target) if w != WAIT_TOKEN]
    src_len, tgt_len = len(source) - n_fill, len(positions)
    for link in links:
        if type(link) is not list or len(link) != 2:
            problems.append(f"malformed link {link!r}")
            continue
        i, j = link
        if type(i) is not int or type(j) is not int:
            problems.append(f"malformed link {link!r}")
        elif not (0 <= i < src_len and 0 <= j < tgt_len):
            problems.append(f"link ({i},{j}) outside {src_len}x{tgt_len}")
        elif positions[j] < i:
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
