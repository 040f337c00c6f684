import json

import pytest

from simtrans.aligner import AlignmentLinkSet
from simtrans.causal import (
    CausalPair,
    build_corpus,
    causal_align,
    pair_from_record,
    pair_to_record,
    read_corpus,
    verify_pair,
    write_corpus,
)
from simtrans.errors import InputMismatch, ParseError
from simtrans.units import FILLER_TOKEN, WAIT_TOKEN

from conftest import random_permutation_pair
from oracles import min_waits_brute_force, rescan_causality


def stripped(pair):
    """The pair's words without its markers."""
    return ([w for w in pair.source_words if w != FILLER_TOKEN],
            [w for w in pair.target_words if w != WAIT_TOKEN])


def links_of(pairs, ls, lt):
    return AlignmentLinkSet(links=set(pairs), source_len=ls, target_len=lt)


def test_monotone_identity_needs_nothing():
    out = causal_align(["a", "b"], ["x", "y"], links_of({(0, 0), (1, 1)}, 2, 2))
    assert out.target_words == ["x", "y"]
    assert out.source_words == ["a", "b"]
    assert out.wait_count == 0 and out.filler_count == 0


def test_inverted_pair():
    out = causal_align(["a", "b"], ["x", "y"], links_of({(1, 0), (0, 1)}, 2, 2))
    assert out.target_words == [WAIT_TOKEN, "x", "y"]
    assert out.source_words == ["a", "b", FILLER_TOKEN]
    assert out.wait_count == 1 and out.filler_count == 1


def test_single_late_link():
    out = causal_align(["s0", "s1", "s2", "s3"], ["t0"], links_of({(3, 0)}, 4, 1))
    assert out.target_words == [WAIT_TOKEN, WAIT_TOKEN, WAIT_TOKEN, "t0"]
    assert out.source_words == ["s0", "s1", "s2", "s3"]
    assert out.filler_count == 0


def test_source_longer_pads_target_with_waits():
    out = causal_align(["a", "b", "c"], ["x"], links_of({(0, 0)}, 3, 1))
    assert out.source_words == ["a", "b", "c"]
    assert out.target_words == ["x", WAIT_TOKEN, WAIT_TOKEN]
    assert len(out.source_words) == len(out.target_words)


def test_round_trip_strip():
    src, tgt = ["a", "b"], ["x", "y"]
    out = causal_align(src, tgt, links_of({(1, 0), (0, 1)}, 2, 2))
    assert stripped(out) == (src, tgt)


def test_causality_fuzz_with_independent_rescan(rng):
    for _ in range(300):
        src, tgt, links = random_permutation_pair(rng, max_len=12)
        link_set = links_of(links, len(src), len(tgt))
        out = causal_align(src, tgt, link_set)
        record = pair_to_record(out, link_set)
        assert rescan_causality(record), record
        assert stripped(out) == (src, tgt)
        assert len(out.source_words) == len(out.target_words)


def test_greedy_is_minimal_for_small_pairs(rng):
    # exhaustive search over wait placements confirms no smaller count works
    for _ in range(150):
        n = int(rng.integers(1, 7))
        src = [f"s{i}" for i in range(n)]
        m = int(rng.integers(1, 7))
        tgt = [f"t{j}" for j in range(m)]
        links = set()
        for j in range(m):
            if rng.random() < 0.7:
                links.add((int(rng.integers(0, n)), j))
        out = causal_align(src, tgt, links_of(links, n, m))
        constraints = {}
        for i, j in links:
            constraints[j] = max(constraints.get(j, 0), i)
        # padding waits trail the last real word; insertion waits precede one
        tw = out.target_words
        last_real = max(idx for idx, w in enumerate(tw) if w != WAIT_TOKEN)
        inserted = sum(1 for w in tw[:last_real] if w == WAIT_TOKEN)
        best = min_waits_brute_force(m, constraints, max_waits=n + 1)
        assert best is not None
        assert inserted == best, (src, tgt, sorted(links))


def test_build_corpus_stats():
    pairs = [(["a", "b"], ["x", "y"]), (["c", "d"], ["p", "q"])]

    identity_links = links_of({(0, 0), (1, 1)}, 2, 2)
    built, stats = build_corpus(pairs, [identity_links, identity_links])
    assert stats.pair_count == 2 and stats.wait_total == 0 and stats.filler_total == 0

    inverted_links = links_of({(1, 0), (0, 1)}, 2, 2)
    built, stats = build_corpus(pairs[:1], [inverted_links])
    assert stats.wait_total == 1 and stats.filler_total == 1


def test_build_corpus_empty():
    built, stats = build_corpus([], [])
    assert built == [] and stats.pair_count == 0


def test_build_corpus_needs_one_link_set_per_pair():
    pairs = [(["a", "b"], ["x", "y"]), (["c", "d"], ["p", "q"])]
    with pytest.raises(InputMismatch):
        build_corpus(pairs, [links_of({(0, 0)}, 2, 2)])


def test_corpus_file_round_trip(tmp_path, rng):
    pairs, link_sets = [], []
    for _ in range(20):
        src, tgt, links = random_permutation_pair(rng, max_len=8)
        link_sets.append(links_of(links, len(src), len(tgt)))
        pairs.append(causal_align(src, tgt, link_sets[-1]))
    path = tmp_path / "corpus.jsonl"
    write_corpus(pairs, link_sets, path)
    assert read_corpus(path) == pairs
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert [r["links"] for r in records] == [sorted(map(list, ls.links)) for ls in link_sets]


def test_write_corpus_needs_one_link_set_per_pair(tmp_path):
    pair = causal_align(["a"], ["x"], links_of({(0, 0)}, 1, 1))
    with pytest.raises(ValueError):
        write_corpus([pair, pair], [links_of({(0, 0)}, 1, 1)], tmp_path / "corpus.jsonl")


def test_verify_pair_catches_corruption():
    link_set = links_of({(1, 0), (0, 1)}, 2, 2)
    record = pair_to_record(causal_align(["a", "b"], ["x", "y"], link_set), link_set)
    assert verify_pair(record) == []
    corrupted = dict(record)
    corrupted["target"] = [w for w in record["target"] if w != WAIT_TOKEN]
    assert verify_pair(corrupted) != []


def test_pair_from_record_rejects_garbage():
    with pytest.raises(ParseError):
        pair_from_record({"source": ["a"]}, line_no=3)


@pytest.mark.parametrize("record, expected", [
    ({"source": ["a", "b"], "target": ["x", "y"], "links": [[5, 0]]}, "link (5,0) outside 2x2"),
    # the bounds are the sentences without their markers
    ({"source": ["a", FILLER_TOKEN], "target": ["x", "y"], "links": [[1, 0]]},
     "link (1,0) outside 1x2"),
    ({"source": "ab", "target": ["x", "y"], "links": [[1, 0]]}, "source must be a list of words"),
    ({"source": ["a"], "target": "x", "links": [[0, 0]]}, "target must be a list of words"),
    ({"source": [None], "target": ["x"], "links": []}, "source must be a list of words"),
])
def test_pair_from_record_names_file_and_line(record, expected):
    with pytest.raises(ParseError) as exc:
        pair_from_record(record, line_no=3, path="c.jsonl")
    assert str(exc.value) == f"c.jsonl: line 3: {expected}"


def test_counts_are_the_markers_of_the_words():
    out = causal_align(["a", "b"], ["x", "y", "z"], links_of({(1, 0)}, 2, 3))
    assert out.target_words == [WAIT_TOKEN, "x", "y", "z"]
    assert out.source_words == ["a", "b", FILLER_TOKEN, FILLER_TOKEN]
    assert (out.wait_count, out.filler_count) == (1, 2)
    out.target_words.insert(0, WAIT_TOKEN)
    assert out.wait_count == 2


@pytest.mark.parametrize("key, value", [
    ("waits", 2), ("waits", 0), ("waits", 1.5), ("waits", 1.0), ("waits", True),
    ("waits", "1"), ("fillers", 3), ("fillers", 2.0),
])
def test_pair_from_record_refuses_a_count_its_words_disagree_with(key, value):
    link_set = links_of({(1, 0)}, 2, 3)
    record = pair_to_record(causal_align(["a", "b"], ["x", "y", "z"], link_set), link_set)
    assert (record["waits"], record["fillers"]) == (1, 2) and record["links"] == [[1, 0]]
    assert pair_from_record(record) == CausalPair(record["source"], record["target"])
    record[key] = value
    with pytest.raises(ParseError, match=rf"^c\.jsonl: line 3: {key} is "):
        pair_from_record(record, line_no=3, path="c.jsonl")


def test_pair_from_record_counts_words_when_no_count_is_given():
    link_set = links_of({(0, 1)}, 1, 2)
    record = pair_to_record(causal_align(["a"], ["x", "y"], link_set), link_set)
    del record["waits"], record["fillers"]
    pair = pair_from_record(record)
    assert (pair.wait_count, pair.filler_count) == (0, 1)
