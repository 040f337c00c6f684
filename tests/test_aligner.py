import copy
import dataclasses

import numpy as np
import pytest

from simtrans import _kernels
from simtrans.aligner import (
    TranslationTable,
    align_corpus,
    import_alignments,
    parse_pharaoh_line,
    train_table,
)
from simtrans.errors import BoundsError, EmptyCorpus, InputMismatch, ParseError
from simtrans.rng import make_rng

from oracles import cell_links, naive_em, sweep_per_call_em

TWO_PAIR = [(["the", "dog"], ["le", "chien"]), (["the", "cat"], ["le", "chat"])]


def test_matches_naive_em_oracle():
    table = train_table(TWO_PAIR, iterations=10)
    ref_prob, ref_hist = naive_em(TWO_PAIR, 10)
    for (e, f), p in ref_prob.items():
        assert table.prob(e, f) == pytest.approx(p, abs=1e-12), (e, f)
    assert table.log_likelihood_history == pytest.approx(ref_hist, abs=1e-9)


def test_the_aligns_to_le():
    table = train_table(TWO_PAIR, iterations=10)
    row = table.row("the")
    assert max(row, key=row.get) == "le"


def test_single_pair_single_candidate():
    table = train_table([(["a"], ["b"])], iterations=1)
    row = table.row("a")
    assert max(row, key=row.get) == "b"
    assert table.prob("a", "b") == pytest.approx(1.0)


def test_table_rebuilt_from_its_public_fields_reads_the_same():
    table = train_table(TWO_PAIR, iterations=4)
    assert table.iterations_run == len(table.log_likelihood_history) == 4
    public = {f.name: getattr(table, f.name) for f in dataclasses.fields(table)
              if f.init and not f.name.startswith("_")}
    for rebuilt in (TranslationTable(**public), dataclasses.replace(table)):
        assert rebuilt.iterations_run == 4
        for e in [None, *table.source_vocab, "unseen"]:
            assert rebuilt.row(e) == table.row(e)
            for f in [*table.target_vocab, "unseen"]:
                assert rebuilt.prob(e, f) == table.prob(e, f)
    assert TranslationTable(**public).prob("the", "le") > 0.5
    with pytest.raises(TypeError):
        TranslationTable(**public, iterations_run=4)


def test_log_likelihood_non_decreasing():
    t1 = train_table(TWO_PAIR, iterations=1)
    t2 = train_table(TWO_PAIR, iterations=2)
    assert t2.log_likelihood_history[1] >= t2.log_likelihood_history[0]
    assert t2.log_likelihood_history[0] == pytest.approx(t1.log_likelihood_history[0])


def test_rows_stochastic_every_iteration():
    for iters in (1, 3, 7):
        table = train_table(TWO_PAIR, iterations=iters)
        assert np.abs(table.row_sums() - 1.0).max() < 1e-9


def test_empty_corpus():
    with pytest.raises(EmptyCorpus):
        train_table([], iterations=3)


def test_empty_sides_match_naive_em_oracle():
    # t4 and t3 occur only opposite empty sources: in reverse training their
    # table rows have no entries
    corpus = [([], ["t4", "t1"]), (["s2"], ["t1"]), ([], ["t4", "t3"])]
    swapped = [(t, s) for s, t in corpus]
    for direction, pairs in (("forward", corpus), ("reverse", swapped)):
        table = train_table(corpus, iterations=5, direction=direction)
        ref_prob, ref_hist = naive_em(pairs, 5)
        for (e, f), p in ref_prob.items():
            assert table.prob(e, f) == pytest.approx(p, abs=1e-12), (direction, e, f)
        assert table.log_likelihood_history == pytest.approx(ref_hist, abs=1e-9)
    rev = train_table(corpus, iterations=5, direction="reverse")
    assert rev.row("t4") == {} and rev.row("t3") == {}
    assert rev.row_sums().tolist() == [1.0, 0.0, 1.0, 0.0]
    fwd = train_table(corpus, iterations=5)
    for (src, tgt), got in zip(corpus, align_corpus(corpus, fwd, rev)):
        assert got.links == cell_links(src, tgt, fwd, rev)


def test_no_column_words_is_empty_corpus():
    with pytest.raises(EmptyCorpus, match="target word"):
        train_table([(["a"], [])], iterations=1)
    with pytest.raises(EmptyCorpus, match="source word"):
        train_table([([], ["b"])], iterations=1, direction="reverse")


def test_align_two_pair_corpus():
    fwd = train_table(TWO_PAIR, iterations=10)
    rev = train_table(TWO_PAIR, iterations=10, direction="reverse")
    links = align_corpus([(["the", "dog"], ["le", "chien"])], fwd, rev)[0]
    assert links.links == {(0, 0), (1, 1)}


def test_align_all_oov_yields_no_links():
    fwd = train_table(TWO_PAIR, iterations=5)
    rev = train_table(TWO_PAIR, iterations=5, direction="reverse")
    links = align_corpus([(["x", "y"], ["p", "q"])], fwd, rev)[0]
    assert links.links == set()


def test_align_one_by_one():
    corpus = [(["x"], ["y"])]
    fwd = train_table(corpus, iterations=5)
    rev = train_table(corpus, iterations=5, direction="reverse")
    assert align_corpus([(["x"], ["y"])], fwd, rev)[0].links == {(0, 0)}


def test_intersection_is_target_functional(rng):
    # each target index appears at most once after symmetrization
    corpus = []
    for _ in range(60):
        n = int(rng.integers(1, 9))
        words = [f"w{int(rng.integers(0, 20))}" for _ in range(n)]
        corpus.append((words, [w.upper() for w in words]))
    fwd = train_table(corpus, iterations=8)
    rev = train_table(corpus, iterations=8, direction="reverse")
    for src, tgt in corpus[:20]:
        links = align_corpus([(src, tgt)], fwd, rev)[0]
        targets = [j for _, j in links.links]
        assert len(targets) == len(set(targets))


def test_segment_argmax_rules():
    groups = [
        [0.1, 0.4, 0.4, 0.2],  # position tie: lowest position wins
        [0.5, 0.5, 0.2],       # NULL ties the best position: link kept
        [0.6, 0.5],            # NULL strictly higher: no link
        [0.0, 0.0, 0.0],       # all zero: no link
        [0.9],                 # NULL only: no link
        [0.1, 0.2, 0.7, 0.7],  # best is not the first position
        [0.0, float("nan"), 0.3],  # a NaN position never wins
        [float("nan"), 0.3],   # a NaN NULL blocks the link
    ]
    weights = np.array([w for g in groups for w in g])
    group_ptr = np.cumsum([0] + [len(g) for g in groups])
    best = _kernels.segment_argmax(weights, group_ptr)
    assert best.tolist() == [0, 0, -1, -1, -1, 1, 1, -1]


def test_segment_argmax_no_groups():
    assert _kernels.segment_argmax(np.zeros(0), np.zeros(1, dtype=np.int64)).size == 0


def test_align_corpus_matches_cell_oracle():
    rng = make_rng(7)
    for n in range(240):
        vocab = int(rng.integers(2, 21))
        iterations = int(rng.choice([1, 2, 5, 15]))

        def sentence(prefix, size=vocab):
            return [f"{prefix}{int(rng.integers(0, size))}"
                    for _ in range(int(rng.integers(1, 8)))]

        corpus = [(sentence("s"), sentence("t")) for _ in range(int(rng.integers(1, 9)))]
        fwd = train_table(corpus, iterations=iterations)
        rev = train_table(corpus, iterations=iterations, direction="reverse")
        # the training corpus itself reads EM's own argmax; one extra pair
        # drawn from a wider vocabulary brings unseen words to the slot search
        extended = corpus + [(sentence("s", vocab + 3), sentence("t", vocab + 3))]
        for pairs in (corpus, extended):
            for (src, tgt), got in zip(pairs, align_corpus(pairs, fwd, rev)):
                assert got.links == cell_links(src, tgt, fwd, rev), (n, src, tgt)
                assert (got.source_len, got.target_len) == (len(src), len(tgt))


def _noisy_corpus(seed, n_pairs):
    """Pairs whose targets translate most source words, reordered a little,
    with some words dropped and some inserted."""
    rng = make_rng(seed)
    corpus = []
    for _ in range(n_pairs):
        src = [f"s{int(rng.integers(0, 120))}" for _ in range(int(rng.integers(0, 14)))]
        tgt = [f"t{w[1:]}" for w in src if rng.random() > 0.1]
        for _ in range(int(rng.integers(0, 3))):
            tgt.insert(int(rng.integers(0, len(tgt) + 1)), f"x{int(rng.integers(0, 8))}")
        if len(tgt) > 1 and rng.random() < 0.5:
            a = int(rng.integers(0, len(tgt) - 1))
            tgt[a], tgt[a + 1] = tgt[a + 1], tgt[a]
        corpus.append((src, tgt))
    return corpus


@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_em_is_bit_identical_to_one_sweep_per_call(direction):
    noisy = _noisy_corpus(34, 300)
    assert any(not s for s, _ in noisy) and any(not t for _, t in noisy)
    # in reverse, t4 and t3 are table rows with no entries
    empty_rows = [([], ["t4", "t1"]), (["s2"], ["t1"]), ([], ["t4", "t3"])]
    for corpus in (noisy, empty_rows):
        pairs = corpus if direction == "forward" else [(t, s) for s, t in corpus]
        for iterations in (1, 15):
            table = train_table(corpus, iterations=iterations, direction=direction)
            ref_probs, ref_history = sweep_per_call_em(pairs, iterations)
            assert np.array_equal(table.probs, ref_probs)
            assert table.log_likelihood_history == ref_history


def _links(link_sets):
    return [(ls.links, ls.source_len, ls.target_len) for ls in link_sets]


def test_training_corpus_links_equal_the_slot_search(monkeypatch):
    corpus = _noisy_corpus(31, 300)
    fwd = train_table(corpus, iterations=8)
    rev = train_table(corpus, iterations=8, direction="reverse")
    # one pair at a time is never the training pairs, so each is searched
    searched = _links(align_corpus([(src, tgt)], fwd, rev)[0] for src, tgt in corpus)
    assert sum(len(links) for links, _, _ in searched) > 1000

    def no_search(self, layout):
        raise AssertionError("the training corpus searched table slots")

    monkeypatch.setattr(TranslationTable, "_weights", no_search)
    assert _links(align_corpus(corpus, fwd, rev)) == searched


def test_a_copy_of_the_training_corpus_reads_the_em_argmax(monkeypatch):
    corpus = _noisy_corpus(33, 60)
    fwd = train_table(corpus, iterations=5)
    rev = train_table(corpus, iterations=5, direction="reverse")

    def no_search(self, layout):
        raise AssertionError("a copy of the training corpus searched table slots")

    monkeypatch.setattr(TranslationTable, "_weights", no_search)
    copied = copy.deepcopy(corpus)
    for (src, tgt), ls in zip(copied, align_corpus(copied, fwd, rev)):
        assert ls.links == cell_links(src, tgt, fwd, rev), (src, tgt)


def test_training_corpus_argmax_is_not_reused_out_of_its_place():
    # every pair has equal sides, so only the words and the direction tell
    # the training pairs from the other pairs linked here
    corpus = [(src, [f"t{w[1:]}" for w in src]) for src, _ in _noisy_corpus(32, 40)]
    fwd = train_table(corpus, iterations=5)
    rev = train_table(corpus, iterations=5, direction="reverse")

    def assert_cell_links(pairs, forward, reverse):
        for (src, tgt), ls in zip(pairs, align_corpus(pairs, forward, reverse)):
            assert ls.links == cell_links(src, tgt, forward, reverse), (src, tgt)

    # other words at the same lengths, and the tables passed the wrong way round
    assert_cell_links([(tgt, src) for src, tgt in corpus], fwd, rev)
    assert_cell_links(corpus, rev, fwd)
    # a pair that changed length on either side since training is linked
    # afresh: an unseen first word moves every link of its side by one
    for side in (0, 1):
        pair = next(p for p in corpus if len(p[side]) > 2 and p[side][0] != "new")
        pair[side].insert(0, "new")
        assert_cell_links(corpus, fwd, rev)
    # so is a pair whose words were replaced in place at the same lengths
    small = [("a b c".split(), "x y z".split()), ("a d".split(), "x w".split()),
             ("b c".split(), "y z".split())]
    fwd = train_table(small, iterations=5)
    rev = train_table(small, iterations=5, direction="reverse")
    small[0][0][0], small[0][1][0] = "unseen", "never"
    assert_cell_links(small, fwd, rev)
    assert align_corpus(small, fwd, rev)[0].links == {(1, 1)}
    # over pairs with the same words on both sides, tables passed the wrong
    # way round still see the pairs they were trained on, and EM's argmax is
    # exact for them
    mirrored = [(src, list(src)) for src, _ in corpus]
    fwd = train_table(mirrored, iterations=5)
    rev = train_table(mirrored, iterations=5, direction="reverse")
    assert_cell_links(mirrored, rev, fwd)


def test_pharaoh_parse():
    assert parse_pharaoh_line("0-0 1-1") == {(0, 0), (1, 1)}
    assert parse_pharaoh_line("") == set()
    with pytest.raises(ParseError):
        parse_pharaoh_line("0-0 nope", line_no=4)


def test_import_alignments(tmp_path):
    path = tmp_path / "aln.txt"
    path.write_text("0-0 1-1\n\n")
    corpus = [(["a", "b"], ["x", "y"]), (["c"], ["z"])]
    sets = import_alignments(path, corpus)
    assert sets[0].links == {(0, 0), (1, 1)}
    assert sets[1].links == set()


def test_import_bounds_error(tmp_path):
    path = tmp_path / "aln.txt"
    path.write_text("3-0\n")
    with pytest.raises(BoundsError):
        import_alignments(path, [(["a", "b"], ["x"])])


def test_import_line_count_mismatch(tmp_path):
    path = tmp_path / "aln.txt"
    path.write_text("0-0\n0-0\n")
    with pytest.raises(InputMismatch):
        import_alignments(path, [(["a"], ["x"])])


def test_import_pharaoh_links(tmp_path):
    path = tmp_path / "aln.txt"
    path.write_text("0-1 1-0\n")
    links = import_alignments(path, [(["a", "b"], ["x", "y"])])
    assert links[0].links == {(1, 0), (0, 1)}
    assert (links[0].source_len, links[0].target_len) == (2, 2)
