import json

import pytest

import oracles
from simtrans.backends import ScriptedBackend
from simtrans.bleu import corpus_bleu, tokenize_13a
from simtrans.engine import read_trace, run_session
from simtrans.errors import DegenerateInput, InputMismatch, ParseError
from simtrans.metrics import (
    DelaySequence,
    LatencyReport,
    aggregate_report,
    average_proportion,
    bootstrap_reports,
    real_time_factor,
    score_sessions,
    tradeoff_curve,
    wait_histogram,
)
from simtrans.rng import make_rng
from simtrans.units import Signal

from conftest import lag_row, lag_rows, score_delays


def seq(g, src, ref=None):
    return DelaySequence(g=g, source_len=src, ref_len=ref)


def scores_of(seqs, hyps, refs):
    """score_sessions over strings, with one reference per session."""
    return score_sessions(seqs, [tokenize_13a(h) for h in hyps],
                          [tokenize_13a(r) for r in refs], range(len(refs)))


def test_average_proportion_values():
    assert average_proportion(seq([1, 2, 3], 3)) == pytest.approx(2 / 3, abs=1e-9)
    assert average_proportion(seq([3, 3, 3], 3)) == pytest.approx(1.0, abs=1e-9)
    assert average_proportion(seq([1], 1)) == pytest.approx(1.0, abs=1e-9)


# AL and DAL do not read the reference length: where a case gives none,
# its row is scored with ref = |y|

def test_average_lagging_values():
    assert lag_row(seq([1, 2, 3], 3, ref=3)).al == pytest.approx(1.0, abs=1e-9)
    assert lag_row(seq([2, 3, 3], 3, ref=3)).al == pytest.approx(2.0, abs=1e-9)
    assert lag_row(seq([3, 3, 3], 3, ref=3)).al == pytest.approx(3.0, abs=1e-9)


def test_laal_values():
    # same lengths: LAAL coincides with AL
    assert lag_row(seq([1, 2, 3], 3, ref=3)).laal == pytest.approx(
        lag_row(seq([1, 2, 3], 3, ref=3)).al, abs=1e-12
    )
    assert lag_row(seq([1, 2, 3], 3, ref=6)).laal == pytest.approx(1.5, abs=1e-9)


def test_dal_values():
    assert lag_row(seq([1, 2, 3], 3, ref=3)).dal == pytest.approx(1.0, abs=1e-9)
    assert lag_row(seq([3, 3, 3], 3, ref=3)).dal == pytest.approx(3.0, abs=1e-9)
    assert lag_row(seq([1], 1, ref=1)).dal == pytest.approx(1.0, abs=1e-9)


def test_ideal_wait_k_closed_form():
    cases = [(k, n) for k in range(1, 6) for n in range(k, 21)]
    rows = lag_rows([seq([min(t - 1 + k, n) for t in range(1, n + 1)], n, ref=n)
                     for k, n in cases])
    for (k, n), row in zip(cases, rows):
        assert row.al == pytest.approx(k, abs=1e-9), (k, n)


def _random_monotone_seq(rng):
    n = int(rng.integers(1, 15))
    src = int(rng.integers(n, n + 10))
    g = []
    cur = int(rng.integers(1, src + 1))
    for _ in range(n):
        g.append(cur)
        cur = min(src, cur + int(rng.integers(0, 4)))
    return seq(g, src, ref=int(rng.integers(1, n + 6)))


def test_dal_dominates_al_fuzz(rng):
    for row in lag_rows([_random_monotone_seq(rng) for _ in range(2000)]):
        assert row.dal >= row.al - 1e-9


def test_laal_dominates_al_fuzz(rng):
    for row in lag_rows([_random_monotone_seq(rng) for _ in range(2000)]):
        assert row.laal >= row.al - 1e-9


def test_ap_bounds_fuzz(rng):
    for _ in range(500):
        d = _random_monotone_seq(rng)
        ap = average_proportion(d)
        assert 0.0 < ap <= 1.0
        if all(g == d.source_len for g in d.g):
            assert ap == pytest.approx(1.0)


def test_unit_rescaling_equivalence(rng):
    # ms-mode metrics equal word-mode metrics under a uniform word duration
    scale = 250.0
    for _ in range(200):
        d = _random_monotone_seq(rng)
        ms = DelaySequence(
            g=[v * scale for v in d.g],
            source_len=d.source_len * scale,
            ref_len=d.ref_len,
        )
        assert average_proportion(ms) == pytest.approx(average_proportion(d), rel=1e-12)
        ms_row, row = lag_row(ms), lag_row(d)
        assert ms_row.al == pytest.approx(row.al * scale, rel=1e-9)
        assert ms_row.laal == pytest.approx(row.laal * scale, rel=1e-9)
        assert ms_row.dal == pytest.approx(row.dal * scale, rel=1e-9)


def test_truncated_session_uses_hyp_len():
    row = lag_row(seq([1, 2, 2], 5, ref=3))
    assert row.truncated
    # tau falls back to |y| = 3
    assert row.al == pytest.approx((1 + (2 - 1 / 0.6) + (2 - 2 / 0.6)) / 3)


def test_degenerate_inputs():
    # an empty hypothesis has no lag: its row is not scored, and a report
    # with no scored row is refused
    scores = score_delays([seq([], 3, ref=3)])
    assert not scores.scored[0] and not scores.truncated[0]
    with pytest.raises(DegenerateInput):
        aggregate_report(scores)
    with pytest.raises(DegenerateInput):
        average_proportion(DelaySequence(g=[], source_len=0))
    with pytest.raises(DegenerateInput):
        real_time_factor(100, 0)
    with pytest.raises(DegenerateInput, match="reference length required"):
        score_sessions([seq([1], 1)], [["a"]], [["a"]], [0])


def test_rtf_values():
    assert real_time_factor(15000, 10000) == pytest.approx(1.5)
    assert real_time_factor(800, 800) == pytest.approx(1.0)
    assert real_time_factor(700, 1000) == pytest.approx(0.7)


def test_delay_sequence_validation():
    with pytest.raises(ValueError):
        DelaySequence(g=[2, 1], source_len=3)
    with pytest.raises(ValueError):
        DelaySequence(g=[4], source_len=3)
    with pytest.raises(ValueError, match="negative"):
        DelaySequence(g=[-2], source_len=3)
    for source_len in (0, -1):
        with pytest.raises(ValueError, match="source length must be positive"):
            DelaySequence(g=[0], source_len=source_len)
    # NaN compares false with everything, so no order or bound test sees it
    nan, inf = float("nan"), float("inf")
    for g in ([1, nan, 3], [nan], [1, 2, nan], [1, inf], [-inf, 1]):
        with pytest.raises(ValueError, match="delays must be finite"):
            DelaySequence(g=g, source_len=3)
    for source_len in (nan, inf, -inf):
        with pytest.raises(ValueError, match="source length must be finite"):
            DelaySequence(g=[1], source_len=source_len)
    # no delay, no source: nothing to refuse, and nothing to score
    with pytest.raises(DegenerateInput, match="empty hypothesis"):
        average_proportion(DelaySequence(g=[], source_len=0))


def test_hyp_len_is_the_delay_count():
    assert seq([1, 2, 2], 5).hyp_len == 3
    assert seq([], 5).hyp_len == 0
    with pytest.raises(TypeError):
        DelaySequence(g=[1, 2], source_len=3, hyp_len=3)


def _reading(trace):
    """read_trace of trace as simulate's file of it reads back."""
    return read_trace(dict(json.loads(trace.to_json()), id="0000"))


def test_wait_histogram_counts():
    script = [Signal.WAIT, "x", Signal.WAIT, "y", Signal.EOS]
    trace = run_session(["the", "cat", "of", "mine"], ScriptedBackend(script), k=1)
    # wait 1 follows the read of "the"; the write of "x" reads "of", so
    # wait 2 follows "of"
    hist = wait_histogram([_reading(trace)], ["the", "of"])
    assert hist.counts == {"the": 1, "of": 1}
    assert hist.function_count == 2 and hist.content_count == 0
    assert hist.function_share == pytest.approx(1.0)


def test_wait_histogram_empty():
    trace = run_session(["a"], ScriptedBackend(["x", Signal.EOS]), k=1)
    hist = wait_histogram([_reading(trace)], ["a"])
    assert hist.counts == {} and hist.total == 0


def test_wait_histogram_fuzz_recount(rng):
    traces = []
    for _ in range(30):
        n = int(rng.integers(2, 8))
        source = [f"w{int(rng.integers(0, 5))}" for _ in range(n)]
        units = []
        for i in range(n):
            if rng.random() < 0.4:
                units.append(Signal.WAIT)
            units.append(f"h{i}")
        units.append(Signal.EOS)
        traces.append(run_session(source, ScriptedBackend(units), k=1))
    function_words = {"w0", "w1"}
    hist = wait_histogram([_reading(t) for t in traces], function_words)
    expected_fn = 0
    expected_total = 0
    for trace in traces:
        last = None
        for e in trace.events:
            if e["kind"] == "read":
                last = e["word"]
            elif e["kind"] == "wait" and last is not None:
                expected_total += 1
                expected_fn += int(last in function_words)
    assert hist.total == expected_total
    assert hist.function_count == expected_fn


def _report(al=1.0):
    return LatencyReport(bleu=50.0, al=al, laal=al, ap=0.8, dal=al + 0.5)


def test_tradeoff_curve_sorted_and_stable():
    rows = tradeoff_curve([(5, _report(5)), (1, _report(1)), (3, _report(3))])
    lines = rows.strip().split("\n")
    assert lines[0].startswith("k,")
    ks = [line.split(",")[0] for line in lines[1:]]
    assert ks == ["1", "3", "5"]

    dup = tradeoff_curve([(2, _report(7)), (2, _report(9))])
    values = [line.split(",")[2] for line in dup.strip().split("\n")[1:]]
    assert values == ["7.0000", "9.0000"]


def test_tradeoff_curve_needs_two_runs():
    with pytest.raises(InputMismatch):
        tradeoff_curve([(1, _report())])


def test_aggregate_report_and_bootstrap():
    seqs = [seq([1, 2, 3], 3, ref=3), seq([2, 3, 3], 3, ref=3)]
    hyps = ["a b c d e", "d e f g h"]
    refs = ["a b c d e", "d e f g h"]
    report = aggregate_report(scores_of(seqs, hyps, refs))
    assert report.bleu == pytest.approx(100.0, abs=1e-9)
    assert report.al == pytest.approx(1.5, abs=1e-9)
    assert report.session_count == 2

    boot = bootstrap_reports(scores_of(seqs, hyps, refs), 10, make_rng(3))
    assert boot["resamples"] == 10
    assert boot["al"]["mean"] == pytest.approx(1.5, abs=0.6)
    assert boot["bleu"]["std"] == pytest.approx(0.0, abs=1e-9)


def test_aggregate_order_independent(rng):
    seqs = [_random_monotone_seq(rng) for _ in range(12)]
    hyps = [f"word{i} extra{i} more{i} tail{i} end{i}" for i in range(12)]
    refs = [f"word{i} extra{i} more{i} tail{i} fin{i}" for i in range(12)]
    base = aggregate_report(scores_of(seqs, hyps, refs)).to_record()
    order = list(rng.permutation(12))
    shuffled = aggregate_report(scores_of(
        [seqs[i] for i in order], [hyps[i] for i in order], [refs[i] for i in order]
    )).to_record()
    for key in ("bleu", "al", "laal", "ap", "dal"):
        assert shuffled[key] == pytest.approx(base[key], rel=1e-12)


def test_aggregate_skips_empty_hypotheses():
    seqs = [seq([1, 2], 2, ref=2), DelaySequence(g=[], source_len=2, ref_len=2)]
    report = aggregate_report(scores_of(seqs, ["a b", ""], ["a b", "c d"]))
    assert report.skipped_sessions == 1
    assert report.session_count == 2


def _fuzz_session(rng, vocab, ref):
    """A delay sequence and hypothesis for ref: empty, truncated or complete."""
    roll = rng.random()
    if roll < 0.15:
        words = []
    elif roll < 0.6:
        # an edited copy of the reference, often cut short
        words = [w if rng.random() < 0.8 else str(rng.choice(vocab)) for w in ref.split()]
        words = words[: int(rng.integers(1, len(words) + 1))]
    else:
        words = [str(w) for w in rng.choice(vocab, size=int(rng.integers(1, 10)))]
    scale = float(rng.choice([1.0, 137.5, 0.3]))
    src = int(rng.integers(max(1, len(words)), len(words) + 6))
    g, cur = [], int(rng.integers(1, src + 1))
    for _ in words:
        g.append(cur * scale)
        cur = min(src, cur + int(rng.integers(0, 3)))
    if words and rng.random() < 0.2:  # truncated: |x| is never reached
        src += 2
    d = DelaySequence(g=g, source_len=src * scale, ref_len=len(ref.split()))
    return d, " ".join(words)


def _outcome(fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
    except DegenerateInput:
        return "DegenerateInput"
    return result.to_record() if isinstance(result, LatencyReport) else result


def test_scores_match_string_oracles_fuzz():
    # exact equality: integer statistics sum exactly and the latency means
    # add the same floats in the same order as the string-loop oracles
    for case in range(300):
        rng = make_rng(case)
        vocab = [f"w{i}" for i in range(int(rng.integers(2, 9)))] + [",", ".", "3.5", "x-y"]
        pool = [" ".join(str(w) for w in rng.choice(vocab, size=int(rng.integers(1, 12))))
                for _ in range(int(rng.integers(1, 8)))]
        refs = [str(rng.choice(pool)) for _ in range(int(rng.integers(1, 11)))]
        # one chunk memo and one token list per distinct reference for the run
        memo = {}
        ref_tokens = [tokenize_13a(r, memo) for r in pool]
        ref_index = [pool.index(r) for r in refs]
        unit, rtf = ("ms", float(rng.random())) if case % 2 else ("words", None)
        n_resamples = (1, 2, 17)[case % 3]
        # two k groups over the same references share one token cache
        for _group in range(2):
            seqs, hyps = zip(*(_fuzz_session(rng, vocab, r) for r in refs))
            hyp_tokens = [tokenize_13a(h, memo) for h in hyps]
            scores = score_sessions(seqs, hyp_tokens, ref_tokens, ref_index)
            assert _outcome(aggregate_report, scores, unit=unit, rtf=rtf) == _outcome(
                oracles.list_aggregate_report, seqs, hyps, refs, unit=unit, rtf=rtf
            ), case
            seed = int(rng.integers(0, 2**31))
            got = _outcome(bootstrap_reports, scores, n_resamples, make_rng(seed),
                           unit=unit, rtf=rtf)
            want = _outcome(oracles.resample_bootstrap, seqs, hyps, refs, n_resamples,
                            make_rng(seed), unit=unit, rtf=rtf)
            assert got == want, case
            assert corpus_bleu(hyps, refs) == oracles.string_corpus_bleu(hyps, refs), case


def test_score_sessions_rejects_mismatched_counts():
    seqs = [seq([1, 2], 2, ref=2)]
    with pytest.raises(InputMismatch):
        score_sessions(seqs, [["a", "b"], ["c"]], [["a", "b"]], [0, 0])
    with pytest.raises(InputMismatch):
        score_sessions(seqs, [["a", "b"]], [], [0])
    with pytest.raises(InputMismatch):
        score_sessions(seqs, [["a", "b"]], [["a", "b"]], [])


def _walk_fuzz_seq(rng):
    """Delays for the walk: ties at |x|, truncated, one word, or at ms scale."""
    n = 1 if rng.random() < 0.2 else int(rng.integers(1, 30))
    src = int(rng.integers(1, 40))
    g = sorted(int(v) for v in rng.integers(0, src + 1, size=n))
    roll = rng.random()
    if roll < 0.3:  # several words committed once the whole source is in
        ties = int(rng.integers(1, n + 1))
        g = g[:n - ties] + [src] * ties
    elif roll < 0.5:  # |x| never reached
        g = [min(v, src - 1) for v in g] if src > 1 else g
        src += int(rng.integers(1, 4))
    scale = float(rng.choice([1.0, 200.0, 33.3, 0.1]))
    ref_len = None if rng.random() < 0.2 else int(rng.integers(1, 2 * n + 2))
    return DelaySequence(g=[v * scale for v in g], source_len=src * scale, ref_len=ref_len)


def test_one_walk_equals_the_formulas_fuzz(rng):
    # exact equality: the walk adds the same floats in the same order as the
    # per-metric formulas
    truncated = tied = 0
    for _ in range(3000):
        d = _walk_fuzz_seq(rng)
        if d.ref_len is None:
            # LAAL needs |y_ref|: the row is refused as the formula is
            assert _outcome(lag_row, d) == _outcome(oracles.length_adaptive_al, d)
            d.ref_len = len(d.g)
        assert lag_row(d) == (
            oracles.average_lagging(d), oracles.length_adaptive_al(d),
            oracles.average_proportion(d), oracles.differentiable_al(d),
            oracles.is_truncated(d)), d
        truncated += oracles.is_truncated(d)
        tied += d.g.count(d.source_len) > 1
    assert truncated > 300 and tied > 300


def test_score_sessions_rows_equal_the_formulas(rng):
    seqs = [_walk_fuzz_seq(rng) for _ in range(200)]
    for d in seqs:
        if d.ref_len is None:
            d.ref_len = 1
    seqs.append(DelaySequence(g=[], source_len=2, ref_len=2))
    tokens = [["a"]] * len(seqs)
    scores = score_sessions(seqs, tokens, [["a"]], [0] * len(seqs))
    for i, d in enumerate(seqs):
        assert bool(scores.scored[i]) == bool(d.g)
        if d.g:
            assert (scores.al[i], scores.laal[i], scores.ap[i], scores.dal[i]) == (
                oracles.average_lagging(d), oracles.length_adaptive_al(d),
                oracles.average_proportion(d), oracles.differentiable_al(d))
            assert bool(scores.truncated[i]) == oracles.is_truncated(d)
    # a range of rows reports as the sessions it holds scored alone
    part = score_sessions(seqs[50:120], tokens[50:120], [["a"]], [0] * 70)
    assert aggregate_report(scores[50:120]) == aggregate_report(part)


# a trace file's record, events apart
_RECORD = {"id": "0000", "k": 1, "mode": "text", "source": ["a"], "hypothesis": ["x"],
           "delays_words": [1], "source_total": 1, "finished": True, "error": None}


@pytest.mark.parametrize("event", [
    {"kind": "read"}, {"kind": "read", "word": 3}, {"kind": "write", "word": None},
    {"kind": "skip"}, {"word": "a"}, ["read", "a"],
])
def test_waited_words_refuses_a_malformed_event(event):
    # the one walk that finds the waited words checks every event it passes
    record = dict(_RECORD, events=[{"kind": "read", "word": "a"}, {"kind": "wait"}, event])
    with pytest.raises(ParseError, match="^t.json: events must be a list of event records$"):
        read_trace(record, "t.json")


def test_waited_words_skips_a_wait_before_any_read():
    reading = read_trace(dict(_RECORD, events=[
        {"kind": "wait"}, {"kind": "read", "word": "a"}, {"kind": "wait"},
        {"kind": "wait"}, {"kind": "write", "word": "x"}, {"kind": "eos"}]))
    assert reading == (["a"], [0, 1, 1, 1, 1],
                       [Signal.WAIT, Signal.WAIT, Signal.WAIT, "x", Signal.EOS])
    assert wait_histogram([reading], []).counts == {"a": 2}
