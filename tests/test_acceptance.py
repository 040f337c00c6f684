"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line printed per
criterion. Tolerances are part of the contract; do not loosen them.
"""

import json
import time

import pytest

from simtrans.aligner import AlignmentLinkSet, align_corpus, train_table
from simtrans.backends import ScriptedBackend
from simtrans.causal import causal_align, write_corpus
from simtrans.cli import EXIT_OK, main
from simtrans.engine import run_session
from simtrans.errors import WaitOverflow
from simtrans.metrics import DelaySequence, average_proportion
from simtrans.bleu import corpus_bleu
from simtrans.rng import make_rng
from simtrans.streams import AsrSimStream, TimedTranscript
from simtrans.units import Signal, WAIT_TOKEN

from conftest import FIXTURES, GOLDEN, lag_row, lag_rows, random_permutation_pair


def _ok(n, label):
    print(f"[criterion {n:2d}] PASS  {label}")


def test_criterion_01_causality_suite(tmp_path):
    started = time.perf_counter()
    rng = make_rng(101)
    pairs, link_sets = [], []
    for _ in range(1000):
        src, tgt, links = random_permutation_pair(rng, max_len=20)
        link_sets.append(AlignmentLinkSet(links=links, source_len=len(src), target_len=len(tgt)))
        pairs.append(causal_align(src, tgt, link_sets[-1]))
    corpus_path = tmp_path / "fuzzed.jsonl"
    write_corpus(pairs, link_sets, corpus_path)
    assert main(["verify", str(corpus_path)]) == EXIT_OK
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"causality suite took {elapsed:.1f}s"
    _ok(1, f"1000 fuzzed permutation pairs verified in {elapsed:.1f}s")


def test_criterion_02_inference_golden_trace():
    source = ["I", "like", "to", "have", "tea", "in", "the", "morning", "."]
    script = [Signal.WAIT, "Ya", "lyublyu", Signal.WAIT, "pit'", "chai",
              Signal.WAIT, "po", "utram.", Signal.EOS]
    trace = run_session(source, ScriptedBackend(script), k=1)
    trace.session_id = "0000"
    golden = (GOLDEN / "inference_trace.json").read_text(encoding="utf-8")
    assert trace.to_json() + "\n" == golden
    waits = sum(1 for e in trace.events if e["kind"] == "wait")
    assert waits == 3
    assert len(trace.hypothesis_words) == 6
    assert trace.hypothesis_words[-1] == "utram."
    assert trace.finished
    _ok(2, "scripted k=1 session reproduces the golden trace byte-for-byte")


def test_criterion_03_wait_k_gate_fuzz():
    rng = make_rng(303)
    writes_checked = 0
    for _ in range(500):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(k, 24))
        source = [f"s{i}" for i in range(n)]
        units = []
        remaining = n
        while remaining:
            if rng.random() < 0.35:
                units.append(Signal.WAIT)
            else:
                units.append(f"h{remaining}")
                remaining -= 1
        units.append(Signal.EOS)
        try:
            trace = run_session(source, ScriptedBackend(units), k=k)
        except WaitOverflow as exc:
            trace = exc.partial_trace
        revealed = 0
        for event in trace.events:
            if event["kind"] == "read":
                revealed += 1
            elif event["kind"] == "write":
                assert revealed >= k, f"write with revealed={revealed} < k={k}"
                writes_checked += 1
        assert WAIT_TOKEN not in trace.hypothesis_words
    assert writes_checked > 0
    _ok(3, f"500 fuzzed sessions, {writes_checked} writes, none before the gate")


def test_criterion_04_metric_oracles():
    # AL and DAL do not read ref_len; each is read from its score_sessions row
    checks = [
        (lag_row(DelaySequence(g=[1, 2, 3], source_len=3, ref_len=3)).al, 1.0),
        (lag_row(DelaySequence(g=[2, 3, 3], source_len=3, ref_len=3)).al, 2.0),
        (average_proportion(DelaySequence(g=[1, 2, 3], source_len=3)), 2.0 / 3.0),
        (lag_row(DelaySequence(g=[3, 3, 3], source_len=3, ref_len=3)).dal, 3.0),
        (lag_row(DelaySequence(g=[1, 2, 3], source_len=3, ref_len=6)).laal, 1.5),
    ]
    for got, want in checks:
        assert got == pytest.approx(want, abs=1e-9)
    _ok(4, "AL/AP/DAL/LAAL hand-derived oracles all within 1e-9")


def test_criterion_05_wait_k_closed_form_and_dal_dominance():
    cases = [(k, n) for k in range(1, 6) for n in range(k, 21)]
    rows = lag_rows([DelaySequence(g=[min(t - 1 + k, n) for t in range(1, n + 1)],
                                   source_len=n, ref_len=n) for k, n in cases])
    for (k, n), row in zip(cases, rows):
        assert row.al == pytest.approx(k, abs=1e-9), (k, n)
    rng = make_rng(505)
    seqs = []
    for _ in range(10_000):
        n = int(rng.integers(1, 16))
        src = int(rng.integers(n, n + 12))
        g, cur = [], int(rng.integers(1, src + 1))
        for _ in range(n):
            g.append(cur)
            cur = min(src, cur + int(rng.integers(0, 4)))
        seqs.append(DelaySequence(g=g, source_len=src, ref_len=n))
    for row in lag_rows(seqs):
        assert row.dal >= row.al - 1e-9
    _ok(5, "AL=k closed form for k in 1..5, DAL>=AL on 10000 fuzzed sequences")


def test_criterion_06_em_aligner_cipher_corpus():
    rng = make_rng(606)
    vocab = [f"w{i:03d}" for i in range(60)]
    cipher = {w: f"c{i:03d}" for i, w in enumerate(vocab)}
    pairs = []
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        idx = rng.choice(len(vocab), size=n, replace=False)
        src = [vocab[i] for i in idx]
        pairs.append((src, [cipher[w] for w in src]))

    forward = train_table(pairs, iterations=15)
    reverse = train_table(pairs, iterations=15, direction="reverse")

    history = forward.log_likelihood_history
    assert len(history) == 15
    assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))
    for table in (forward, reverse):
        assert float(abs(table.row_sums() - 1.0).max()) < 1e-9

    gold_links = 0
    recovered = 0
    for src, tgt in pairs:
        links = align_corpus([(src, tgt)], forward, reverse)[0]
        gold_links += len(src)
        recovered += sum(1 for i, j in links.links if i == j)
    accuracy = recovered / gold_links
    assert accuracy >= 0.99, f"link accuracy {accuracy:.4f}"
    _ok(6, f"cipher corpus: LL monotone, rows stochastic, link accuracy {accuracy:.4f}")


def test_criterion_07_end_to_end_dictionary_run(tmp_path):
    started = time.perf_counter()
    rng = make_rng(707)
    vocab = [f"word{i:02d}" for i in range(40)]
    mapping = {w: w.upper() for w in vocab}
    sentences = []
    for _ in range(50):
        n = int(rng.integers(5, 13))
        src_words = [vocab[int(rng.integers(0, len(vocab)))] for _ in range(n)]
        sentences.append({
            "source": " ".join(src_words),
            "target": " ".join(mapping[w] for w in src_words),
        })
    test_set = tmp_path / "test.jsonl"
    test_set.write_text("\n".join(json.dumps(s) for s in sentences) + "\n")
    dict_file = tmp_path / "dict.json"
    dict_file.write_text(json.dumps(mapping))
    out_dir = tmp_path / "traces"
    assert main(["simulate", "--input", str(test_set), "--out-dir", str(out_dir),
                 "--backend", "dict", "--dict-file", str(dict_file),
                 "--k", "3"]) == EXIT_OK
    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--traces", str(out_dir), "--references", str(test_set),
                 "--report", str(report_path)]) == EXIT_OK
    report = json.loads(report_path.read_text())["reports"]["3"]
    assert report["bleu"] == pytest.approx(100.0, abs=1e-2)
    assert report["al"] == pytest.approx(3.0, abs=1e-6)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"end-to-end run took {elapsed:.1f}s"
    _ok(7, f"50-sentence dictionary run: BLEU {report['bleu']:.2f}, "
           f"AL {report['al']:.6f} in {elapsed:.1f}s")


def test_criterion_08_asr_windowing_fuzz():
    rng = make_rng(808)
    window = 200.0
    for _ in range(300):
        n = int(rng.integers(1, 18))
        gaps = rng.integers(40, 500, size=n)
        ends = [float(sum(gaps[: i + 1])) for i in range(n)]
        total = ends[-1] + float(rng.integers(0, 250))
        transcript = TimedTranscript(
            words=[{"w": f"w{i}", "end_ms": e} for i, e in enumerate(ends)],
            total_ms=total,
        )
        stream = AsrSimStream(transcript, window_ms=window)
        exposed = list(stream)
        assert len(exposed) == n
        for (word, stamp), end in zip(exposed, ends):
            assert stamp >= end, "word exposed before its audio ended"
            assert stamp % window == 0.0, "stamp not a window multiple"
    _ok(8, "300 fuzzed transcripts: no early exposure, stamps on the window grid")


def test_criterion_09_bleu_cross_check():
    cases = json.loads((FIXTURES / "bleu_cases.json").read_text())
    assert len(cases) == 3
    for case in cases:
        score = corpus_bleu(case["hyps"], case["refs"])
        assert score == pytest.approx(case["bleu"], abs=0.01), case["name"]
    _ok(9, "three fixture corpora within 0.01 of the reference scorer goldens")


def test_criterion_10_reproducibility(tmp_path):
    # build-dataset determinism
    rng = make_rng(1010)
    pairs, link_sets = [], []
    for _ in range(20):
        src, tgt, links = random_permutation_pair(rng, max_len=10)
        link_sets.append(AlignmentLinkSet(links=links, source_len=len(src), target_len=len(tgt)))
        pairs.append(causal_align(src, tgt, link_sets[-1]))
    causal_path = tmp_path / "causal.jsonl"
    write_corpus(pairs, link_sets, causal_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"sft_{name}.jsonl"
        assert main(["build-dataset", "--input", str(causal_path), "--output",
                     str(out), "--seed", "7", "--samples-per-pair", "2"]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    # simulate determinism through the replay backend: two replays of a
    # run's traces each write that run's traces again, byte for byte
    sentences = [{"source": f"m{i} n{i} o{i} p{i}", "target": f"M{i} N{i} O{i} P{i}"}
                 for i in range(4)]
    test_set = tmp_path / "test.jsonl"
    test_set.write_text("\n".join(json.dumps(s) for s in sentences) + "\n")
    mapping = {w: w.upper() for s in sentences for w in s["source"].split()}
    dict_file = tmp_path / "dict.json"
    dict_file.write_text(json.dumps(mapping))
    recorded = tmp_path / "t0"
    assert main(["simulate", "--input", str(test_set), "--out-dir", str(recorded),
                 "--backend", "dict", "--dict-file", str(dict_file), "--k", "2"]) == EXIT_OK
    original = {p.name: p.read_bytes() for p in recorded.glob("*.json")}
    assert len(original) == 4
    for name in ("t1", "t2"):
        out_dir = tmp_path / name
        assert main(["simulate", "--input", str(test_set), "--out-dir", str(out_dir),
                     "--backend", "replay", "--recording", str(recorded),
                     "--k", "2"]) == EXIT_OK
        assert {p.name: p.read_bytes() for p in out_dir.glob("*.json")} == original
    _ok(10, "build-dataset and replay simulate byte-identical across reruns")
