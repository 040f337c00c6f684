import ast
import errno
import itertools
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import simtrans
from simtrans import aligner, cli
from simtrans.backends import ScriptedBackend
from simtrans.cli import EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, EXIT_VERIFY, main
from simtrans.prompt import build_prompt, interpreter_system_message
from simtrans.streams import TimedTranscript, write_transcript
from simtrans.units import FILLER_TOKEN, WAIT_TOKEN

from conftest import FIXTURES, GOLDEN, trace_bytes


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


@pytest.fixture
def toy_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [
        {"source": "the dog runs fast", "target": "le chien court vite"},
        {"source": "the cat sleeps now", "target": "le chat dort maintenant"},
    ])
    return path


def test_align_pipeline_and_verify(tmp_path, toy_corpus, capsys):
    out = tmp_path / "causal.jsonl"
    assert main(["align", "--input", str(toy_corpus), "--output", str(out),
                 "--iterations", "5"]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    assert main(["verify", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "2 pairs" in captured.out


def test_align_output_matches_golden(tmp_path, toy_corpus):
    out = tmp_path / "causal.jsonl"
    assert main(["align", "--input", str(toy_corpus), "--output", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / "toy_align_causal.jsonl").read_bytes()


def test_align_fixture_matches_golden(tmp_path):
    # eight pairs with punctuation, wait markers and filler padding
    out = tmp_path / "causal.jsonl"
    test_set = FIXTURES / "evaluate" / "test.jsonl"
    assert main(["align", "--input", str(test_set), "--output", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / "fixture_align_causal.jsonl").read_bytes()


def test_align_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    code = main(["align", "--input", str(missing), "--output", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_align_empty_input_names_the_file(tmp_path, capsys, text):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text(text)
    out = tmp_path / "causal.jsonl"
    assert main(["align", "--input", str(corpus), "--output", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: {corpus}: alignment training needs at least one sentence pair\n")
    assert not out.exists()


def test_align_links_the_training_corpus_without_slot_search(tmp_path, toy_corpus,
                                                             monkeypatch):
    def no_search(self, layout):
        raise AssertionError("align searched table slots")

    monkeypatch.setattr(aligner.TranslationTable, "_weights", no_search)
    out = tmp_path / "causal.jsonl"
    assert main(["align", "--input", str(toy_corpus), "--output", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / "toy_align_causal.jsonl").read_bytes()


def test_align_with_imported_alignments(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    write_jsonl(corpus, [{"source": "a b", "target": "x y"}])
    pharaoh = tmp_path / "a.txt"
    pharaoh.write_text("1-0 0-1\n")
    out = tmp_path / "causal.jsonl"
    assert main(["align", "--input", str(corpus), "--output", str(out),
                 "--alignments", str(pharaoh)]) == EXIT_OK
    record = json.loads(out.read_text())
    assert record["waits"] == 1 and record["fillers"] == 1


def test_imported_em_links_rebuild_the_same_corpus(tmp_path):
    # align --alignments and EM align end in the same build_corpus call
    test_set = FIXTURES / "evaluate" / "test.jsonl"
    em = tmp_path / "em.jsonl"
    assert main(["align", "--input", str(test_set), "--output", str(em)]) == EXIT_OK
    pharaoh = tmp_path / "links.txt"
    pharaoh.write_text("".join(
        " ".join(f"{i}-{j}" for i, j in json.loads(line)["links"]) + "\n"
        for line in em.read_text(encoding="utf-8").splitlines()
    ))
    imported = tmp_path / "imported.jsonl"
    assert main(["align", "--input", str(test_set), "--output", str(imported),
                 "--alignments", str(pharaoh)]) == EXIT_OK
    assert imported.read_bytes() == em.read_bytes()


def test_build_dataset_deterministic(tmp_path, toy_corpus):
    causal = tmp_path / "causal.jsonl"
    main(["align", "--input", str(toy_corpus), "--output", str(causal)])
    out1, out2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
    for out in (out1, out2):
        assert main(["build-dataset", "--input", str(causal), "--output", str(out),
                     "--seed", "7"]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    meta = json.loads((tmp_path / "s1.jsonl.meta.json").read_text())
    assert meta["lora_r"] == 16 and meta["wait_token_id"] == 0


def test_build_dataset_sample_count(tmp_path):
    causal = tmp_path / "causal.jsonl"
    records = []
    for i in range(10):
        records.append({
            "source": [f"a{i}", f"b{i}"],
            "target": [f"x{i}", f"y{i}"],
            "waits": 0, "fillers": 0,
            "links": [[0, 0], [1, 1]],
        })
    write_jsonl(causal, records)
    out = tmp_path / "sft.jsonl"
    assert main(["build-dataset", "--input", str(causal), "--output", str(out),
                 "--samples-per-pair", "2"]) == EXIT_OK
    assert len(out.read_text().strip().split("\n")) == 20


def test_build_dataset_corrupt_record(tmp_path, capsys):
    causal = tmp_path / "causal.jsonl"
    causal.write_text('{"source": ["a"], "target": ["x"], "links": [[0,0]]}\nnot json\n')
    code = main(["build-dataset", "--input", str(causal), "--output",
                 str(tmp_path / "o.jsonl")])
    assert code == EXIT_USAGE
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--output", "--meta"])
def test_build_dataset_that_cannot_write_an_output_writes_neither(tmp_path, capsys,
                                                                  monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    outputs = {"--output": "sft.jsonl", "--meta": "sft.meta.json", flag: "nodir/x.json"}
    code = main(["build-dataset", "--input", str(GOLDEN / "fixture_align_causal.jsonl"),
                 "--output", outputs["--output"], "--meta", outputs["--meta"]])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: nodir/x.json: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_build_dataset_removes_the_samples_it_made_when_the_meta_replace_fails(tmp_path,
                                                                               capsys):
    out, meta = tmp_path / "sft.jsonl", tmp_path / "meta"
    meta.mkdir()
    assert main(["build-dataset", "--input", str(GOLDEN / "fixture_align_causal.jsonl"),
                 "--output", str(out), "--meta", str(meta)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {meta}: Is a directory\n"
    assert list(tmp_path.iterdir()) == [meta] and list(meta.iterdir()) == []


def test_build_dataset_keeps_the_outputs_it_found_when_it_fails(tmp_path, capsys):
    out, meta = tmp_path / "sft.jsonl", tmp_path / "meta"
    out.write_text("before\n")
    meta.mkdir()
    assert main(["build-dataset", "--input", str(GOLDEN / "fixture_align_causal.jsonl"),
                 "--output", str(out), "--meta", str(meta)]) == EXIT_USAGE
    assert sorted(tmp_path.iterdir()) == [meta, out]


def test_build_dataset_refuses_one_path_for_both_outputs(tmp_path, capsys):
    out = tmp_path / "sft.jsonl"
    assert main(["build-dataset", "--input", str(GOLDEN / "fixture_align_causal.jsonl"),
                 "--output", str(out), "--meta", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {out}: --meta names the --output file\n"
    assert list(tmp_path.iterdir()) == []


def test_build_dataset_fixture_matches_golden(tmp_path):
    # three samples per pair of the aligned fixture: prompts, completions,
    # trim lengths and the meta sidecar, byte for byte
    out = tmp_path / "sft.jsonl"
    assert main(["build-dataset", "--input", str(GOLDEN / "fixture_align_causal.jsonl"),
                 "--output", str(out), "--samples-per-pair", "3"]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / "fixture_sft.jsonl").read_bytes()
    assert ((tmp_path / "sft.jsonl.meta.json").read_bytes()
            == (GOLDEN / "fixture_sft.meta.json").read_bytes())


_GOOD_RECORD = {"source": ["a", "b"], "target": ["x", "y"], "links": [[0, 0], [1, 1]]}


def _good(**fields):
    return {**_GOOD_RECORD, **fields}


@pytest.mark.parametrize("record, problem", [
    pytest.param(_good(links=[[0.9, 0], ["1", True]]), "malformed link [0.9, 0]",
                 id="float-and-string-bool"),
    pytest.param(_good(links=[[0, 0], [1, True]]), "malformed link [1, True]", id="bool"),
    pytest.param(_good(links=[[0, 0], ["1", 1]]), "malformed link ['1', 1]", id="numeric-string"),
    pytest.param(_good(links=[[0, 0], [1.0, 1]]), "malformed link [1.0, 1]", id="integral-float"),
    pytest.param(_good(links=[[5, 0]]), "link (5,0) outside 2x2", id="link-out-of-bounds"),
    # the bounds are the sentences without their markers
    pytest.param({"source": ["a", FILLER_TOKEN], "target": ["x", "y"], "links": [[1, 0]]},
                 "link (1,0) outside 1x2", id="link-on-a-filler"),
    # a string would be read as its characters
    pytest.param(_good(source="ab"), "source must be a list of words", id="string-source"),
    pytest.param(_good(links=None), "links must be a list of index pairs", id="no-links"),
    pytest.param(_good(source=["a", 7]), "source must be a list of words", id="number-word"),
    pytest.param(_good(target=["x", None]), "target must be a list of words", id="null-word"),
    pytest.param(_good(target=["x", 2]), "target must be a list of words",
                 id="number-in-target"),
    pytest.param(_good(waits=3), "waits is 3 but the words hold 0", id="waits-count"),
    pytest.param(_good(fillers=1), "fillers is 1 but the words hold 0", id="fillers-count"),
    pytest.param([1], "a record must be a JSON object", id="list-record"),
    pytest.param("x", "a record must be a JSON object", id="string-record"),
    pytest.param(None, "a record must be a JSON object", id="null-record"),
    pytest.param(5, "a record must be a JSON object", id="number-record"),
    # the causal invariants themselves
    pytest.param(_good(links=[[1, 0]]), "causality violated: target 0 at position 0 < source 1",
                 id="causality-violated"),
    pytest.param({"source": ["a", FILLER_TOKEN, "b"], "target": ["x", "y", "z"],
                  "links": [[0, 0]]}, "filler inside source body", id="filler-in-source-body"),
    pytest.param({"source": ["a"], "target": ["x", "y", "z"], "links": [[0, 0]]},
                 "length mismatch 1 != 3", id="length-mismatch"),
    # a side with no word would leave no trim length to draw
    pytest.param({"source": [], "target": [], "links": []}, "source holds no word",
                 id="empty-record"),
    pytest.param({"source": [FILLER_TOKEN], "target": [WAIT_TOKEN], "links": []},
                 "source holds no word", id="marker-only-record"),
    pytest.param(_good(target=[WAIT_TOKEN, WAIT_TOKEN], links=[]), "target holds no word",
                 id="waits-only-target"),
    # a marker on the wrong side would reach the training text
    pytest.param(_good(source=["a", WAIT_TOKEN], links=[[0, 0]]), f"{WAIT_TOKEN} in source",
                 id="wait-in-source"),
    pytest.param(_good(target=["x", FILLER_TOKEN], links=[[0, 0]]), f"{FILLER_TOKEN} in target",
                 id="filler-in-target"),
])
def test_verify_and_build_dataset_refuse_the_same_record(tmp_path, capsys, record, problem):
    # build-dataset refuses exactly what verify reports, with its first violation
    causal = tmp_path / "causal.jsonl"
    write_jsonl(causal, [_GOOD_RECORD, record])
    assert main(["verify", str(causal)]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "pair 1 " not in out and "verified 2 pairs: 1 ok, 1 violating" in out
    head = f"pair 2 ({causal}:2): "
    violations = [line[len(head):] for line in out.splitlines() if line.startswith(head)]
    assert violations[0] == problem
    sft_path = tmp_path / "sft.jsonl"
    assert main(["build-dataset", "--input", str(causal), "--output", str(sft_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {causal}: line 2: {problem}\n"
    assert not sft_path.exists() and not (tmp_path / "sft.jsonl.meta.json").exists()


@pytest.mark.parametrize("command", ["align", "build-dataset", "simulate", "simulate-dict",
                                     "verify"])
def test_unpaired_surrogate_escape_is_refused_where_read(tmp_path, capsys, command):
    # json.loads reads "\ud800" as a str no UTF-8 file can hold
    bad = tmp_path / "bad.json"
    out = tmp_path / "out"
    pairs = ['{"source": "a b", "target": "x y"}', r'{"source": "a \ud800 b", "target": "x y z"}']
    line, escape = 2, r"\ud800"
    if command == "align":
        bad.write_text("\n".join(pairs))
        argv = ["align", "--input", bad, "--output", out]
    elif command in ("build-dataset", "verify"):
        bad.write_text(json.dumps(_GOOD_RECORD) + "\n"
                       + r'{"source": ["a", "\ud800"], "target": ["x", "y"], "links": [[0, 0]]}')
        argv = ["build-dataset", "--input", bad, "--output", out] if command != "verify" \
            else ["verify", bad]
    elif command == "simulate":
        bad.write_text("\n".join(pairs))
        argv = ["simulate", "--input", bad, "--out-dir", out, "--backend", "dict",
                "--dict-file", FIXTURES / "evaluate" / "dict.json", "--k", "1"]
    else:
        # one document over lines: the error names the line of the escape
        bad.write_text('{\r\n"a": "x",\r\n' + r'"b": "y\udc00"' + "\r\n}")
        test_set = tmp_path / "test.jsonl"
        test_set.write_text(pairs[0])
        line, escape = 3, r"\udc00"
        argv = ["simulate", "--input", test_set, "--out-dir", out, "--backend", "dict",
                "--dict-file", bad, "--k", "1"]
    code = main(list(map(str, argv)))
    captured = capsys.readouterr()
    if command == "verify":
        assert code == EXIT_VERIFY
        assert f"pair 2 ({bad}:2): unpaired surrogate {escape}\n" in captured.out
        assert "verified 2 pairs: 1 ok, 1 violating" in captured.out
    else:
        assert code == EXIT_USAGE
        assert captured.err == f"error: {bad}: line {line}: unpaired surrogate {escape}\n"
        assert not out.exists()


def _simulate_dict(tmp_path, sentences, k="1,3", extra=None):
    test_set = tmp_path / "test.jsonl"
    write_jsonl(test_set, sentences)
    mapping = {}
    for rec in sentences:
        for w in rec["source"].split():
            mapping[w] = w.upper()
    dict_file = tmp_path / "dict.json"
    dict_file.write_text(json.dumps(mapping))
    out_dir = tmp_path / "traces"
    argv = ["simulate", "--input", str(test_set), "--out-dir", str(out_dir),
            "--backend", "dict", "--dict-file", str(dict_file), "--k", k]
    code = main(argv + (extra or []))
    return code, out_dir, test_set


def test_simulate_dict_trace_count(tmp_path):
    sentences = [{"source": f"w{i} x{i} y{i}", "target": f"W{i} X{i} Y{i}"}
                 for i in range(5)]
    code, out_dir, _ = _simulate_dict(tmp_path, sentences)
    assert code == EXIT_OK
    assert len(list(out_dir.glob("*.json"))) == 10


def test_simulate_scripted_matches_golden(tmp_path):
    test_set = tmp_path / "test.jsonl"
    write_jsonl(test_set, [{
        "source": "I like to have tea in the morning .",
        "target": "Ya lyublyu pit' chai po utram.",
    }])
    script_file = tmp_path / "script.json"
    script_file.write_text(json.dumps([[
        "<WAIT>", "Ya", "lyublyu", "<WAIT>", "pit'", "chai",
        "<WAIT>", "po", "utram.", "<EOS>",
    ]]))
    out_dir = tmp_path / "traces"
    assert main(["simulate", "--input", str(test_set), "--out-dir", str(out_dir),
                 "--backend", "scripted", "--script-file", str(script_file),
                 "--k", "1"]) == EXIT_OK
    produced = (out_dir / "0000_k1.json").read_text(encoding="utf-8")
    assert produced == (GOLDEN / "inference_trace.json").read_text(encoding="utf-8")


def test_simulate_keeps_the_traces_it_finished(tmp_path, capsys):
    test_set = tmp_path / "test.jsonl"
    write_jsonl(test_set, [{"source": f"w{i}", "target": f"W{i}"} for i in range(3)])
    script_file = tmp_path / "script.json"
    script_file.write_text(json.dumps([["A", "<EOS>"], ["B", "<EOS>"], ["C", "<EOS>"]]))
    out_dir = tmp_path / "traces"
    # a directory where the second session writes its temporary trace aborts the run there
    blocker = out_dir / "0001_k1.json.tmp"
    blocker.mkdir(parents=True)
    assert main(["simulate", "--input", str(test_set), "--out-dir", str(out_dir),
                 "--backend", "scripted", "--script-file", str(script_file),
                 "--k", "1"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {blocker}: Is a directory\n"
    assert (out_dir / "0000_k1.json").exists()


def test_simulate_checks_the_script_file_before_any_session(tmp_path, capsys):
    test_set = tmp_path / "test.jsonl"
    write_jsonl(test_set, [{"source": f"w{i}", "target": f"W{i}"} for i in range(2)])
    script_file = tmp_path / "script.json"
    script_file.write_text(json.dumps([["A", "<EOS>"]]))  # none for sentence 1
    out_dir = tmp_path / "traces"
    assert main(["simulate", "--input", str(test_set), "--out-dir", str(out_dir),
                 "--backend", "scripted", "--script-file", str(script_file),
                 "--k", "1"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: {script_file}: 1 script lists for 2 input sentences\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("backend, make_args, message", [
    ("dict", lambda d: ["--dict-file", d / "missing.json"], "missing.json: No such file"),
    ("replay", lambda d: ["--recording", d / "recorded"],
     "recorded: no trace of session 0001 at k=1"),
    ("http", lambda d: ["--endpoint", "ftp://127.0.0.1:9/v1"],
     "error: endpoint 'ftp://127.0.0.1:9/v1' is not an http(s) URL\n"),
    ("http", lambda d: ["--endpoint", "http://127.0.0.1:9/v1 x"],
     "error: endpoint 'http://127.0.0.1:9/v1 x' holds a space or a control character\n"),
    ("http", lambda d: ["--endpoint", "http://127.0.0.1:99999/v1"],
     "error: endpoint 'http://127.0.0.1:99999/v1': Port out of range 0-65535\n"),
])
def test_refused_simulate_leaves_no_out_dir(tmp_path, capsys, backend, make_args, message):
    test_set = tmp_path / "test.jsonl"
    write_jsonl(test_set, [{"source": f"w{i}", "target": f"W{i}"} for i in range(2)])
    # a recording of sentence 0 alone
    (tmp_path / "recorded").mkdir()
    (tmp_path / "recorded" / "0000_k1.json").write_bytes(
        (GOLDEN / "inference_trace.json").read_bytes())
    out_dir = tmp_path / "traces"
    assert main(["simulate", "--input", str(test_set), "--out-dir", str(out_dir),
                 "--backend", backend, "--k", "1", *map(str, make_args(tmp_path))]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_simulate_http_unreachable(tmp_path, capsys):
    test_set = tmp_path / "test.jsonl"
    write_jsonl(test_set, [{"source": "a b", "target": "x y"}])
    out_dir = tmp_path / "traces"
    code = main(["simulate", "--input", str(test_set), "--out-dir", str(out_dir),
                 "--backend", "http", "--endpoint", "http://127.0.0.1:1/v1",
                 "--retries", "0", "--timeout-ms", "300", "--k", "1"])
    assert code == EXIT_PARTIAL
    trace = json.loads((out_dir / "0000_k1.json").read_text())
    assert trace["error"] is not None


def test_evaluate_identity(tmp_path, capsys):
    sentences = [
        {"source": "alpha beta gamma delta epsilon", "target": "ALPHA BETA GAMMA DELTA EPSILON"},
        {"source": "one two three four five", "target": "ONE TWO THREE FOUR FIVE"},
    ]
    code, out_dir, test_set = _simulate_dict(tmp_path, sentences, k="50")
    assert code == EXIT_OK
    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--traces", str(out_dir), "--references", str(test_set),
                 "--report", str(report_path)]) == EXIT_OK
    report = json.loads(report_path.read_text())["reports"]["50"]
    assert report["bleu"] == pytest.approx(100.0, abs=1e-6)
    assert report["ap"] == pytest.approx(1.0, abs=1e-9)


def test_evaluate_bootstrap_and_curve(tmp_path):
    sentences = [{"source": f"a{i} b{i} c{i} d{i} e{i}",
                  "target": f"A{i} B{i} C{i} D{i} E{i}"} for i in range(4)]
    code, out_dir, test_set = _simulate_dict(tmp_path, sentences, k="1,3")
    report_path = tmp_path / "report.json"
    curve_path = tmp_path / "curve.csv"
    hist_path = tmp_path / "hist.json"
    assert main(["evaluate", "--traces", str(out_dir), "--references", str(test_set),
                 "--report", str(report_path), "--curve", str(curve_path),
                 "--histogram", str(hist_path),
                 "--bootstrap", "10", "--seed", "3"]) == EXIT_OK
    data = json.loads(report_path.read_text())
    assert set(data["reports"]) == {"1", "3"}
    assert "bootstrap" in data and "al" in data["bootstrap"]["1"]
    assert data["bootstrap"]["1"]["al"]["std"] >= 0.0
    lines = curve_path.read_text().strip().split("\n")
    assert len(lines) == 3 and lines[1].startswith("1,")
    assert json.loads(hist_path.read_text())["function_share"] >= 0.0


def test_evaluate_missing_reference(tmp_path, capsys):
    sentences = [{"source": "a b c", "target": "A B C"}]
    code, out_dir, test_set = _simulate_dict(tmp_path, sentences, k="1")
    short_refs = tmp_path / "short.jsonl"
    short_refs.write_text("")
    code = main(["evaluate", "--traces", str(out_dir), "--references", str(short_refs)])
    assert code == EXIT_USAGE
    assert "0000" in capsys.readouterr().err


def test_evaluate_blank_reference_names_the_line(tmp_path, capsys):
    code, out_dir, _ = _simulate_dict(tmp_path, [{"source": "a b c", "target": "A B C"}], k="1")
    refs = tmp_path / "refs.jsonl"
    write_jsonl(refs, [{"source": "a b c", "target": "   "}])
    capsys.readouterr()
    assert main(["evaluate", "--traces", str(out_dir), "--references", str(refs)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {refs}: line 1: sentence is empty after trimming\n"


def test_evaluate_matches_golden(tmp_path):
    # golden files written by the string-rescoring evaluate that preceded
    # per-sentence statistics; the fixture has an empty hypothesis (sentence
    # 2), a truncated session (5), a short hypothesis (7) and a repeated
    # reference (0 and 6); the histogram golden was written by the evaluate
    # that rebuilt event objects from each trace record
    fixture = FIXTURES / "evaluate"
    out_dir = tmp_path / "traces"
    assert main(["simulate", "--input", str(fixture / "test.jsonl"), "--out-dir", str(out_dir),
                 "--backend", "dict", "--dict-file", str(fixture / "dict.json"),
                 "--k", "1,3"]) == EXIT_PARTIAL
    report, curve = tmp_path / "report.json", tmp_path / "curve.csv"
    waits = tmp_path / "waits.json"
    assert main(["evaluate", "--traces", str(out_dir), "--references", str(fixture / "test.jsonl"),
                 "--report", str(report), "--curve", str(curve),
                 "--histogram", str(waits),
                 "--bootstrap", "20", "--seed", "3"]) == EXIT_OK
    assert report.read_bytes() == (GOLDEN / "evaluate_report.json").read_bytes()
    assert curve.read_bytes() == (GOLDEN / "evaluate_curve.csv").read_bytes()
    assert waits.read_bytes() == (GOLDEN / "evaluate_waits.json").read_bytes()


def test_simulate_fixture_traces_match_golden(tmp_path, monkeypatch):
    # the dict run behind the evaluate goldens, failed sessions included:
    # every trace file, byte for byte, on four worker threads too, and with
    # --k from a config file or from the environment
    fixture = FIXTURES / "evaluate"
    golden = trace_bytes(GOLDEN / "fixture_traces")
    config = tmp_path / "k.json"
    config.write_text('{"k": [1, 3]}')
    simulate = ["simulate", "--input", str(fixture / "test.jsonl"),
                "--dict-file", str(fixture / "dict.json")]
    for name, argv in (("plain", [*simulate, "--backend", "dict", "--k", "1,3"]),
                       ("workers", [*simulate, "--backend", "dict", "--k", "1,3",
                                    "--workers", "4"]),
                       ("config", ["--config", str(config), *simulate]),
                       ("env", simulate)):
        with monkeypatch.context() as env:
            if name == "env":
                env.setenv("SIMTRANS_K", "1,3")
            assert main([*argv, "--out-dir", str(tmp_path / name)]) == EXIT_PARTIAL, name
        traces = trace_bytes(tmp_path / name)
        assert sorted(traces) == sorted(golden), name
        for file_name, data in golden.items():
            assert traces[file_name] == data, (name, file_name)


def run_cli(*argv, preexec_fn=None):
    """Run the CLI in a fresh interpreter, as a user would; (exit code, stderr).

    preexec_fn runs in the child before it starts. A run that has not ended
    within a minute fails the test instead of hanging it.
    """
    src = Path(simtrans.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "simtrans.cli", *map(str, argv)],
                          capture_output=True, text=True, timeout=60, preexec_fn=preexec_fn,
                          env={**os.environ, "PYTHONPATH": str(src)})
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("flag, value, command", [
    ("k", "0", "simulate"),
    ("k", "two", "simulate"),
    ("k", ",", "simulate"),
    ("k", "1,1", "simulate"),
    ("top-p", "nan", "simulate-http"),
    ("top-p", "-5", "simulate-http"),
    ("top-p", "5", "simulate-http"),
    ("timeout-ms", "inf", "simulate-http"),
    ("retries", "-1", "simulate-http"),
    ("timeout-ms", "0", "simulate-http"),
    ("timeout-ms", "1e300", "simulate-http"),
    ("window-ms", "0", "simulate"),
    ("workers", "0", "simulate"),
    ("workers", "-3", "simulate"),
    ("bootstrap", "-1", "evaluate"),
    ("iterations", "0", "align"),
    ("samples-per-pair", "0", "build-dataset"),
    ("seed", "-1", "build-dataset"),
    ("seed", "-3", "evaluate"),
    ("lookahead", "-3", "simulate"),
    ("max-unit-tokens", "0", "simulate-http"),
])
def test_out_of_range_option_is_one_error_line(tmp_path, toy_corpus, flag, value, command):
    code, out_dir, test_set = _simulate_dict(tmp_path, [{"source": "a b", "target": "A B"}])
    assert code == EXIT_OK
    argv = {
        "simulate": ["simulate", "--input", test_set, "--out-dir", tmp_path / "o",
                     "--backend", "dict", "--dict-file", tmp_path / "dict.json"],
        "simulate-http": ["simulate", "--input", test_set, "--out-dir", tmp_path / "o",
                          "--backend", "http", "--endpoint", "http://127.0.0.1:1/v1"],
        "evaluate": ["evaluate", "--traces", out_dir, "--references", test_set],
        "align": ["align", "--input", toy_corpus, "--output", tmp_path / "c.jsonl"],
        "build-dataset": ["build-dataset", "--input", GOLDEN / "toy_align_causal.jsonl",
                          "--output", tmp_path / "s.jsonl"],
    }[command]
    code, err = run_cli(*argv, f"--{flag}", value)
    assert code == EXIT_USAGE
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: --{flag}")
    # refused before any output is written
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "corpus.jsonl", "dict.json", "test.jsonl", "traces"]


@pytest.mark.parametrize("command", ["align", "build-dataset", "evaluate"])
def test_a_write_past_the_file_size_limit_names_its_output(tmp_path, command):
    # a failed write raises an OSError that names no file
    out = tmp_path / "out.json"
    fixture = FIXTURES / "evaluate"
    argv = {
        "align": ["align", "--input", fixture / "test.jsonl", "--output", out],
        "build-dataset": ["build-dataset", "--input", GOLDEN / "fixture_align_causal.jsonl",
                          "--output", out, "--meta", tmp_path / "meta.json"],
        "evaluate": ["evaluate", "--traces", GOLDEN / "fixture_traces",
                     "--references", fixture / "test.jsonl", "--report", out,
                     "--curve", tmp_path / "curve.csv"],
    }[command]
    if command == "build-dataset":
        # left by an earlier run that was killed; the samples write fails first
        (tmp_path / "meta.json.tmp").write_text("{}")

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (512, 512))

    code, err = run_cli(*argv, preexec_fn=limit_file_size)
    assert (code, err) == (EXIT_USAGE, f"error: {out}: {os.strerror(errno.EFBIG)}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, backend", [
    ("target_language", ["--backend", "dict", "--dict-file", FIXTURES / "evaluate" / "dict.json"]),
    ("endpoint", ["--backend", "http"]),
    ("api_key_env", ["--backend", "http", "--endpoint", "http://127.0.0.1:1/v1"]),
])
def test_non_string_config_value_is_one_error_line(tmp_path, key, backend):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: 5}))
    test_set = tmp_path / "test.jsonl"
    write_jsonl(test_set, [{"source": "a b", "target": "x y"}])
    code, err = run_cli("--config", config, "simulate", "--input", test_set,
                        "--out-dir", tmp_path / "o", *backend)
    assert code == EXIT_USAGE
    assert err == f"error: --{key.replace('_', '-')}: invalid value 5\n"


@pytest.mark.parametrize("source", ["flag", "config", "environment"])
@pytest.mark.parametrize("command", ["build-dataset", "simulate"])
def test_option_value_that_is_not_utf8_is_one_error_line(tmp_path, monkeypatch, source,
                                                         command):
    # argv and the environment decode the byte 0xff to the lone surrogate
    # '\udcff', which no UTF-8 output file can hold
    out = tmp_path / "out"
    argv = {
        "build-dataset": ["build-dataset", "--input", GOLDEN / "toy_align_causal.jsonl",
                          "--output", out],
        "simulate": ["simulate", "--input", FIXTURES / "evaluate" / "test.jsonl",
                     "--out-dir", out, "--backend", "dict",
                     "--dict-file", FIXTURES / "evaluate" / "dict.json"],
    }[command]
    expected = "error: --target-language: invalid value '\\udcff'\n"
    if source == "flag":
        argv += ["--target-language", "\udcff"]
    elif source == "environment":
        monkeypatch.setenv("SIMTRANS_TARGET_LANGUAGE", "\udcff")
    else:
        # JSON spells a lone surrogate only as an escape, which every JSON input refuses
        config = tmp_path / "cfg.json"
        config.write_text('{"target_language": "\\udcff"}')
        argv = ["--config", config, *argv]
        expected = f"error: {config}: line 1: unpaired surrogate \\udcff\n"
    assert run_cli(*argv) == (EXIT_USAGE, expected)
    assert not out.exists()


@pytest.mark.parametrize("config, flag, command", [
    pytest.param({"workers": True}, "workers", "simulate", id="workers-true"),
    pytest.param({"workers": 2.5}, "workers", "simulate", id="workers-2.5"),
    pytest.param({"k": [True]}, "k", "simulate", id="k-true"),
    pytest.param({"window_ms": False}, "window-ms", "simulate", id="window-ms-false"),
    pytest.param({"seed": 5.7}, "seed", "evaluate", id="seed-5.7"),
    pytest.param({"bootstrap": True}, "bootstrap", "evaluate", id="bootstrap-true"),
])
def test_mistyped_number_in_config_is_one_error_line(tmp_path, config, flag, command):
    code, out_dir, test_set = _simulate_dict(tmp_path, [{"source": "a b", "target": "A B"}])
    assert code == EXIT_OK
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    argv = {
        "simulate": ["simulate", "--input", test_set, "--out-dir", tmp_path / "o",
                     "--backend", "dict", "--dict-file", tmp_path / "dict.json"],
        "evaluate": ["evaluate", "--traces", out_dir, "--references", test_set],
    }[command]
    code, err = run_cli("--config", config_file, *argv)
    assert code == EXIT_USAGE
    assert err.startswith(f"error: --{flag}: invalid value ")
    assert len(err.splitlines()) == 1


# option -> (a bad value, its error line, the sources that can carry it); a
# flag or an environment variable is always text, so a string option can only
# be mistyped in the config file
@pytest.mark.parametrize("name, value, expected, sources", [
    pytest.param("workers", "abc", "--workers: invalid value 'abc'", "flag config env", id="int"),
    pytest.param("workers", "0", "--workers must be >= 1, got 0", "flag config env",
                 id="int-bound"),
    pytest.param("window_ms", "fast", "--window-ms: invalid value 'fast'", "flag config env",
                 id="float"),
    pytest.param("timeout_ms", "-1", "--timeout-ms must be > 0, got -1.0", "flag config env",
                 id="float-bound"),
    pytest.param("model", 5, "--model: invalid value 5", "config", id="string"),
    pytest.param("k", "1,x", "--k: invalid value '1,x'", "flag config env", id="k-list"),
    pytest.param("k", "2,0", "--k must be >= 1, got 0", "flag config env", id="k-list-bound"),
    pytest.param("k", ",", "--k: invalid value ','", "flag config env", id="k-list-empty"),
    pytest.param("k", [], "--k: invalid value []", "config", id="k-config-empty"),
    # each k writes the same trace names, so a repeated k would write one file twice
    pytest.param("k", "3,1,3", "--k: invalid value '3,1,3'", "flag config env",
                 id="k-list-repeated"),
    pytest.param("k", [1, 1.0], "--k: invalid value [1, 1.0]", "config",
                 id="k-config-repeated"),
    pytest.param("top_p", "nan", "--top-p: invalid value 'nan'", "flag config env",
                 id="float-nan"),
    pytest.param("top_p", "-5", "--top-p must be > 0, got -5.0", "flag config env",
                 id="top-p-bound"),
    pytest.param("top_p", "5", "--top-p must be <= 1, got 5.0", "flag", id="top-p-flag-above"),
    pytest.param("top_p", 1.5, "--top-p must be <= 1, got 1.5", "config",
                 id="top-p-config-above"),
    pytest.param("top_p", "2", "--top-p must be <= 1, got 2.0", "env", id="top-p-env-above"),
    pytest.param("timeout_ms", "inf", "--timeout-ms: invalid value 'inf'", "flag config env",
                 id="float-inf"),
    pytest.param("mode", "video", "--mode: invalid value 'video'", "flag config env",
                 id="choice"),
    pytest.param("backend", "bogus", "--backend: invalid value 'bogus'", "flag config env",
                 id="choice-backend"),
])
def test_bad_value_is_one_error_line_from_every_source(tmp_path, monkeypatch, capsys,
                                                       name, value, expected, sources):
    # checked before any input is read, even by a backend that ignores it
    argv = ["simulate", "--input", str(tmp_path / "test.jsonl"),
            "--out-dir", str(tmp_path / "o"), "--dict-file", str(tmp_path / "dict.json")]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({name: value}))
    for source in sources.split():
        with monkeypatch.context() as env:
            if source == "flag":
                code = main([*argv, f"--{name.replace('_', '-')}", value])
            elif source == "config":
                code = main(["--config", str(config), *argv])
            else:
                env.setenv(f"SIMTRANS_{name.upper()}", value)
                code = main(argv)
        assert code == EXIT_USAGE, source
        assert capsys.readouterr().err == f"error: {expected}\n", source
    assert not (tmp_path / "o").exists()


def test_top_p_of_one_is_accepted(tmp_path):
    code, _, _ = _simulate_dict(tmp_path, [{"source": "a b", "target": "A B"}],
                                extra=["--top-p", "1"])
    assert code == EXIT_OK


# every flag each subcommand takes; perfbench, the README and CI pass these
_FLAGS = {
    (): "--config",
    ("align",): "--input --output --alignments --iterations",
    ("build-dataset",): "--input --output --meta --seed --samples-per-pair --target-language",
    ("simulate",): "--input --out-dir --k --mode --backend --dict-file --lookahead "
                   "--script-file --recording --endpoint --model --api-key-env "
                   "--top-p --max-unit-tokens --timeout-ms --retries --workers --window-ms "
                   "--target-language --no-system-message --wall-clock",
    ("evaluate",): "--traces --references --report --curve --histogram --function-words "
                   "--bootstrap --seed",
    ("verify",): "",
}


@pytest.mark.parametrize("command", _FLAGS, ids=lambda c: c[0] if c else "simtrans")
def test_each_subcommand_keeps_its_flags(capsys, command):
    assert main([*command, "--help"]) == EXIT_OK
    help_text = capsys.readouterr().out
    assert set(re.findall(r"--[a-z][a-z-]*", help_text)) == {"--help", *_FLAGS[command].split()}
    if command == ("simulate",):
        assert "--mode {text,speech}" in help_text
        assert "--backend {scripted,dict,replay,http}" in help_text


def test_evaluate_curve_of_one_run_is_refused_before_any_output(tmp_path, capsys):
    fixture = FIXTURES / "evaluate"
    out_dir = tmp_path / "traces"
    assert main(["simulate", "--input", str(fixture / "test.jsonl"), "--out-dir", str(out_dir),
                 "--backend", "dict", "--dict-file", str(fixture / "dict.json"),
                 "--k", "3"]) == EXIT_PARTIAL
    report, curve = tmp_path / "report.json", tmp_path / "curve.csv"
    capsys.readouterr()
    assert main(["evaluate", "--traces", str(out_dir), "--references", str(fixture / "test.jsonl"),
                 "--report", str(report), "--curve", str(curve)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a tradeoff curve needs at least two runs\n"
    assert not report.exists() and not curve.exists()


def test_evaluate_names_the_report_it_cannot_replace(tmp_path, capsys):
    code, out_dir, test_set = _simulate_dict(tmp_path, [{"source": "a b", "target": "A B"}])
    assert code == EXIT_OK
    report = tmp_path / "report"
    report.mkdir()
    capsys.readouterr()
    assert main(["evaluate", "--traces", str(out_dir), "--references", str(test_set),
                 "--report", str(report)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {report}: Is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dict.json", "report", "test.jsonl", "traces"]
    assert list(report.iterdir()) == []


@pytest.mark.parametrize("flag", ["--report", "--curve", "--histogram"])
def test_evaluate_names_an_output_whose_directory_is_missing(tmp_path, capsys, monkeypatch,
                                                             flag):
    code, out_dir, test_set = _simulate_dict(tmp_path, [{"source": "a b", "target": "A B"}])
    assert code == EXIT_OK
    monkeypatch.chdir(tmp_path)
    outputs = {"--report": "report.json", "--curve": "curve.csv", "--histogram": "waits.json",
               flag: "nodir/w.json"}
    capsys.readouterr()
    assert main(["evaluate", "--traces", str(out_dir), "--references", str(test_set),
                 *(arg for pair in outputs.items() for arg in pair)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: nodir/w.json: No such file or directory\n"
    # the outputs are written together: none of the others is left either
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dict.json", "test.jsonl", "traces"]


def test_evaluate_missing_function_words_writes_nothing(tmp_path, capsys):
    code, out_dir, test_set = _simulate_dict(tmp_path, [{"source": "a b", "target": "A B"}])
    assert code == EXIT_OK
    outputs = [tmp_path / "report.json", tmp_path / "curve.csv", tmp_path / "waits.json"]
    capsys.readouterr()
    code = main(["evaluate", "--traces", str(out_dir), "--references", str(test_set),
                 "--report", str(outputs[0]), "--curve", str(outputs[1]),
                 "--histogram", str(outputs[2]),
                 "--function-words", str(tmp_path / "missing.txt")])
    assert code == EXIT_USAGE
    assert "missing.txt" in capsys.readouterr().err
    assert not any(path.exists() for path in outputs)


_MISSING = object()  # the key is taken out of the record

# case -> (fields written over a good text trace of "a b c", expected error)
_CORRUPT_FIELDS = {
    "events-not-records": ({"events": [1]}, "events must be a list of event records"),
    "event-kind-unknown": (
        {"events": [{"kind": "jump"}]}, "events must be a list of event records",
    ),
    "write-word-number": (
        {"events": [{"kind": "write", "word": 5}]}, "events must be a list of event records",
    ),
    "error-number": ({"error": 5}, "error must be null or a string"),
    "k-string": ({"k": "1"}, "k must be an integer"),
    "k-list": ({"k": [1]}, "k must be an integer"),
    "hypothesis-not-words": ({"hypothesis": [1, 2, 3]}, "hypothesis must be a list of words"),
    "id-list": ({"id": [0]}, "id must be a string"),
    "delays-strings": ({"delays_words": ["1", "2", "3"]}, "delays must be numbers, got '1'"),
    "delays-bool": ({"delays_words": [True, 2, 3]}, "delays must be numbers, got True"),
    "speech-processing-string": (
        {"mode": "speech", "delays_ms": [1, 2, 3], "processing_ms": "x"},
        "processing_ms must be a number",
    ),
    "source-total-bool": (
        {"source_total": True, "delays_words": [1, 1, 1]}, "source_total must be a number",
    ),
    "processing-ms-bool": (
        {"mode": "speech", "delays_ms": [1, 2, 3], "processing_ms": True},
        "processing_ms must be a number",
    ),
    "delays-short": (
        {"delays_words": [1, 2]}, "delays_words must hold one delay per hypothesis word",
    ),
    "delays-long": (
        {"delays_words": [1, 2, 3, 3]}, "delays_words must hold one delay per hypothesis word",
    ),
    "delays-missing": (
        {"delays_words": _MISSING}, "delays_words must hold one delay per hypothesis word",
    ),
    "speech-delays-missing": (
        {"mode": "speech"}, "delays_ms must hold one delay per hypothesis word",
    ),
    "delays-negative": ({"delays_words": [-2, 1, 3]}, "delays must not be negative"),
    "source-total-zero": ({"source_total": 0}, "the source length must be positive"),
    # json.dumps writes these as the bare NaN and Infinity that json.loads reads back
    "delays-nan": ({"delays_words": [1, float("nan"), 3]}, "delays must be finite"),
    "delays-infinite": ({"delays_words": [1, 2, float("inf")]}, "delays must be finite"),
    "source-total-nan": ({"source_total": float("nan")}, "source_total must be finite"),
    "source-total-infinite": ({"source_total": float("inf")}, "source_total must be finite"),
    "processing-ms-nan": (
        {"mode": "speech", "delays_ms": [1, 2, 3], "processing_ms": float("nan")},
        "processing_ms must be finite",
    ),
}


def _corrupt_trace(path, case):
    rec = json.loads(path.read_text())
    if case in _CORRUPT_FIELDS:
        if case == "k-string":  # next to a trace with an int k
            path.with_name("0000_k1_copy.json").write_text(path.read_text())
        fields, expected = _CORRUPT_FIELDS[case]
        rec.update(fields)
        path.write_text(json.dumps({k: v for k, v in rec.items() if v is not _MISSING}))
        return expected
    if case == "truncated":
        path.write_text(path.read_text()[:40])
        return "invalid JSON"
    if case == "no-source":
        path.write_text(json.dumps({"k": 1}))
        return "lacks 'source'"
    if case == "decreasing":
        rec["delays_words"] = [2, 1, 3]
        path.write_text(json.dumps(rec))
        return "non-decreasing"
    rec["delays_words"][-1] = rec["source_total"] + 1
    path.write_text(json.dumps(rec))
    return "exceeds the source length"


@pytest.mark.parametrize("case", ["truncated", "no-source", "decreasing", "past-source",
                                  *_CORRUPT_FIELDS])
def test_evaluate_corrupt_trace_names_the_file(tmp_path, capsys, case):
    code, out_dir, test_set = _simulate_dict(tmp_path, [{"source": "a b c", "target": "A B C"}],
                                             k="1")
    assert code == EXIT_OK
    trace = out_dir / "0000_k1.json"
    expected = _corrupt_trace(trace, case)
    capsys.readouterr()
    code = main(["evaluate", "--traces", str(out_dir), "--references", str(test_set),
                 "--histogram", str(tmp_path / "waits.json")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {trace}: ") and expected in err
    assert len(err.splitlines()) == 1
    if case in _CORRUPT_FIELDS:
        assert err == f"error: {trace}: {expected}\n"


def _evaluate_error(out_dir, test_set, capsys):
    capsys.readouterr()
    code = main(["evaluate", "--traces", str(out_dir), "--references", str(test_set)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and not captured.out
    assert len(captured.err.splitlines()) == 1
    return captured.err


@pytest.mark.parametrize("command, side", [
    ("align", "source"), ("align", "target"), ("simulate", "source"), ("evaluate", "target"),
])
@pytest.mark.parametrize("marker", ["<WAIT>", "<FILLER>"])
def test_a_marker_word_in_an_input_line_is_refused(tmp_path, capsys, command, side, marker):
    # left in, align wrote a corpus its own verify rejected
    pairs = [{"source": "the dog runs", "target": "der hund läuft"},
             {"source": "a cat sleeps", "target": "eine katze schläft"}]
    code, out_dir, test_set = _simulate_dict(tmp_path, pairs, k="1")
    assert code == EXIT_OK
    first, rest = pairs[1][side].split(" ", 1)
    marked = tmp_path / "marked.jsonl"
    write_jsonl(marked, [pairs[0], dict(pairs[1], **{side: f"{first} {marker} {rest}"})])
    argv = {
        "align": ["align", "--input", marked, "--output", tmp_path / "c.jsonl"],
        "simulate": ["simulate", "--input", marked, "--out-dir", tmp_path / "o",
                     "--dict-file", tmp_path / "dict.json"],
        "evaluate": ["evaluate", "--traces", out_dir, "--references", marked],
    }[command]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == f"error: {marked}: line 2: {marker} is a reserved marker, not a word\n"
    assert not (tmp_path / "c.jsonl").exists() and not (tmp_path / "o").exists()


def test_evaluate_prints_nothing_when_a_later_k_group_fails(tmp_path, capsys):
    sentences = [{"source": "a b c", "target": "A B C"}, {"source": "d e f", "target": "D E F"}]
    code, out_dir, test_set = _simulate_dict(tmp_path, sentences)
    assert code == EXIT_OK
    bad = out_dir / "0001_k3.json"
    rec = json.loads(bad.read_text())
    rec["delays_words"][-1] = rec["source_total"] + 1
    bad.write_text(json.dumps(rec))
    err = _evaluate_error(out_dir, test_set, capsys)
    assert err == f"error: {bad}: a delay exceeds the source length\n"


def test_evaluate_refuses_text_and_speech_traces_at_one_k(tmp_path, capsys):
    sentences = [{"source": "a b c", "target": "A B C"}, {"source": "d e f", "target": "D E F"}]
    code, out_dir, test_set = _simulate_dict(tmp_path, sentences)
    assert code == EXIT_OK
    # the k=3 trace of sentence 1 turns speech too: modes may differ across k
    for name in ("0001_k1.json", "0001_k3.json"):
        rec = json.loads((out_dir / name).read_text())
        rec.update(mode="speech", delays_ms=[1000.0, 2000.0, 3000.0], source_total=3000.0)
        del rec["delays_words"]
        (out_dir / name).write_text(json.dumps(rec))
    err = _evaluate_error(out_dir, test_set, capsys)
    odd = out_dir / "0001_k1.json"
    assert err.startswith(f"error: {odd}: a speech trace among the text traces at k=1")
    assert str(out_dir / "0000_k1.json") in err
    # alone at its k, a speech trace is scored in ms next to the text k group
    (out_dir / "0001_k1.json").unlink()
    (out_dir / "0000_k3.json").unlink()
    assert main(["evaluate", "--traces", str(out_dir), "--references", str(test_set)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "(words)" in out.splitlines()[0] and "(ms)" in out.splitlines()[1]


def test_evaluate_refuses_two_traces_of_one_session(tmp_path, capsys):
    sentences = [{"source": "a b c", "target": "A B C"}, {"source": "d e f", "target": "D E F"}]
    code, out_dir, test_set = _simulate_dict(tmp_path, sentences, k="1")
    assert code == EXIT_OK
    copy = out_dir / "0000_k1_copy.json"
    copy.write_text((out_dir / "0000_k1.json").read_text())
    err = _evaluate_error(out_dir, test_set, capsys)
    assert err.startswith(f"error: {copy}: trace id '0000' at k=1 is also in ")
    assert str(out_dir / "0000_k1.json") in err


_NOT_JSON = '{"truncated": '
_WORD_AT_100MS = {"w": "a", "end_ms": 100.0}
_BLANK_SOURCE = json.dumps({"source": "   ", "target": "x"})
_NOT_UTF8 = b"\r\n\xff"  # a bad byte on line 2, after a CRLF line end
_DIRECTORY = object()  # the path is made a directory instead of a file
_GOLDEN_TRACE = json.loads((GOLDEN / "inference_trace.json").read_text(encoding="utf-8"))
_READERS = ["config", "dict", "script", "recording", "transcript", "causal", "alignments",
            "simulate-input", "align-input", "function-words", "trace", "references", "verify"]


@pytest.mark.parametrize("reader, content", [
    ("config", _NOT_JSON),
    ("config", "[1]"),
    ("dict", _NOT_JSON),
    ("dict", '["a"]'),
    ("script", _NOT_JSON),
    ("script", "[1]"),
    ("recording", _NOT_JSON),
    ("recording", json.dumps({**_GOLDEN_TRACE, "events": [{"kind": "jump"}]})),
    ("transcript", _NOT_JSON),
    ("transcript", json.dumps({"words": [{"w": "a"}], "total_ms": 100.0})),
    ("transcript", json.dumps({"words": [_WORD_AT_100MS, _WORD_AT_100MS], "total_ms": 100.0})),
    ("transcript", json.dumps({"words": [], "total_ms": "x"})),
    ("transcript", json.dumps({"words": [], "total_ms": -5})),
    ("transcript", json.dumps({"words": [{"w": 5, "end_ms": 100.0}], "total_ms": 100.0})),
    ("transcript", json.dumps({"words": [{"w": "a b", "end_ms": 100.0}], "total_ms": 100.0})),
    ("transcript", json.dumps({"words": [{"w": "<WAIT>", "end_ms": 100.0}], "total_ms": 100.0})),
    # an infinite total would never end the windowing; a NaN end passes every order check
    ("transcript", '{"words": [{"w": "a", "end_ms": 100}, {"w": "b", "end_ms": Infinity}], '
                   '"total_ms": Infinity}'),
    ("transcript", json.dumps({"words": [{"w": "a", "end_ms": float("nan")}], "total_ms": 100.0})),
    ("transcript", json.dumps({"words": [{"w": "a", "end_ms": True}], "total_ms": 100.0})),
    ("transcript", json.dumps({"words": [{"w": "a", "end_ms": "50"}], "total_ms": 100.0})),
    ("transcript", json.dumps({"words": [], "total_ms": True})),
    ("causal", _NOT_JSON),
    ("alignments", "0-x"),
    ("simulate-input", _BLANK_SOURCE),
    ("align-input", _BLANK_SOURCE),
    ("dict", _DIRECTORY),
    ("align-input", _DIRECTORY),
    ("out-dir", ""),
    *((reader, _NOT_UTF8) for reader in _READERS),
], ids=["config-not-json", "config-list", "dict-not-json", "dict-list", "script-not-json",
        "script-not-lists", "recording-not-json", "recording-bad-event", "transcript-not-json",
        "transcript-no-end", "transcript-not-increasing", "transcript-total-string",
        "transcript-total-negative", "transcript-word-number", "transcript-word-spaced",
        "transcript-word-marker", "transcript-infinite", "transcript-end-nan",
        "transcript-end-bool", "transcript-end-string", "transcript-total-bool",
        "causal-not-json", "alignments-bad-token",
        "simulate-blank-source", "align-blank-source", "dict-directory",
        "align-input-directory", "out-dir-existing-file",
        *(f"{reader}-not-utf8" for reader in _READERS)])
def test_malformed_input_is_one_error_line_naming_the_file(tmp_path, toy_corpus,
                                                           reader, content):
    bad = tmp_path / "bad.json"
    (tmp_path / "audio").mkdir()
    (tmp_path / "traces").mkdir()
    (tmp_path / "recording").mkdir()
    if reader == "transcript":
        bad = tmp_path / "audio" / "0000.json"
    if reader == "recording":
        bad = tmp_path / "recording" / "0000_k1.json"
    if reader == "trace":
        bad = tmp_path / "traces" / "0000_k1.json"
    else:  # one good trace for evaluate to read
        (tmp_path / "traces" / "0000_k1.json").write_bytes(
            (GOLDEN / "inference_trace.json").read_bytes())
    if content is _DIRECTORY:
        bad.mkdir()
    elif isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content)
    test_set = tmp_path / "test.jsonl"
    write_jsonl(test_set, [{"source": "a b", "target": "x y"}])
    simulate = ["simulate", "--input", test_set, "--out-dir", tmp_path / "o"]
    evaluate = ["evaluate", "--traces", tmp_path / "traces", "--references", test_set]
    argv = {
        "config": ["--config", bad, "align", "--input", toy_corpus,
                   "--output", tmp_path / "c.jsonl"],
        "dict": [*simulate, "--backend", "dict", "--dict-file", bad],
        "script": [*simulate, "--backend", "scripted", "--script-file", bad],
        "recording": [*simulate, "--backend", "replay", "--recording", tmp_path / "recording"],
        "transcript": ["simulate", "--input", tmp_path / "audio", "--out-dir", tmp_path / "o",
                       "--mode", "speech", "--backend", "dict",
                       "--dict-file", FIXTURES / "evaluate" / "dict.json"],
        "causal": ["build-dataset", "--input", bad, "--output", tmp_path / "s.jsonl"],
        "alignments": ["align", "--input", test_set, "--output", tmp_path / "c.jsonl",
                       "--alignments", bad],
        "simulate-input": ["simulate", "--input", bad, "--out-dir", tmp_path / "o",
                           "--backend", "dict", "--dict-file", FIXTURES / "evaluate" / "dict.json"],
        "align-input": ["align", "--input", bad, "--output", tmp_path / "c.jsonl"],
        "out-dir": ["simulate", "--input", test_set, "--out-dir", bad, "--backend", "dict",
                    "--dict-file", FIXTURES / "evaluate" / "dict.json"],
        "function-words": [*evaluate, "--histogram", tmp_path / "h.json",
                           "--function-words", bad],
        "trace": evaluate,
        "references": ["evaluate", "--traces", tmp_path / "traces", "--references", bad],
        "verify": ["verify", bad],
    }[reader]
    code, err = run_cli(*argv)
    assert code == EXIT_USAGE
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {bad}: ")
    if content == _NOT_UTF8:
        assert err == f"error: {bad}: line 2: not UTF-8 text (byte 0xff)\n"
    elif content is _DIRECTORY:
        assert err == f"error: {bad}: {os.strerror(errno.EISDIR)}\n"
    elif reader == "out-dir":
        assert err == f"error: {bad}: {os.strerror(errno.EEXIST)}\n"
    elif reader in ("causal", "alignments", "simulate-input", "align-input"):
        assert err.startswith(f"error: {bad}: line 1: ")
    if reader == "transcript":
        assert not (tmp_path / "o").exists()


def test_verify_corrupted_corpus(tmp_path, toy_corpus, capsys):
    causal = tmp_path / "causal.jsonl"
    main(["align", "--input", str(toy_corpus), "--output", str(causal)])
    records = [json.loads(l) for l in causal.read_text().strip().split("\n")]
    records[1]["target"] = [w for w in records[1]["target"] if w != "<WAIT>"]
    write_jsonl(causal, records)
    code = main(["verify", str(causal)])
    out = capsys.readouterr().out
    if code == EXIT_VERIFY:
        assert "pair 2" in out
    else:
        # the toy corpus may align without any waits; force a violation
        records[0]["links"] = [[1, 0]]
        records[0]["target"] = ["x", "y"]
        records[0]["source"] = ["a", "b"]
        write_jsonl(causal, records)
        assert main(["verify", str(causal)]) == EXIT_VERIFY


def test_verify_numbers_records_across_blank_lines(tmp_path, capsys):
    ok = {"source": ["a", "b"], "target": ["x", "y"], "links": [[0, 0], [1, 1]]}
    bad = {"source": ["a", "b"], "target": ["x", "y"], "links": [[1, 0]]}
    path = tmp_path / "causal.jsonl"
    path.write_text("\n".join(["", json.dumps(ok), "", json.dumps(bad), "", json.dumps(ok)]) + "\n")
    assert main(["verify", str(path)]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert f"pair 2 ({path}:4): causality violated" in out
    assert "pair 3" not in out
    assert "verified 3 pairs: 2 ok, 1 violating" in out


def test_verify_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["verify", str(empty)]) == EXIT_OK
    assert "warning" in capsys.readouterr().out


def _replay(test_set, recording, out_dir, *extra):
    """(exit code, trace bytes by file name) of a replay of recording; a
    refused replay makes no out_dir and has no traces."""
    code = main(["simulate", "--input", str(test_set), "--out-dir", str(out_dir),
                 "--backend", "replay", "--recording", str(recording), *map(str, extra)])
    return code, trace_bytes(out_dir) if out_dir.exists() else {}


def test_replay_reproducibility(tmp_path):
    sentences = [{"source": f"p{i} q{i} r{i}", "target": f"P{i} Q{i} R{i}"}
                 for i in range(3)]
    code, recorded, test_set = _simulate_dict(tmp_path, sentences, k="1,2")
    assert code == EXIT_OK
    first = _replay(test_set, recorded, tmp_path / "t1", "--k", "1,2")
    second = _replay(test_set, recorded, tmp_path / "t2", "--k", "1,2")
    assert first == second == (EXIT_OK, trace_bytes(recorded))


def test_record_then_replay_byte_identical(tmp_path):
    # one sentence per way a session ends: end-of-sentence (twice), a script
    # exhausted, an invalid word unit and the engine's livelock guard
    test_set = tmp_path / "test.jsonl"
    write_jsonl(test_set, [{"source": "grüß dich", "target": "hi there"},
                           {"source": "a b c", "target": "x y z"},
                           {"source": "d e", "target": "p"},
                           {"source": "f", "target": "q"},
                           {"source": "g h", "target": "r"}])
    script_file = tmp_path / "script.json"
    script_file.write_text(json.dumps([["<WAIT>", "hallö", "<EOS>"],
                                       ["x", "<WAIT>", "y", "z", "<EOS>"],
                                       ["p"], ["q r"], ["<WAIT>"] * 5]))
    assert main(["simulate", "--input", str(test_set), "--out-dir", str(tmp_path / "rec"),
                 "--k", "1", "--backend", "scripted",
                 "--script-file", str(script_file)]) == EXIT_PARTIAL
    recorded = trace_bytes(tmp_path / "rec")
    assert [json.loads(recorded[name])["error"] for name in sorted(recorded)] == [
        None, None, "script exhausted after 1 units",
        "backend returned invalid word unit 'q r'",
        "backend kept waiting after source exhaustion",
    ]
    assert _replay(test_set, tmp_path / "rec", tmp_path / "rep", "--k", "1") == (
        EXIT_PARTIAL, recorded)


def test_replay_of_a_partial_run_writes_the_same_traces_with_any_workers(tmp_path):
    # two fixture sentences hit an empty dictionary entry, so 4 of 16 sessions fail
    fixture = FIXTURES / "evaluate"
    assert main(["simulate", "--input", str(fixture / "test.jsonl"),
                 "--out-dir", str(tmp_path / "recorded"), "--backend", "dict",
                 "--dict-file", str(fixture / "dict.json"), "--k", "1,3"]) == EXIT_PARTIAL
    recorded = trace_bytes(tmp_path / "recorded")
    assert len(recorded) == 16
    assert sum(b'"finished": false' in trace for trace in recorded.values()) == 4
    for workers in ("1", "4"):
        assert _replay(fixture / "test.jsonl", tmp_path / "recorded", tmp_path / workers,
                       "--k", "1,3", "--workers", workers) == (EXIT_PARTIAL, recorded)


def test_replay_refuses_a_changed_source_word(tmp_path):
    sentences = [{"source": "a b c d", "target": "A B C D"}, {"source": "e f", "target": "E F"}]
    code, recorded, _ = _simulate_dict(tmp_path, sentences, k="1")
    assert code == EXIT_OK
    changed = tmp_path / "changed.jsonl"
    write_jsonl(changed, [{"source": "a b x d", "target": "A B C D"}, sentences[1]])
    code, replayed = _replay(changed, recorded, tmp_path / "rep", "--k", "1")
    assert code == EXIT_PARTIAL
    assert json.loads(replayed["0000_k1.json"])["error"] == (
        "step 3 reveals other source words than the trace")
    assert replayed["0001_k1.json"] == (recorded / "0001_k1.json").read_bytes()


def test_replay_refuses_to_run_past_a_finished_trace(tmp_path):
    code, recorded, test_set = _simulate_dict(tmp_path, [{"source": "a b", "target": "A B"}],
                                              k="1")
    assert code == EXIT_OK
    path = recorded / "0000_k1.json"
    trace = json.loads(path.read_text(encoding="utf-8"))
    assert trace["events"].pop()["kind"] == "eos"
    path.write_text(json.dumps(trace), encoding="utf-8")
    code, replayed = _replay(test_set, recorded, tmp_path / "rep", "--k", "1")
    assert code == EXIT_PARTIAL
    assert json.loads(replayed["0000_k1.json"])["error"] == (
        "step 4 runs past the 3 units of the trace")


def test_replay_at_another_window_serves_the_same_units_at_its_clocks(tmp_path):
    # a speech session reveals one word per read whatever the window; the
    # window sets only the clock stamps, which no prompt holds, so replay
    # gives what the backend itself gives at the new window
    audio = tmp_path / "audio"
    audio.mkdir()
    words = [{"w": w, "end_ms": 100.0 * (n + 1)} for n, w in enumerate("abcdef")]
    write_transcript(TimedTranscript(words=words, total_ms=600.0), audio / "0000.json")
    dict_file = tmp_path / "dict.json"
    dict_file.write_text(json.dumps({w: w.upper() for w in "abcdef"}))

    def simulate(out_dir, *extra):
        assert main(["simulate", "--input", str(audio), "--mode", "speech", "--k", "2",
                     "--out-dir", str(out_dir), *extra]) == EXIT_OK
        return trace_bytes(out_dir)

    at_200 = simulate(tmp_path / "at_200", "--dict-file", str(dict_file), "--window-ms", "200")
    at_100 = simulate(tmp_path / "at_100", "--dict-file", str(dict_file), "--window-ms", "100")
    replayed = simulate(tmp_path / "rep", "--backend", "replay",
                        "--recording", str(tmp_path / "at_200"), "--window-ms", "100")
    assert replayed == at_100 != at_200


def test_replay_refuses_a_second_trace_of_one_session(tmp_path, capsys):
    code, recorded, test_set = _simulate_dict(tmp_path, [{"source": "a b", "target": "A B"}],
                                              k="1")
    assert code == EXIT_OK
    copy = recorded / "0000_k1_copy.json"
    copy.write_bytes((recorded / "0000_k1.json").read_bytes())
    capsys.readouterr()
    assert _replay(test_set, recorded, tmp_path / "rep", "--k", "1") == (EXIT_USAGE, {})
    assert capsys.readouterr().err == (
        f"error: {copy}: trace id '0000' at k=1 is also in {recorded / '0000_k1.json'}\n")
    assert not (tmp_path / "rep").exists()


def _prompts_seen(monkeypatch):
    """The str(prompt) of each scripted backend call that simulate makes."""
    seen = []

    class Watching(ScriptedBackend):
        def next_unit(self, prompt, allow_wait=True):
            seen.append(str(prompt))
            return super().next_unit(prompt, allow_wait)

    monkeypatch.setattr(cli, "ScriptedBackend", Watching)
    return seen


def test_target_language_reaches_samples_meta_and_simulate(tmp_path, monkeypatch):
    # a model fine-tuned on these samples is prompted with the same system message
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"target_language": "Russian"}))
    samples = tmp_path / "samples.jsonl"
    assert main(["--config", str(config), "build-dataset", "--input",
                 str(GOLDEN / "toy_align_causal.jsonl"), "--output", str(samples)]) == EXIT_OK
    first = json.loads(samples.read_text(encoding="utf-8").splitlines()[0])
    sys_block = first["prompt"].split("<<SYS>>\n\n", 1)[1].split("\n<</SYS>>", 1)[0]
    meta = json.loads((tmp_path / "samples.jsonl.meta.json").read_text(encoding="utf-8"))
    assert sys_block == meta["system_message"]
    assert "into Russian" in sys_block

    test_set = tmp_path / "test.jsonl"
    write_jsonl(test_set, [{"source": "grüß dich", "target": "hi there"}])
    script_file = tmp_path / "script.json"
    script_file.write_text(json.dumps([["<WAIT>", "hallö", "<EOS>"]]))
    prompts = _prompts_seen(monkeypatch)
    assert main(["--config", str(config), "simulate", "--input", str(test_set),
                 "--out-dir", str(tmp_path / "traces"), "--k", "1",
                 "--backend", "scripted", "--script-file", str(script_file)]) == EXIT_OK
    assert prompts[0] == build_prompt(["grüß"], [], sys_block)


def test_simulate_target_language_flag_beats_config(tmp_path, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"target_language": "Russian"}))
    test_set = tmp_path / "test.jsonl"
    write_jsonl(test_set, [{"source": "a", "target": "x"}])
    script_file = tmp_path / "script.json"
    script_file.write_text(json.dumps([["x", "<EOS>"]]))
    prompts = _prompts_seen(monkeypatch)
    assert main(["--config", str(config), "simulate", "--input", str(test_set),
                 "--out-dir", str(tmp_path / "traces"), "--k", "1",
                 "--backend", "scripted", "--script-file", str(script_file),
                 "--target-language", "French"]) == EXIT_OK
    assert prompts[0] == build_prompt(["a"], [], interpreter_system_message("French"))


# what a command that runs no aligner, BLEU, metrics or sampling code, no http
# backend and one worker has no use for: numpy and the http client's stack
_HEAVY = ("numpy", "http.client", "ssl", "email.parser", "concurrent.futures")


def _heavy_modules_after(code):
    """The _HEAVY modules a fresh interpreter has loaded once code has run."""
    src = Path(simtrans.__file__).resolve().parents[1]
    probe = (f"{code}\nimport sys\n"
             f"print('loaded:', *(m for m in {_HEAVY!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()  # after what the command printed
    assert last[0] == "loaded:", proc.stdout
    return last[1:]


def test_cli_imports_without_requests():
    code = "import sys; sys.modules['requests'] = None; import simtrans.cli"
    assert _heavy_modules_after(code) == []
    assert _heavy_modules_after("import simtrans") == []


def _main_code(argv, expected):
    return (f"from simtrans.cli import main\n"
            f"assert main({list(map(str, argv))!r}) == {expected}")


@pytest.mark.parametrize("name", ["verify", "dict", "scripted", "replay", "help"])
def test_a_command_loads_only_the_layers_it_runs(tmp_path, name):
    test_set = FIXTURES / "evaluate" / "test.jsonl"
    script = tmp_path / "script.json"
    script.write_text(json.dumps([["x", "<EOS>"]] * 8))
    simulate = ["simulate", "--input", test_set, "--out-dir", tmp_path / "traces", "--k", "1,3"]
    argv, expected = {
        "verify": (["verify", GOLDEN / "fixture_align_causal.jsonl"], EXIT_OK),
        # two fixture sentences fail on purpose; see the golden traces
        "dict": ([*simulate, "--dict-file", FIXTURES / "evaluate" / "dict.json"], EXIT_PARTIAL),
        "scripted": ([*simulate, "--backend", "scripted", "--script-file", script], EXIT_OK),
        "replay": ([*simulate, "--backend", "replay", "--recording", GOLDEN / "fixture_traces"],
                   EXIT_PARTIAL),
        "help": (["--help"], EXIT_OK),
    }[name]
    assert _heavy_modules_after(_main_code(argv, expected)) == []


def test_the_http_backend_loads_the_http_client_without_numpy(tmp_path):
    test_set = tmp_path / "test.jsonl"
    write_jsonl(test_set, [{"source": "a", "target": "x"}])
    # nothing listens on port 9 of the loopback: the one session fails
    argv = ["simulate", "--input", test_set, "--out-dir", tmp_path / "traces",
            "--backend", "http", "--endpoint", "http://127.0.0.1:9/v1", "--retries", "0"]
    loaded = _heavy_modules_after(_main_code(argv, EXIT_PARTIAL))
    assert "http.client" in loaded and "numpy" not in loaded


def test_every_public_name_resolves_and_is_listed():
    assert simtrans.__all__
    for name in simtrans.__all__:
        getattr(simtrans, name)
        assert name in dir(simtrans)
    with pytest.raises(AttributeError):
        simtrans.no_such_name


# public names that no module of the package uses, each kept on purpose
_UNCALLED_EXPORTS = {
    "corpus_bleu": "the BLEU acceptance criterion scores its fixture corpora with it",
}


def test_every_public_name_is_used_by_the_package():
    # a public name the pipeline never reaches is code only tests keep alive
    used = set()
    for path in Path(simtrans.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    uncalled = {name for name in simtrans.__all__ if name != "__version__" and name not in used}
    assert uncalled == set(_UNCALLED_EXPORTS)


def test_config_precedence(tmp_path, toy_corpus, monkeypatch):
    # flags > config file > environment > defaults, probed through an int
    # (seed) and a string (target_language) in the samples build-dataset
    # writes, and a float (window_ms) in the speech trace simulate writes
    causal = tmp_path / "causal.jsonl"
    main(["align", "--input", str(toy_corpus), "--output", str(causal)])
    audio = tmp_path / "audio"
    audio.mkdir()
    words = [{"w": w, "end_ms": 100.0 * (n + 1)} for n, w in enumerate("abcdef")]
    write_transcript(TimedTranscript(words=words, total_ms=600.0), audio / "0000.json")
    dict_file = tmp_path / "dict.json"
    dict_file.write_text(json.dumps({w: w.upper() for w in "abcdef"}))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 7, "target_language": "Russian", "window_ms": 250}))
    runs = itertools.count()

    def outputs(*config_flag, build=(), simulate=()):
        """(samples, speech trace) of one build-dataset and one simulate run."""
        out = tmp_path / f"run{next(runs)}"
        assert main([*config_flag, "simulate", "--input", str(audio), "--mode", "speech",
                     "--out-dir", str(out), "--dict-file", str(dict_file), *simulate]) == EXIT_OK
        assert main([*config_flag, "build-dataset", "--input", str(causal),
                     "--output", str(out / "samples.jsonl"), *build]) == EXIT_OK
        return (out / "samples.jsonl").read_bytes(), (out / "0000_k1.json").read_bytes()

    by_default = outputs()                                   # seed 0, German, 200 ms
    by_flags = outputs(build=["--seed", "5", "--target-language", "French"],
                       simulate=["--window-ms", "100"])
    like_config = outputs(build=["--seed", "7", "--target-language", "Russian"],
                          simulate=["--window-ms", "250"])
    for default, flagged, configured in zip(by_default, by_flags, like_config):
        assert len({default, flagged, configured}) == 3

    monkeypatch.setenv("SIMTRANS_SEED", "5")
    monkeypatch.setenv("SIMTRANS_TARGET_LANGUAGE", "French")
    monkeypatch.setenv("SIMTRANS_WINDOW_MS", "100")
    assert outputs() == by_flags                                 # env beats default
    assert outputs("--config", str(config)) == like_config       # config beats env
    assert outputs("--config", str(config),                      # flag beats config and env
                   build=["--seed", "0", "--target-language", "German"],
                   simulate=["--window-ms", "200"]) == by_default


def test_usage_error_exit_code():
    assert main(["simulate", "--backend", "bogus"]) == EXIT_USAGE
    assert main(["not-a-command"]) == EXIT_USAGE


def test_a_write_that_fails_leaves_no_temporary_file(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        cli._atomic_write(tmp_path / "0000_k1.json", "\ud800")
    assert list(tmp_path.iterdir()) == []
