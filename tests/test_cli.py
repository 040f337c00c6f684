import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simtrans
from simtrans.cli import EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, EXIT_VERIFY, main
from simtrans.prompt import build_prompt, interpreter_system_message

from conftest import FIXTURES, GOLDEN


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


def test_align_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    code = main(["align", "--input", str(missing), "--output", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert str(missing) in capsys.readouterr().err


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


def test_evaluate_matches_golden(tmp_path):
    # golden files written by the string-rescoring evaluate that preceded
    # per-sentence statistics; the fixture has an empty hypothesis (sentence
    # 2), a truncated session (5), a short hypothesis (7) and a repeated
    # reference (0 and 6)
    fixture = FIXTURES / "evaluate"
    out_dir = tmp_path / "traces"
    assert main(["simulate", "--input", str(fixture / "test.jsonl"), "--out-dir", str(out_dir),
                 "--backend", "dict", "--dict-file", str(fixture / "dict.json"),
                 "--k", "1,3"]) == EXIT_PARTIAL
    report, curve = tmp_path / "report.json", tmp_path / "curve.csv"
    assert main(["evaluate", "--traces", str(out_dir), "--references", str(fixture / "test.jsonl"),
                 "--report", str(report), "--curve", str(curve),
                 "--histogram", str(tmp_path / "waits.json"),
                 "--bootstrap", "20", "--seed", "3"]) == EXIT_OK
    assert report.read_bytes() == (GOLDEN / "evaluate_report.json").read_bytes()
    assert curve.read_bytes() == (GOLDEN / "evaluate_curve.csv").read_bytes()


def run_cli(*argv):
    """Run the CLI in a fresh interpreter, as a user would; (exit code, stderr)."""
    src = Path(simtrans.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "simtrans.cli", *map(str, argv)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("flag, value, command", [
    ("k", "0", "simulate"),
    ("k", "two", "simulate"),
    ("retries", "-1", "simulate-http"),
    ("timeout-ms", "0", "simulate-http"),
    ("window-ms", "0", "simulate"),
    ("bootstrap", "-1", "evaluate"),
    ("iterations", "0", "align"),
    ("samples-per-pair", "0", "build-dataset"),
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


def _corrupt_trace(path, case):
    rec = json.loads(path.read_text())
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


@pytest.mark.parametrize("case", ["truncated", "no-source", "decreasing", "past-source"])
def test_evaluate_corrupt_trace_names_the_file(tmp_path, capsys, case):
    code, out_dir, test_set = _simulate_dict(tmp_path, [{"source": "a b c", "target": "A B C"}],
                                             k="1")
    assert code == EXIT_OK
    trace = out_dir / "0000_k1.json"
    expected = _corrupt_trace(trace, case)
    capsys.readouterr()
    code = main(["evaluate", "--traces", str(out_dir), "--references", str(test_set)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {trace}: ") and expected in err
    assert len(err.splitlines()) == 1


_NOT_JSON = '{"truncated": '
_WORD_AT_100MS = {"w": "a", "end_ms": 100.0}


@pytest.mark.parametrize("reader, content", [
    ("config", _NOT_JSON),
    ("config", "[1]"),
    ("dict", _NOT_JSON),
    ("dict", '["a"]'),
    ("script", _NOT_JSON),
    ("script", "[1]"),
    ("recording", _NOT_JSON),
    ("recording", '{"x": 1}'),
    ("transcript", _NOT_JSON),
    ("transcript", json.dumps({"words": [{"w": "a"}], "total_ms": 100.0})),
    ("transcript", json.dumps({"words": [_WORD_AT_100MS, _WORD_AT_100MS], "total_ms": 100.0})),
    ("causal", _NOT_JSON),
    ("alignments", "0-x"),
], ids=["config-not-json", "config-list", "dict-not-json", "dict-list", "script-not-json",
        "script-not-lists", "recording-not-json", "recording-no-hash", "transcript-not-json",
        "transcript-no-end", "transcript-not-increasing", "causal-not-json",
        "alignments-bad-token"])
def test_malformed_input_is_one_error_line_naming_the_file(tmp_path, toy_corpus,
                                                           reader, content):
    bad = tmp_path / "bad.json"
    if reader == "transcript":
        (tmp_path / "audio").mkdir()
        bad = tmp_path / "audio" / "0000.json"
    bad.write_text(content)
    test_set = tmp_path / "test.jsonl"
    write_jsonl(test_set, [{"source": "a b", "target": "x y"}])
    simulate = ["simulate", "--input", test_set, "--out-dir", tmp_path / "o"]
    argv = {
        "config": ["--config", bad, "align", "--input", toy_corpus,
                   "--output", tmp_path / "c.jsonl"],
        "dict": [*simulate, "--backend", "dict", "--dict-file", bad],
        "script": [*simulate, "--backend", "scripted", "--script-file", bad],
        "recording": [*simulate, "--backend", "replay", "--recording", bad],
        "transcript": ["simulate", "--input", tmp_path / "audio", "--out-dir", tmp_path / "o",
                       "--mode", "speech", "--backend", "dict",
                       "--dict-file", FIXTURES / "evaluate" / "dict.json"],
        "causal": ["build-dataset", "--input", bad, "--output", tmp_path / "s.jsonl"],
        "alignments": ["align", "--input", test_set, "--output", tmp_path / "c.jsonl",
                       "--alignments", bad],
    }[reader]
    code, err = run_cli(*argv)
    assert code == EXIT_USAGE
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {bad}: ")
    if reader in ("causal", "alignments"):
        assert err.startswith(f"error: {bad}: line 1: ")


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


def test_replay_reproducibility(tmp_path):
    sentences = [{"source": f"p{i} q{i} r{i}", "target": f"P{i} Q{i} R{i}"}
                 for i in range(3)]
    test_set = tmp_path / "test.jsonl"
    write_jsonl(test_set, sentences)
    mapping = {w: w.upper() for rec in sentences for w in rec["source"].split()}
    dict_file = tmp_path / "dict.json"
    dict_file.write_text(json.dumps(mapping))
    recording = tmp_path / "rec.jsonl"

    assert main(["simulate", "--input", str(test_set), "--out-dir",
                 str(tmp_path / "t0"), "--backend", "dict", "--dict-file",
                 str(dict_file), "--k", "1,2", "--record", str(recording)]) == EXIT_OK

    def replay(out_dir):
        assert main(["simulate", "--input", str(test_set), "--out-dir", str(out_dir),
                     "--backend", "replay", "--recording", str(recording),
                     "--k", "1,2"]) == EXIT_OK
        return {p.name: p.read_bytes() for p in Path(out_dir).glob("*.json")}

    first = replay(tmp_path / "t1")
    second = replay(tmp_path / "t2")
    assert first == second
    assert first == {p.name: p.read_bytes() for p in (tmp_path / "t0").glob("*.json")}


def test_record_then_replay_byte_identical(tmp_path):
    test_set = tmp_path / "test.jsonl"
    write_jsonl(test_set, [{"source": "grüß dich", "target": "hi there"},
                           {"source": "a b c", "target": "x y z"}])
    script_file = tmp_path / "script.json"
    script_file.write_text(json.dumps([["<WAIT>", "hallö", "<EOS>"],
                                       ["x", "<WAIT>", "y", "z", "<EOS>"]]))
    recording = tmp_path / "rec.jsonl"
    recording.write_text("stale line from an earlier run\n")

    def simulate(out_dir, *backend):
        assert main(["simulate", "--input", str(test_set), "--out-dir", str(out_dir),
                     "--k", "1", *backend]) == EXIT_OK
        return {p.name: p.read_bytes() for p in out_dir.glob("*.json")}

    recorded = simulate(tmp_path / "rec", "--backend", "scripted", "--script-file",
                        str(script_file), "--record", str(recording))
    replayed = simulate(tmp_path / "rep", "--backend", "replay", "--recording", str(recording))
    assert len(recorded) == 2 and replayed == recorded

    # one line per backend call, in call order, the prompt hashed
    system = interpreter_system_message()
    calls = [
        ((["grüß"], []), "<WAIT>"), ((["grüß", "dich"], []), "hallö"),
        ((["grüß", "dich"], ["hallö"]), "<EOS>"),
        ((["a"], []), "x"), ((["a", "b"], ["x"]), "<WAIT>"),
        ((["a", "b", "c"], ["x"]), "y"), ((["a", "b", "c"], ["x", "y"]), "z"),
        ((["a", "b", "c"], ["x", "y", "z"]), "<EOS>"),
    ]
    expected = "".join(
        '{"prompt_sha256": "%s", "unit": "%s"}\n'
        % (hashlib.sha256(build_prompt(src, tgt, system).encode()).hexdigest(), unit)
        for (src, tgt), unit in calls
    )
    assert recording.read_text(encoding="utf-8") == expected


def test_target_language_reaches_samples_meta_and_simulate(tmp_path):
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
    recording = tmp_path / "rec.jsonl"
    assert main(["--config", str(config), "simulate", "--input", str(test_set),
                 "--out-dir", str(tmp_path / "traces"), "--k", "1",
                 "--backend", "scripted", "--script-file", str(script_file),
                 "--record", str(recording)]) == EXIT_OK
    first_call = json.loads(recording.read_text(encoding="utf-8").splitlines()[0])
    prompt = build_prompt(["grüß"], [], sys_block)
    assert first_call["prompt_sha256"] == hashlib.sha256(prompt.encode()).hexdigest()


def test_simulate_target_language_flag_beats_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"target_language": "Russian"}))
    test_set = tmp_path / "test.jsonl"
    write_jsonl(test_set, [{"source": "a", "target": "x"}])
    script_file = tmp_path / "script.json"
    script_file.write_text(json.dumps([["x", "<EOS>"]]))
    recording = tmp_path / "rec.jsonl"
    assert main(["--config", str(config), "simulate", "--input", str(test_set),
                 "--out-dir", str(tmp_path / "traces"), "--k", "1",
                 "--backend", "scripted", "--script-file", str(script_file),
                 "--record", str(recording), "--target-language", "French"]) == EXIT_OK
    first_call = json.loads(recording.read_text(encoding="utf-8").splitlines()[0])
    prompt = build_prompt(["a"], [], interpreter_system_message("French"))
    assert first_call["prompt_sha256"] == hashlib.sha256(prompt.encode()).hexdigest()


def test_cli_imports_without_requests():
    src = Path(simtrans.__file__).resolve().parents[1]
    code = "import sys; sys.modules['requests'] = None; import simtrans.cli"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


def test_config_precedence(tmp_path, toy_corpus, monkeypatch):
    # flags > config file > environment > defaults, probed via the seed
    causal = tmp_path / "causal.jsonl"
    main(["align", "--input", str(toy_corpus), "--output", str(causal)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))

    def build(out, *argv):
        assert main([*argv, "build-dataset", "--input", str(causal),
                     "--output", str(out)]) == EXIT_OK
        return out.read_bytes()

    by_default = build(tmp_path / "o_default.jsonl")                   # seed 0
    by_flag5 = build(tmp_path / "o_flag5.jsonl")  # placeholder overwritten below
    assert main(["build-dataset", "--input", str(causal),
                 "--output", str(tmp_path / "o_flag5.jsonl"), "--seed", "5"]) == EXIT_OK
    by_flag5 = (tmp_path / "o_flag5.jsonl").read_bytes()
    by_flag7 = build(tmp_path / "o_flag7.jsonl")
    assert main(["build-dataset", "--input", str(causal),
                 "--output", str(tmp_path / "o_flag7.jsonl"), "--seed", "7"]) == EXIT_OK
    by_flag7 = (tmp_path / "o_flag7.jsonl").read_bytes()
    assert by_flag5 != by_default and by_flag7 != by_flag5

    monkeypatch.setenv("SIMTRANS_SEED", "5")
    assert build(tmp_path / "o_env.jsonl") == by_flag5                 # env beats default
    assert build(tmp_path / "o_cfg.jsonl", "--config", str(cfg)) == by_flag7  # cfg beats env
    flagged = tmp_path / "o_flag_wins.jsonl"
    assert main(["--config", str(cfg), "build-dataset", "--input", str(causal),
                 "--output", str(flagged), "--seed", "0"]) == EXIT_OK
    assert flagged.read_bytes() == by_default                          # flag beats cfg+env


def test_usage_error_exit_code():
    assert main(["simulate", "--backend", "bogus"]) == EXIT_USAGE
    assert main(["not-a-command"]) == EXIT_USAGE
