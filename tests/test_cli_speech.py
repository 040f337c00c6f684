import json

import pytest

from simtrans.cli import EXIT_OK, main
from simtrans.streams import TimedTranscript, write_transcript

from conftest import FIXTURES, GOLDEN, trace_bytes


@pytest.fixture
def speech_setup(tmp_path):
    # four words per utterance, 300 ms apart, identity-uppercase dictionary
    transcripts_dir = tmp_path / "audio"
    transcripts_dir.mkdir()
    refs = []
    mapping = {}
    for i in range(3):
        words = [f"u{i}w{j}" for j in range(4)]
        for w in words:
            mapping[w] = w.upper()
        target = " ".join(w.upper() for w in words)
        refs.append({"source": " ".join(words), "target": target})
        transcript = TimedTranscript(
            words=[{"w": w, "end_ms": 300.0 * (j + 1)} for j, w in enumerate(words)],
            total_ms=1200.0,
            reference=target,
        )
        write_transcript(transcript, transcripts_dir / f"{i:04d}.json")
    refs_path = tmp_path / "refs.jsonl"
    refs_path.write_text("\n".join(json.dumps(r) for r in refs) + "\n")
    dict_file = tmp_path / "dict.json"
    dict_file.write_text(json.dumps(mapping))
    return transcripts_dir, refs_path, dict_file


def test_speech_mode_end_to_end(tmp_path, speech_setup):
    transcripts_dir, refs_path, dict_file = speech_setup
    out_dir = tmp_path / "traces"
    assert main(["simulate", "--input", str(transcripts_dir), "--out-dir", str(out_dir),
                 "--mode", "speech", "--backend", "dict", "--dict-file", str(dict_file),
                 "--k", "1", "--window-ms", "200", "--wall-clock"]) == EXIT_OK
    traces = sorted(out_dir.glob("*.json"))
    assert len(traces) == 3
    rec = json.loads(traces[0].read_text())
    assert rec["mode"] == "speech"
    assert "delays_ms" in rec
    assert all(g <= rec["source_total"] for g in rec["delays_ms"])
    assert rec["processing_ms"] is not None

    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--traces", str(out_dir), "--references", str(refs_path),
                 "--report", str(report_path)]) == EXIT_OK
    report = json.loads(report_path.read_text())["reports"]["1"]
    assert report["unit"] == "ms"
    assert report["rtf"] is not None and report["rtf"] > 0
    assert report["al"] > 0


def test_worker_pool_output_deterministic(tmp_path):
    sentences = [{"source": f"a{i} b{i} c{i} d{i}", "target": f"A{i} B{i} C{i} D{i}"}
                 for i in range(6)]
    test_set = tmp_path / "test.jsonl"
    test_set.write_text("\n".join(json.dumps(s) for s in sentences) + "\n")
    mapping = {w: w.upper() for s in sentences for w in s["source"].split()}
    dict_file = tmp_path / "dict.json"
    dict_file.write_text(json.dumps(mapping))

    outputs = []
    for name, workers in (("w1", "1"), ("w4", "4")):
        out_dir = tmp_path / name
        assert main(["simulate", "--input", str(test_set), "--out-dir", str(out_dir),
                     "--backend", "dict", "--dict-file", str(dict_file),
                     "--k", "1,2", "--workers", workers]) == EXIT_OK
        outputs.append(trace_bytes(out_dir))
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == 12


@pytest.mark.parametrize("mode", ["text", "speech"])
def test_wall_clock_only_adds_stamps(tmp_path, capsys, speech_setup, mode):
    transcripts_dir, refs_path, dict_file = speech_setup
    source = ["--input", str(refs_path)] if mode == "text" else [
        "--input", str(transcripts_dir), "--mode", "speech"]
    runs = {}
    scored = {}
    for name, extra in (("plain", []), ("timed", ["--wall-clock"])):
        out_dir = tmp_path / name
        assert main(["simulate", *source, "--out-dir", str(out_dir), "--backend", "dict",
                     "--dict-file", str(dict_file), "--k", "1,2", *extra]) == EXIT_OK
        runs[name] = trace_bytes(out_dir)
        # evaluate scores, resamples and counts the waits of the stamped events alike
        waits, report = tmp_path / f"{name}_waits.json", tmp_path / f"{name}_report.json"
        capsys.readouterr()
        assert main(["evaluate", "--traces", str(out_dir), "--references", str(refs_path),
                     "--histogram", str(waits), "--report", str(report),
                     "--bootstrap", "5"]) == EXIT_OK
        scored[name] = capsys.readouterr().out, waits.read_bytes()
        assert json.loads(report.read_text())["bootstrap"]["2"]["resamples"] == 5
    assert scored["timed"] == scored["plain"]
    assert len(runs["timed"]) == 6 and runs["timed"].keys() == runs["plain"].keys()
    for name, text in runs["timed"].items():
        rec = json.loads(text)
        stamps = [event["wall_ms"] for event in rec["events"]]
        assert all(list(event)[-1] == "wall_ms" for event in rec["events"])
        assert stamps == sorted(stamps)
        assert rec.pop("processing_ms") >= stamps[-1]
        for event in rec["events"]:
            del event["wall_ms"]
        assert (json.dumps(rec, ensure_ascii=False) + "\n").encode() == runs["plain"][name]


def test_speech_trace_matches_golden(tmp_path):
    # a 33.3 ms window accumulates float error into every clock, and the
    # words hold quotes, a backslash and non-ASCII letters
    fixture = FIXTURES / "speech"
    out_dir = tmp_path / "traces"
    assert main(["simulate", "--input", str(fixture / "talk"), "--out-dir", str(out_dir),
                 "--mode", "speech", "--backend", "dict", "--dict-file", str(fixture / "dict.json"),
                 "--lookahead", "1", "--k", "2", "--window-ms", "33.3"]) == EXIT_OK
    assert [p.name for p in out_dir.iterdir()] == ["0000_k2.json"]
    assert ((out_dir / "0000_k2.json").read_bytes()
            == (GOLDEN / "fixture_speech_trace.json").read_bytes())
