"""Self-test of the benchmark harness at tiny sizes, with no timing bounds.

It checks that every workload still runs, passes its correctness checks and
reports exactly the metrics BENCHMARK.json declares, and that the checks
catch a wrong answer. Run from the checkout root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stub_server  # noqa: E402

TINY = {
    "prep": {"pairs": 60, "iterations": 3, "samples_per_pair": 2},
    "stream": {
        "local": {"sentences": 4, "k": "1,3", "talk_words": [40, 60], "talk_k": 3,
                  "bootstrap": 2},
        "http": {"sentences": 6, "k": 3},
    },
}

PROGRAM = run.load_program()


def declared(section):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def tiny_run(workload, trace=0, seed=3):
    result, _ = run.run_workload(workload, seed, 0, trace, sizes=TINY[workload], program=PROGRAM)
    return result


def test_workload_names_match_declaration():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = {w["name"] for w in json.load(fh)["workloads"]}
    assert names == set(run.WORKLOADS) == set(TINY)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_declared_metrics(workload, trace):
    result = tiny_run(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared("per_layer" if trace else "end_to_end")
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["prep", "stream"])
def test_same_seed_same_quality(workload):
    first = tiny_run(workload, seed=5)["metrics"]["quality_score"]["value"]
    second = tiny_run(workload, seed=5)["metrics"]["quality_score"]["value"]
    assert first == second


def test_wrong_translation_fails_the_run(monkeypatch):
    original = PROGRAM.backends.DictionaryBackend.next_unit

    def off_by_one(self, prompt, allow_wait=True):
        unit = original(self, prompt, allow_wait)
        return unit + "x" if isinstance(unit, str) else unit

    monkeypatch.setattr(PROGRAM.backends.DictionaryBackend, "next_unit", off_by_one)
    with pytest.raises(run.CheckFailed, match="hypothesis differs"):
        tiny_run("stream")


def test_stub_answers_like_the_dictionary_backend():
    mapping = {"a": "x", "b": "y"}
    backend = PROGRAM.backends.DictionaryBackend(mapping)
    build = PROGRAM.package.build_prompt
    for source in (["a"], ["a", "b", "c"]):
        for done in range(len(source) + 1):
            target = [mapping.get(w, w) for w in source[:done]]
            for allow_wait in (True, False):
                prompt = build(source, target, "system")
                stop = [" ", "<WAIT>"] if allow_wait else [" "]
                text, finish = stub_server.complete(mapping, prompt, stop)
                unit = backend.next_unit(prompt, allow_wait=allow_wait)
                expected = {"<WAIT>": "<WAIT>", "<EOS>": ""}.get(getattr(unit, "value", unit), unit)
                assert (text, finish) == (expected, "stop")


def test_exits_nonzero_without_the_program():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "prep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", str(Path(__file__))]))
