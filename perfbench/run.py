#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the simtrans command-line pipeline.

    python3 perfbench/run.py --workload prep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` there, and everything the run writes goes under ``.perfbench/``.
The seed makes the inputs (see gen.py); the program only sees the generated
files. The CLI is driven in-process through ``simtrans.cli.main``, one pass
of the workload's command sequence after another, until ``--seconds`` are
used up; every pass is checked for correct output.

Workloads:
  prep    align (EM, 15 iterations) -> verify -> build-dataset on a corpus
          of short sentence pairs.
  stream  the local part: text simulate (k=1,3,5, 20..400-word sentences)
          and speech simulate (talk-length timed transcripts, 200 ms
          windows) with the dict backend, then evaluate with bootstrap,
          curve and histogram; then the http part: text simulate with the
          http backend against a loopback stub server process (one worker,
          short sentences, k=3), then evaluate without bootstrap.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}. --trace 0 reports the end-to-end metrics, measured without
tracing; --trace 1 alternates untraced and traced passes and reports the
per-layer metrics (see README.md). A failed correctness check prints
correct=false and exits 1; a missing program exits 2 without a result.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import types
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from tracer import Tracer, add_simtrans_layers  # noqa: E402

SETUP_REPEATS = 7

# The seed handed to the program's own sampling (build-dataset cut points,
# evaluate resamples). It is fixed so that every benchmark seed asks for the
# same amount of work; the benchmark seed still makes all the inputs.
PROGRAM_SEED = 1

# Sized so that no CLI stage takes much over half a second on a 2-vCPU VM,
# which gives a run dozens of passes to average over.
SIZES = {
    "prep": {"pairs": 250, "iterations": 15, "samples_per_pair": 2},
    "stream": {
        "local": {"sentences": 24, "k": "1,3,5", "talk_words": [1500], "talk_k": 3,
                  "bootstrap": 2},
        "http": {"sentences": 24, "k": 3},
    },
}


class CheckFailed(Exception):
    """The program produced a wrong output or exit code."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def load_program():
    """Import simtrans from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "simtrans" / "cli.py").is_file():
        raise ImportError(f"no simtrans sources under {src}")
    sys.path.insert(0, str(src))
    import simtrans
    from simtrans import _kernels, aligner, backends, bleu, causal, cli, engine, metrics, sft, streams

    if Path(simtrans.__file__).resolve().parent != (src / "simtrans").resolve():
        raise ImportError(f"simtrans imported from {simtrans.__file__}, not {src}")
    return types.SimpleNamespace(
        package=simtrans, kernels=_kernels, aligner=aligner, backends=backends, bleu=bleu,
        causal=causal, cli=cli, engine=engine, metrics=metrics, sft=sft, streams=streams,
    )


def median(values):
    return statistics.median(values) if values else 0.0


def trimmed_mean(values, cut=0.1):
    """Mean of the values left after dropping the lowest and highest cut share."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


def stage_means(passes):
    """Each CLI stage's 10% trimmed mean time over the passes, in seconds.

    Other work on a shared host slows every stage in phases of seconds to
    minutes. A mean weighs slow and fast phases by their share of the run,
    where a median jumps from one phase's level to the other's as that share
    crosses one half; trimming keeps a single stalled pass out.
    """
    return {name: trimmed_mean([p["stages"][name] for p in passes])
            for name in passes[0]["stages"]}


def stage_rate(passes, times, key):
    """Items per second over the stages a pass lists under key."""
    items, stages = passes[0]["items"][key]
    return items / sum(times[name] for name in stages)


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def read_traces(directory):
    out = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            out.append((name, json.load(fh)))
    return out


class Cli:
    """Runs simtrans.cli.main in-process and times it; stdout goes to error messages."""

    def __init__(self, program, tracer):
        self.program = program
        self.tracer = tracer
        self.tracing = False
        self.attempted = 0
        self.failed = 0

    def __call__(self, *argv):
        argv = [str(a) for a in argv]
        buf = io.StringIO()
        gc.collect()  # start like a fresh process, without earlier commands' garbage
        if self.tracing:
            self.tracer.install()
        try:
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                code = self.program.cli.main(argv)
                elapsed = time.perf_counter() - t0
        except Exception as exc:
            # a crash is a wrong output: count it and keep the traceback
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            raise CheckFailed(f"simtrans {argv[0]} raised {exc!r}") from exc
        finally:
            if self.tracing:
                self.tracer.uninstall()
        self.attempted += 1
        if code != 0:
            self.failed += 1
            raise CheckFailed(f"simtrans {argv[0]} exited {code}: {buf.getvalue()[-400:]}")
        return elapsed

    def sessions(self, traces):
        """Count sessions as attempted operations; unfinished ones as failed."""
        self.attempted += len(traces)
        bad = [name for name, t in traces if not t.get("finished") or t.get("error")]
        self.failed += len(bad)
        check(not bad, f"{len(bad)} sessions did not finish, first {bad[:1]}")


def check_hypotheses(traces, expected, what):
    for name, trace in traces:
        idx = int(name.split("_")[0])
        check(trace["hypothesis"] == expected[idx],
              f"{what} {name}: hypothesis differs from the word-for-word translation")


def check_al_equals_k(report_path):
    with open(report_path, encoding="utf-8") as fh:
        reports = json.load(fh)["reports"]
    for k, rep in reports.items():
        check(abs(rep["al"] - int(k)) < 1e-9, f"AL {rep['al']} != k={k}")
    bleus = {rep["bleu"] for rep in reports.values()}
    check(len(bleus) == 1, f"BLEU differs between k values: {sorted(bleus)}")
    return bleus.pop()


def count_events(traces):
    return sum(len(t["events"]) for _, t in traces)


def causal_corpus_aer(causal_path, pairs):
    """Check every causal record independently of `verify`; return its AER.

    AER is against the generator's gold links, with sure = possible = gold.
    """
    found = gold = hits = records = 0
    with open(causal_path, encoding="utf-8") as fh:
        for line, pair in zip(fh, pairs):
            rec = json.loads(line)
            records += 1
            check(len(rec["source"]) == len(rec["target"]), f"record {records}: lengths differ")
            check([w for w in rec["source"] if w != "<FILLER>"] == pair.source,
                  f"record {records}: source words changed")
            check([w for w in rec["target"] if w != "<WAIT>"] == pair.target,
                  f"record {records}: target words changed")
            position = [j for j, w in enumerate(rec["target"]) if w != "<WAIT>"]
            links = {(i, j) for i, j in rec["links"]}
            check(all(position[j] >= i for i, j in links), f"record {records}: not causal")
            found += len(links)
            gold += len(pair.gold)
            hits += len(links & pair.gold)
    check(records == len(pairs), f"{records} causal records for {len(pairs)} pairs")
    return 1.0 - 2.0 * hits / (found + gold)


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ------------------------------------------------------------------ workloads

class Workload:
    """One input set and the CLI sequence a pass runs over it."""

    def __init__(self, seed, sizes):
        self.seed = seed
        self.sizes = sizes
        self.dir = None
        self.first = None   # per-pass values that must repeat exactly

    def generate(self, directory):
        raise NotImplementedError

    def start_services(self):
        pass

    def stop_services(self):
        pass

    def run_pass(self, cli, tracer):
        raise NotImplementedError

    def finish(self, cli):
        pass

    def same_as_first(self, values):
        if self.first is None:
            self.first = values
        check(values == self.first, f"outputs changed between passes: {values} != {self.first}")

    def lexicon(self):
        return gen.make_lexicon(gen.new_rng(self.seed, "lexicon"))

    def path(self, name):
        return os.path.join(self.dir, name)


class Prep(Workload):
    name = "prep"

    def generate(self, directory):
        self.dir = directory
        self.pairs = gen.short_pairs(gen.new_rng(self.seed, "prep"), self.lexicon(), self.sizes["pairs"],
                                     gen.CORPUS_EDITS)
        gen.write_pairs(self.pairs, self.path("corpus.jsonl"))
        self.em_events = self.sizes["iterations"] * gen.em_events(self.pairs)

    def run_pass(self, cli, tracer):
        n, spp = len(self.pairs), self.sizes["samples_per_pair"]
        causal_path, sft_path = self.path("causal.jsonl"), self.path("sft.jsonl")
        t_align = cli("align", "--input", self.path("corpus.jsonl"), "--output", causal_path,
                         "--iterations", self.sizes["iterations"])
        t_verify = cli("verify", causal_path)  # exits 3 on any violation
        t_build = cli("build-dataset", "--input", causal_path, "--output", sft_path,
                         "--seed", PROGRAM_SEED, "--samples-per-pair", spp)
        if cli.tracing:
            tracer.count("aligner.em_events", self.em_events)

        with open(sft_path, encoding="utf-8") as fh:
            samples = sum(1 for _ in fh)
        check(samples == n * spp, f"{samples} samples, expected {n} x {spp}")
        self.same_as_first((file_digest(causal_path), file_digest(sft_path)))
        aer = causal_corpus_aer(causal_path, self.pairs)
        return {
            "stages": {"align": t_align, "verify": t_verify, "build-dataset": t_build},
            "items": {"main": (n, ["align"]), "last": (samples, ["build-dataset"])},
            "quality": 100.0 * (1.0 - aer),
        }


class StreamLocal(Workload):
    """Text and speech sessions on the dict backend, then evaluate them."""

    def generate(self, directory):
        self.dir = directory
        lex = self.lexicon()
        self.pairs = gen.long_pairs(gen.new_rng(self.seed, "long"), lex, self.sizes["sentences"])
        talks = gen.talks(gen.new_rng(self.seed, "talks"), lex, self.sizes["talk_words"])
        self.expected = [lex.translate(p.source) for p in self.pairs]
        self.expected_talks = [lex.translate(p.source) for p, _, _ in talks]
        gen.write_dictionary(lex, self.path("dict.json"))
        gen.write_pairs(self.pairs, self.path("test.jsonl"))
        gen.write_talks(talks, self.path("talks"))
        gen.write_pairs([p for p, _, _ in talks], self.path("talk_refs.jsonl"))

    def run_pass(self, cli, tracer):
        text_dir, speech_dir = self.path("text_traces"), self.path("speech_traces")
        for d in (text_dir, speech_dir):
            shutil.rmtree(d, ignore_errors=True)
        boot = self.sizes["bootstrap"]
        t_text = cli("simulate", "--input", self.path("test.jsonl"), "--out-dir", text_dir,
                        "--backend", "dict", "--dict-file", self.path("dict.json"),
                        "--k", self.sizes["k"])
        t_speech = cli("simulate", "--input", self.path("talks"), "--mode", "speech",
                          "--window-ms", 200, "--out-dir", speech_dir, "--backend", "dict",
                          "--dict-file", self.path("dict.json"), "--k", self.sizes["talk_k"])
        t_eval_text = cli("evaluate", "--traces", text_dir, "--references", self.path("test.jsonl"),
                             "--report", self.path("report.json"), "--curve", self.path("curve.csv"),
                             "--histogram", self.path("waits.json"), "--bootstrap", boot,
                             "--seed", PROGRAM_SEED)
        t_eval_speech = cli("evaluate", "--traces", speech_dir,
                               "--references", self.path("talk_refs.jsonl"),
                               "--report", self.path("speech_report.json"),
                               "--histogram", self.path("speech_waits.json"),
                               "--bootstrap", boot, "--seed", PROGRAM_SEED)

        text, speech = read_traces(text_dir), read_traces(speech_dir)
        cli.sessions(text + speech)
        check(len(text) == len(self.pairs) * len(self.sizes["k"].split(",")), "missing text traces")
        check(len(speech) == len(self.expected_talks), "missing speech traces")
        check_hypotheses(text, self.expected, "text trace")
        check_hypotheses(speech, self.expected_talks, "speech trace")
        bleu = check_al_equals_k(self.path("report.json"))
        with open(self.path("speech_report.json"), encoding="utf-8") as fh:
            speech_bleu = json.load(fh)["reports"][str(self.sizes["talk_k"])]["bleu"]
        self.same_as_first((bleu, speech_bleu))
        text_events, speech_events = count_events(text), count_events(speech)
        return {
            "stages": {"simulate-text": t_text, "simulate-speech": t_speech,
                       "evaluate-text": t_eval_text, "evaluate-speech": t_eval_speech},
            "items": {
                "main": (text_events + speech_events, ["simulate-text", "simulate-speech"]),
                "last": (len(text) + len(speech), ["evaluate-text", "evaluate-speech"]),
                "text": (text_events, ["simulate-text"]),
                "speech": (speech_events, ["simulate-speech"]),
            },
            "quality": bleu,
        }


class StreamHttp(Workload):
    """Short text sessions against the loopback stub, then evaluate them."""

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        self.stub = None
        self.base = None

    def generate(self, directory):
        self.dir = directory
        lex = self.lexicon()
        self.pairs = gen.short_pairs(gen.new_rng(self.seed, "http"), lex, self.sizes["sentences"],
                                     gen.TEST_EDITS)
        self.expected = [lex.translate(p.source) for p in self.pairs]
        gen.write_dictionary(lex, self.path("dict.json"))
        gen.write_pairs(self.pairs, self.path("test.jsonl"))

    def start_services(self):
        self.stub = subprocess.Popen(
            [sys.executable, str(HERE / "stub_server.py"), "--dict", self.path("dict.json")],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        port = self.stub.stdout.readline().strip()
        if not port.isdigit():
            self.stop_services()
            raise RuntimeError("stub server did not report its port")
        self.base = f"http://127.0.0.1:{port}"

    def stop_services(self):
        if self.stub is not None:
            self.stub.terminate()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub.stdout.close()
            self.stub = None

    def stub_stats(self):
        with urllib.request.urlopen(f"{self.base}/stats", timeout=30) as resp:
            return json.load(resp)

    def simulate(self, cli, out_dir, *backend):
        shutil.rmtree(out_dir, ignore_errors=True)
        return cli("simulate", "--input", self.path("test.jsonl"), "--out-dir", out_dir,
                   "--k", self.sizes["k"], "--workers", 1, *backend)

    def run_pass(self, cli, tracer):
        trace_dir = self.path("traces")
        self.stub_stats()  # reset the counters
        t_sim = self.simulate(cli, trace_dir, "--backend", "http", "--wall-clock",
                                 "--endpoint", f"{self.base}/v1/completions")
        stats = self.stub_stats()
        t_eval = cli("evaluate", "--traces", trace_dir, "--references", self.path("test.jsonl"),
                        "--report", self.path("report.json"))

        traces = read_traces(trace_dir)
        cli.sessions(traces)
        check(len(traces) == len(self.pairs), "missing traces")
        check_hypotheses(traces, self.expected, "http trace")
        bleu = check_al_equals_k(self.path("report.json"))
        self.same_as_first(bleu)

        # one backend call per write, wait or eos event, sessions in input order
        calls = [sum(1 for e in t["events"] if e["kind"] != "read") for _, t in traces]
        gaps = []
        if stats["requests"] == sum(calls):
            arrivals, pos = stats["arrival_ns"], 0
            for n in calls:
                session = arrivals[pos:pos + n]
                gaps.extend((b - a) / 1e6 for a, b in zip(session, session[1:]))
                pos += n
        if cli.tracing:
            tracer.count("http.requests", stats["requests"])
            tracer.samples["stub.handle_s"] = [ns / 1e9 for ns in stats["handle_ns"]]
        return {
            "stages": {"simulate": t_sim, "evaluate": t_eval},
            "items": {"main": (count_events(traces), ["simulate"]),
                      "last": (len(traces), ["evaluate"])},
            "quality": bleu,
            "step_ms": gaps,
            "handle_ms": [ns / 1e6 for ns in stats["handle_ns"]],
        }

    def finish(self, cli):
        """The http traces must equal dict-backend traces, wall-clock fields aside."""
        ref_dir = self.path("dict_traces")
        self.simulate(cli, ref_dir, "--backend", "dict", "--dict-file", self.path("dict.json"))

        def strip_wall(trace):
            trace.pop("processing_ms", None)
            for event in trace["events"]:
                event.pop("wall_ms", None)
            return trace

        http = read_traces(self.path("traces"))
        ref = read_traces(ref_dir)
        check([n for n, _ in http] == [n for n, _ in ref], "http and dict trace sets differ")
        for (name, h), (_, r) in zip(http, ref):
            check(strip_wall(h) == r, f"{name}: http trace differs from the dict-backend trace")


class Stream(Workload):
    """The local and the http session runs, one after the other in each pass.

    Both parts share a lexicon, so the local dictionary and the stub's agree.
    Stage names carry the part's name; the part's items are summed.
    """
    name = "stream"

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        self.parts = {"local": StreamLocal(seed, sizes["local"]),
                      "http": StreamHttp(seed, sizes["http"])}

    def generate(self, directory):
        self.dir = directory
        for name, part in self.parts.items():
            os.makedirs(os.path.join(directory, name))
            part.generate(os.path.join(directory, name))

    def start_services(self):
        self.parts["http"].start_services()

    def stop_services(self):
        self.parts["http"].stop_services()

    def run_pass(self, cli, tracer):
        results = {name: part.run_pass(cli, tracer) for name, part in self.parts.items()}
        local, http = results["local"], results["http"]
        stages, items = {}, {}
        for name, result in results.items():
            stages.update({f"{name}:{stage}": t for stage, t in result["stages"].items()})
            for key, (count, names) in result["items"].items():
                seen, listed = items.get(key, (0, []))
                items[key] = (seen + count, listed + [f"{name}:{stage}" for stage in names])
        items["http"] = (http["items"]["main"][0], ["http:simulate"])
        return {"stages": stages, "items": items, "quality": local["quality"],
                "step_ms": http["step_ms"], "handle_ms": http["handle_ms"]}

    def finish(self, cli):
        self.parts["http"].finish(cli)


WORKLOADS = {w.name: w for w in (Prep, Stream)}


# ---------------------------------------------------------------- measuring

def cold_import_seconds():
    """One fresh interpreter importing the CLI: what every invocation pays."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import simtrans.cli"], cwd=ROOT, env=env,
                   check=True, timeout=120)
    return time.perf_counter() - t0


def set_up(workload, work):
    """Generate inputs (and start services) several times; keep the last."""
    times, digests = [], set()
    for rep in range(SETUP_REPEATS):
        directory = os.path.join(work, f"inputs{rep}")
        os.makedirs(directory)
        t0 = time.perf_counter()
        workload.generate(directory)
        workload.start_services()
        cold_import_seconds()
        times.append(time.perf_counter() - t0)
        digests.add(tree_digest(directory, ascii_only=True))  # ASCII keeps chars == bytes
        if rep < SETUP_REPEATS - 1:
            workload.stop_services()
            shutil.rmtree(directory)
    check(len(digests) == 1, "the same seed generated different inputs")
    return median(times)


def tree_digest(directory, ascii_only=False):
    """SHA-256 over the relative paths and contents of a directory's files."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            check(data.isascii() or not ascii_only, f"{path} is not ASCII")
            h.update(str(path.relative_to(directory)).encode())
            h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def measure(workload, cli, tracer, seconds, trace):
    """Passes until the time is used up; with tracing every second pass is traced.

    One checked warm-up pass runs first, so that first-use costs inside the
    process (allocator growth, lazily built caches) land in no measurement.
    """
    workload.run_pass(cli, tracer)
    passes = []
    began = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        cli.tracing = traced
        lo = tracer.mark()
        t0 = time.perf_counter()
        try:
            result = workload.run_pass(cli, tracer)
        finally:
            cli.tracing = False
        result["pass_s"] = time.perf_counter() - t0
        result["traced"] = traced
        result["spans"] = (lo, tracer.mark())
        result["counts"], result["samples"] = tracer.take_counts()
        passes.append(result)
        elapsed = time.perf_counter() - began
        longest_recent = max(p["pass_s"] for p in passes[-2:])
        if len(passes) >= (4 if trace else 3) and elapsed + longest_recent > seconds:
            return passes


def end_to_end(passes, setup_s):
    plain = [p for p in passes if not p["traced"]]
    times = stage_means(plain)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(times.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "main_stage_items_per_s": (stage_rate(plain, times, "main"), "1/s"),
        "last_stage_items_per_s": (stage_rate(plain, times, "last"), "1/s"),
        "quality_score": (plain[0]["quality"], "score"),
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(passes, tracer):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    summaries = tracer.summarize([p["spans"] for p in traced])
    times = stage_means(plain)

    def optional_rate(key):
        return stage_rate(plain, times, key) if key in plain[0]["items"] else 0.0

    def per_pass(name, field):
        return median([s.get(name, (0, 0.0, 0.0))[field] for s in summaries])

    def total(name, field):
        return sum(s.get(name, (0, 0.0, 0.0))[field] for s in summaries)

    def counted(key):
        return sum(p["counts"].get(key, 0) for p in traced)

    def count_per_pass(key):
        return median([p["counts"].get(key, 0) for p in traced])

    out = {}
    for span in ("cli.main", "tokenizer.tokenize", "aligner.align_pair", "prompt.build_prompt",
                 "engine.run_session", "backends.DictionaryBackend.next_unit",
                 "backends.HttpBackend.next_unit", "bleu.corpus_bleu", "bleu.tokenize_13a",
                 "metrics.aggregate_report"):
        out[f"{span}.calls"] = (per_pass(span, 0), "count")
    for span in ("cli.main", "tokenizer.tokenize", "aligner.train_table", "kernels.em_sweep",
                 "aligner.align_pair", "causal.causal_align", "causal.write_corpus",
                 "causal.read_corpus", "causal.verify_corpus_file", "sft.write_samples",
                 "prompt.build_prompt", "engine.run_session", "backends.DictionaryBackend.next_unit",
                 "backends.HttpBackend.next_unit", "streams.AsrSimStream.iter",
                 "engine.SessionTrace.to_json", "engine.trace_from_record", "bleu.corpus_bleu",
                 "bleu.tokenize_13a", "metrics.aggregate_report", "metrics.bootstrap_reports",
                 "metrics.wait_histogram"):
        out[f"{span}.self_s"] = (per_pass(span, 1), "s")

    backend_calls = (total("backends.DictionaryBackend.next_unit", 0)
                     + total("backends.HttpBackend.next_unit", 0))
    out.update({
        "aligner.train_table.s_per_iteration":
            (ratio(total("aligner.train_table", 2), counted("aligner.iterations")), "s"),
        "aligner.em_events": (count_per_pass("aligner.em_events"), "count"),
        "aligner.links_per_target_word":
            (ratio(counted("aligner.links"), counted("aligner.target_words")), "ratio"),
        "causal.waits_per_pair":
            (ratio(counted("causal.waits"), total("causal.causal_align", 0)), "ratio"),
        "sft.bytes_per_sample": (ratio(counted("sft.bytes"), counted("sft.samples")), "B"),
        "prompt.bytes_per_call":
            (ratio(counted("prompt.chars"), total("prompt.build_prompt", 0)), "B"),
        "engine.events": (count_per_pass("engine.events"), "count"),
        "engine.backend_calls_per_write": (ratio(backend_calls, counted("engine.writes")), "ratio"),
        "engine.us_per_event.short":
            (1e6 * ratio(counted("engine.short_s"), counted("engine.short_events")), "us"),
        "engine.us_per_event.long":
            (1e6 * ratio(counted("engine.long_s"), counted("engine.long_events")), "us"),
        "engine.trace_bytes_per_session":
            (ratio(counted("engine.trace_chars"), total("engine.SessionTrace.to_json", 0)), "B"),
        "streams.asr_words": (count_per_pass("streams.asr_words"), "count"),
        "backends.http.requests_per_call":
            (ratio(counted("http.requests"), total("backends.HttpBackend.next_unit", 0)), "ratio"),
    })

    # client time = call time minus stub handling time, paired call by call
    client_ms = []
    for p in traced:
        calls, handled = p["samples"].get("http.call_s", []), p["samples"].get("stub.handle_s", [])
        if len(calls) == len(handled):
            client_ms.extend(1e3 * (c - h) for c, h in zip(calls, handled))
    steps = [g for p in plain for g in p.get("step_ms", [])]
    out.update({
        "stub.handle_ms_p50": (median([h for p in passes for h in p.get("handle_ms", [])]), "ms"),
        "backends.http.client_ms_p50": (median(client_ms), "ms"),
        "http.step_ms_p50": (median(steps), "ms"),
        "http.step_ms_p99": (percentile(steps, 99), "ms"),
        "http.step_samples": (len(steps), "count"),
        "stage.text_events_per_s": (optional_rate("text"), "1/s"),
        "stage.speech_events_per_s": (optional_rate("speech"), "1/s"),
        "stage.http_events_per_s": (optional_rate("http"), "1/s"),
        "trace_overhead_share": (sum(stage_means(traced).values())
                                 / sum(times.values()) - 1.0, "share"),
    })
    return out


def environment(program):
    def version(module):
        try:
            return __import__(module).__version__
        except ImportError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    kernels = program.kernels
    if hasattr(kernels, "active_impl"):
        em_path = kernels.active_impl()
    else:
        em_path = "numba" if getattr(kernels, "HAVE_NUMBA", False) else "numpy"
    return {
        "git_sha": sha,
        "src_sha256": tree_digest(ROOT / "src"),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "requests": version("requests"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "em_path": em_path,
    }


def run_workload(name, seed, seconds, trace, sizes=None, program=None):
    """Run one workload; returns (result dict, run record)."""
    program = program or load_program()
    workload = WORKLOADS[name](seed, sizes or SIZES[name])
    tracer = Tracer()
    add_simtrans_layers(tracer, program)
    cli = Cli(program, tracer)
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup_s = set_up(workload, str(work))
        passes = measure(workload, cli, tracer, seconds, trace)
        workload.finish(cli)
    finally:
        workload.stop_services()
        shutil.rmtree(work, ignore_errors=True)
    metrics = per_layer(passes, tracer) if trace else end_to_end(passes, setup_s)
    result = {
        "correct": True,
        "attempted": cli.attempted,
        "failed": cli.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "sizes": workload.sizes, "environment": environment(program),
        "missing_layers": tracer.missing,
        "passes": [{k: v for k, v in p.items() if k not in ("samples", "step_ms", "handle_ms")}
                   for p in passes],
        "result": result,
    }
    if trace:
        tracer.save(str(OUT / f"spans-{name}-seed{seed}.npz"))
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the finally blocks

    try:
        program = load_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    try:
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                      program=program)
    except CheckFailed as exc:
        print(f"error: correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    os.makedirs(OUT, exist_ok=True)
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
