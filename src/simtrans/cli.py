"""Command-line pipeline: align, build-dataset, simulate, evaluate, verify.

Option values resolve as flags > config file (--config, JSON object) >
SIMTRANS_* environment variables > built-in defaults. Exit codes: 0 success,
1 usage or input error, 2 a run completed with per-session failures,
3 verification found violations.
"""

import argparse
import concurrent.futures
import glob
import json
import os
import sys
from importlib import resources

from . import aligner, bleu, causal, engine, metrics, sft, streams
from .backends import (
    DictionaryBackend,
    HttpBackend,
    HttpBackendConfig,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
    load_recording,
)
from .errors import SessionError, SimtransError
from .prompt import DEFAULT_TARGET_LANGUAGE
from .rng import make_rng
from .tokenizer import tokenize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _read_json(path):
    """One whole-file JSON document, or an error naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SimtransError(f"{path}: invalid JSON: {exc}") from exc


def _load_config(path):
    if not path:
        return {}
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise SimtransError(f"{path}: a config file must hold a JSON object")
    return cfg


def resolve_option(args, config, name, default, cast=None):
    """flags > config file > SIMTRANS_<NAME> env var > default."""
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name)
    if value is None:
        value = os.environ.get(f"SIMTRANS_{name.upper()}")
    if value is None:
        return default
    if cast is None:
        return value
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise SimtransError(f"--{_flag(name)}: invalid value {value!r}") from exc


def _flag(name):
    return name.replace("_", "-")


def _at_least(name, value, low):
    """Return value, or reject it with an error naming its flag."""
    if not value >= low:
        raise SimtransError(f"--{_flag(name)} must be >= {low}, got {value}")
    return value


def _positive(name, value):
    if not value > 0:
        raise SimtransError(f"--{_flag(name)} must be > 0, got {value}")
    return value


def _read_jsonl(path):
    records = []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append((n, json.loads(line)))
            except json.JSONDecodeError as exc:
                raise SimtransError(f"{path}: line {n}: invalid JSON: {exc}") from exc
    return records


def _read_pair_file(path):
    pairs = []
    for n, rec in _read_jsonl(path):
        if not (isinstance(rec, dict) and isinstance(rec.get("source"), str)
                and isinstance(rec.get("target"), str)):
            raise SimtransError(f"{path}: line {n}: record needs source and target strings")
        pairs.append((rec["source"], rec["target"]))
    return pairs


def _atomic_write(path, text):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _parse_k_list(value):
    items = value if isinstance(value, (list, tuple)) else [
        v for v in str(value).split(",") if v.strip()
    ]
    try:
        k_list = [int(v) for v in items]
    except (TypeError, ValueError) as exc:
        raise SimtransError(f"--k: invalid value {value!r}") from exc
    for k in k_list:
        _at_least("k", k, 1)
    return k_list


# ---------------------------------------------------------------- align

def cmd_align(args, config) -> int:
    iterations = _at_least(
        "iterations",
        resolve_option(args, config, "iterations", aligner.DEFAULT_ITERATIONS, int),
        1,
    )
    raw_pairs = _read_pair_file(args.input)
    tokenized = []
    for idx, (src, tgt) in enumerate(raw_pairs):
        try:
            tokenized.append((tokenize(src), tokenize(tgt)))
        except SimtransError as exc:
            raise SimtransError(f"pair {idx}: {exc}") from exc

    if args.alignments:
        imported = aligner.import_alignments(args.alignments, tokenized)
        align_fn = lambda idx, s, t: imported[idx]
        pairs, stats = causal.build_corpus(tokenized, None, None, align_fn=align_fn)
    else:
        forward = aligner.train_table(tokenized, iterations=iterations)
        reverse = aligner.train_table(tokenized, iterations=iterations, direction="reverse")
        pairs, stats = causal.build_corpus(tokenized, forward, reverse)

    causal.write_corpus(pairs, args.output)
    print(
        f"aligned {stats.pair_count} pairs: "
        f"{stats.wait_total} waits ({stats.mean_waits:.2f}/pair), "
        f"{stats.filler_total} fillers -> {args.output}"
    )
    return EXIT_OK


# ---------------------------------------------------------- build-dataset

def cmd_build_dataset(args, config) -> int:
    seed = resolve_option(args, config, "seed", 0, int)
    samples_per_pair = _at_least(
        "samples_per_pair", resolve_option(args, config, "samples_per_pair", 1, int), 1
    )
    language = resolve_option(args, config, "target_language", DEFAULT_TARGET_LANGUAGE)
    corpus = causal.read_corpus(args.input)
    cfg = sft.SftConfig(
        seed=seed, samples_per_pair=samples_per_pair, target_language=language
    )
    count = sft.write_samples(corpus, cfg, args.output)
    meta_path = args.meta or f"{args.output}.meta.json"
    sft.write_training_meta(cfg, meta_path)
    print(f"wrote {count} samples -> {args.output} (meta: {meta_path})")
    return EXIT_OK


# ---------------------------------------------------------------- simulate

def _build_shared_backend(args, config):
    backend_kind = resolve_option(args, config, "backend", "dict")
    if backend_kind == "dict":
        if not args.dict_file:
            raise SimtransError("--dict-file is required for the dict backend")
        mapping = _read_json(args.dict_file)
        if not (isinstance(mapping, dict) and all(isinstance(v, str) for v in mapping.values())):
            raise SimtransError(f"{args.dict_file}: a dictionary maps words to words")
        lookahead = resolve_option(args, config, "lookahead", 0, int)
        return backend_kind, DictionaryBackend(mapping, lookahead=lookahead)
    if backend_kind == "replay":
        if not args.recording:
            raise SimtransError("--recording is required for the replay backend")
        return backend_kind, load_recording(args.recording)
    if backend_kind == "scripted":
        if not args.script_file:
            raise SimtransError("--script-file is required for the scripted backend")
        scripts = _read_json(args.script_file)
        if not (isinstance(scripts, list) and all(
                isinstance(units, list) and all(isinstance(u, str) for u in units)
                for units in scripts)):
            raise SimtransError(
                f"{args.script_file}: a script file holds one list of unit strings per sentence"
            )
        return backend_kind, scripts
    if backend_kind == "http":
        endpoint = resolve_option(args, config, "endpoint", None)
        if not endpoint:
            raise SimtransError("--endpoint is required for the http backend")
        http_cfg = HttpBackendConfig(
            endpoint_url=endpoint,
            model_name=resolve_option(args, config, "model", ""),
            api_key_env=resolve_option(args, config, "api_key_env", None),
            top_p=resolve_option(args, config, "top_p", 0.7, float),
            max_unit_tokens=resolve_option(args, config, "max_unit_tokens", 12, int),
            timeout_ms=_positive(
                "timeout_ms", resolve_option(args, config, "timeout_ms", 30000.0, float)
            ),
            retries=_at_least("retries", resolve_option(args, config, "retries", 2, int), 0),
        )
        return backend_kind, HttpBackend(http_cfg)
    raise SimtransError(f"unknown backend {backend_kind!r}")


def cmd_simulate(args, config) -> int:
    mode = resolve_option(args, config, "mode", "text")
    k_list = _parse_k_list(resolve_option(args, config, "k", "1"))
    workers = resolve_option(args, config, "workers", 1, int)
    window_ms = _positive("window_ms", resolve_option(args, config, "window_ms", 200.0, float))
    language = resolve_option(args, config, "target_language", DEFAULT_TARGET_LANGUAGE)
    os.makedirs(args.out_dir, exist_ok=True)

    if mode == "text":
        pairs = _read_pair_file(args.input)
        sources = [tokenize(src).words for src, _ in pairs]
        make_stream = lambda idx: streams.TextStream(sources[idx])
    elif mode == "speech":
        paths = sorted(glob.glob(os.path.join(args.input, "*.json")))
        if not paths:
            raise SimtransError(f"no transcript files in {args.input}")
        transcripts = [streams.read_transcript(p) for p in paths]
        asr_cfg = streams.AsrSimConfig(window_ms=window_ms)
        make_stream = lambda idx: streams.AsrSimStream(transcripts[idx], asr_cfg)
        sources = transcripts
    else:
        raise SimtransError(f"unknown mode {mode!r}")

    backend_kind, shared = _build_shared_backend(args, config)
    if args.record:
        if backend_kind == "replay":
            raise SimtransError("--record cannot wrap the replay backend")
        workers = 1  # recording appends sequentially
        open(args.record, "w", encoding="utf-8").close()

    engine_cfg = engine.EngineConfig(
        include_system=not args.no_system_message,
        target_language=language,
        wall_clock=args.wall_clock,
    )
    jobs = [(idx, k) for idx in range(len(sources)) for k in k_list]

    def run_one(job):
        idx, k = job
        if backend_kind == "replay":
            backend = ReplayBackend(shared)
        elif backend_kind == "scripted":
            if idx >= len(shared):
                raise SimtransError(f"no script for sentence {idx}")
            backend = ScriptedBackend(shared[idx])
        else:
            backend = shared
        if args.record:
            backend = RecordingBackend(args.record, backend)
        try:
            trace = engine.run_session(make_stream(idx), backend, k, engine_cfg)
            failed = False
        except SessionError as exc:
            trace = exc.partial_trace
            failed = True
        finally:
            if args.record:
                backend.close()
        trace.session_id = f"{idx:04d}"
        return idx, k, trace, failed

    failures = 0
    try:
        if workers > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(run_one, jobs))
        else:
            results = [run_one(job) for job in jobs]
    finally:
        if backend_kind == "http":
            shared.close()

    for idx, k, trace, failed in sorted(results, key=lambda r: (r[0], r[1])):
        failures += int(failed)
        path = os.path.join(args.out_dir, f"{idx:04d}_k{k}.json")
        _atomic_write(path, trace.to_json() + "\n")

    print(f"wrote {len(results)} traces -> {args.out_dir} ({failures} failed)")
    return EXIT_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------- evaluate

def _default_function_words():
    ref = resources.files("simtrans").joinpath("data/function_words_en.txt")
    return [w.strip() for w in ref.read_text(encoding="utf-8").splitlines() if w.strip()]


def _read_trace(path):
    """One trace file, or an error naming the file."""
    rec = _read_json(path)
    if not isinstance(rec, dict):
        raise SimtransError(f"{path}: a trace must be a JSON object")
    try:
        trace = engine.trace_from_record(rec)
    except KeyError as exc:
        raise SimtransError(f"{path}: trace record lacks {exc}") from exc
    if not isinstance(trace.source_total, (int, float)):
        raise SimtransError(f"{path}: source_total must be a number")
    return trace


def cmd_evaluate(args, config) -> int:
    seed = resolve_option(args, config, "seed", 0, int)
    bootstrap_n = _at_least("bootstrap", resolve_option(args, config, "bootstrap", 0, int), 0)

    trace_paths = sorted(glob.glob(os.path.join(args.traces, "*.json")))
    if not trace_paths:
        raise SimtransError(f"no trace files in {args.traces}")
    traces = [_read_trace(path) for path in trace_paths]

    pairs = _read_pair_file(args.references)
    references = {f"{idx:04d}": tgt for idx, (_, tgt) in enumerate(pairs)}

    by_k = {}
    for path, trace in zip(trace_paths, traces):
        if trace.session_id not in references:
            raise SimtransError(
                f"no reference for trace id {trace.session_id!r}"
            )
        by_k.setdefault(trace.k, []).append((path, trace))

    # each reference is tokenized once, however many k groups score it
    ref_cache = {}
    reports = {}
    bootstrap = {}
    for k, group in sorted(by_k.items()):
        delay_seqs, hyps, refs, ref_stats = [], [], [], []
        total_processing = 0.0
        total_audio = 0.0
        timed = True
        for path, trace in group:
            ref_text = references[trace.session_id]
            if trace.session_id not in ref_cache:
                ref_cache[trace.session_id] = (
                    bleu.reference_stats(ref_text), len(tokenize(ref_text).words)
                )
            stats, ref_len = ref_cache[trace.session_id]
            try:
                delay_seqs.append(metrics.DelaySequence(
                    g=trace.delays,
                    source_len=trace.source_total,
                    hyp_len=len(trace.hypothesis_words),
                    ref_len=ref_len,
                ))
            except (TypeError, ValueError) as exc:
                raise SimtransError(f"{path}: {exc}") from exc
            hyps.append(" ".join(trace.hypothesis_words))
            refs.append(ref_text)
            ref_stats.append(stats)
            if trace.processing_ms is None or trace.mode != "speech":
                timed = False
            else:
                total_processing += trace.processing_ms
                total_audio += trace.source_total
        unit = "ms" if group[0][1].mode == "speech" else "words"
        rtf = metrics.real_time_factor(total_processing, total_audio) if timed else None
        scores = metrics.score_sessions(delay_seqs, hyps, refs, ref_stats)
        reports[k] = metrics.aggregate_report(scores, unit=unit, rtf=rtf)
        if bootstrap_n:
            bootstrap[k] = metrics.bootstrap_reports(
                scores, bootstrap_n, make_rng(seed), unit=unit, rtf=rtf
            )
        print(f"k={k}: BLEU {reports[k].bleu:.2f}  AL {reports[k].al:.2f}  "
              f"LAAL {reports[k].laal:.2f}  AP {reports[k].ap:.3f}  "
              f"DAL {reports[k].dal:.2f}  ({unit})")

    out = {"reports": {str(k): r.to_record() for k, r in reports.items()}}
    if bootstrap:
        out["bootstrap"] = {str(k): b for k, b in bootstrap.items()}
    if args.report:
        _atomic_write(args.report, json.dumps(out, ensure_ascii=False, indent=2) + "\n")

    if args.curve:
        runs = [(k, r) for k, r in reports.items()]
        _atomic_write(args.curve, metrics.tradeoff_curve(runs))

    if args.histogram:
        words = (
            [w.strip() for w in open(args.function_words, encoding="utf-8") if w.strip()]
            if args.function_words
            else _default_function_words()
        )
        hist = metrics.wait_histogram(traces, words)
        _atomic_write(args.histogram, json.dumps({
            "counts": hist.counts,
            "function_count": hist.function_count,
            "content_count": hist.content_count,
            "function_share": hist.function_share,
        }, ensure_ascii=False, indent=2) + "\n")
    return EXIT_OK


# ------------------------------------------------------------------ verify

def cmd_verify(args, config) -> int:
    total = 0
    bad = 0
    for record_no, line_no, problems in causal.verify_corpus_file(args.corpus):
        total += 1
        if problems:
            bad += 1
            for p in problems:
                print(f"pair {record_no} ({args.corpus}:{line_no}): {p}")
    if total == 0:
        print("warning: empty corpus, nothing to verify")
        return EXIT_OK
    print(f"verified {total} pairs: {total - bad} ok, {bad} violating")
    return EXIT_VERIFY if bad else EXIT_OK


# -------------------------------------------------------------------- main

def _build_parser() -> _Parser:
    parser = _Parser(prog="simtrans", description=__doc__)
    parser.add_argument("--config", help="JSON config file merged below flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="tokenize, align and causally restructure a corpus")
    p.add_argument("--input", required=True, help="JSONL of {source, target} pairs")
    p.add_argument("--output", required=True, help="causal corpus JSONL to write")
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--alignments", help="Pharaoh file to use instead of EM alignment")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("build-dataset", help="emit fine-tuning samples from a causal corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--meta", help="hyperparameter sidecar path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples-per-pair", dest="samples_per_pair", type=int, default=None)
    p.add_argument("--target-language", dest="target_language", default=None)
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("simulate", help="run streaming sessions against a backend")
    p.add_argument("--input", required=True, help="test JSONL (text) or transcript dir (speech)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k", default=None, help="comma-separated wait-k values")
    p.add_argument("--mode", choices=["text", "speech"], default=None)
    p.add_argument("--backend", choices=["scripted", "dict", "replay", "http"], default=None)
    p.add_argument("--dict-file", dest="dict_file")
    p.add_argument("--lookahead", type=int, default=None)
    p.add_argument("--script-file", dest="script_file")
    p.add_argument("--recording", help="recording to replay")
    p.add_argument("--record", help="record backend units to this file")
    p.add_argument("--endpoint", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--api-key-env", dest="api_key_env", default=None)
    p.add_argument("--top-p", dest="top_p", type=float, default=None)
    p.add_argument("--max-unit-tokens", dest="max_unit_tokens", type=int, default=None)
    p.add_argument("--timeout-ms", dest="timeout_ms", type=float, default=None)
    p.add_argument("--retries", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--window-ms", dest="window_ms", type=float, default=None)
    p.add_argument("--target-language", dest="target_language", default=None)
    p.add_argument("--no-system-message", action="store_true")
    p.add_argument("--wall-clock", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="score traces against references")
    p.add_argument("--traces", required=True, help="directory of trace JSON files")
    p.add_argument("--references", required=True, help="test JSONL with target fields")
    p.add_argument("--report", help="LatencyReport JSON output path")
    p.add_argument("--curve", help="quality-latency CSV output path")
    p.add_argument("--histogram", help="wait-position histogram JSON output path")
    p.add_argument("--function-words", dest="function_words")
    p.add_argument("--bootstrap", type=int, default=None, help="resample count")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("verify", help="re-check causal corpus invariants")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        return args.func(args, config)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except SimtransError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
