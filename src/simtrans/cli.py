"""Command-line pipeline: align, build-dataset, simulate, evaluate, verify.

Option values other than paths and on/off switches resolve as flags > config
file (--config, JSON object) > SIMTRANS_* environment variables > built-in
defaults. Exit codes: 0 success, 1 usage or input error, 2 a run completed
with per-session failures, 3 verification found violations.
"""

# Every invocation pays this module's imports, so the layers that need numpy
# (aligner, bleu, metrics, sft, rng) are imported by the commands that run
# them: align, build-dataset and evaluate.

import argparse
import contextlib
import glob
import json
import math
import operator
import os
import sys

from . import causal, engine, streams
from .inputs import lines, read_json, read_jsonl, read_text
from .backends import (
    DictionaryBackend,
    HttpBackend,
    HttpBackendConfig,
    ReplayBackend,
    ScriptedBackend,
)
from .errors import EmptyCorpus, SessionError, SimtransError
from .links import DEFAULT_ITERATIONS
from .prompt import DEFAULT_TARGET_LANGUAGE
from .tokenizer import tokenize
from .units import MARKERS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_VERIFY = 3

# the English list --histogram counts waits against unless --function-words names another
_FUNCTION_WORDS = os.path.join(os.path.dirname(__file__), "data", "function_words_en.txt")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _string(value):
    """A str that encodes as UTF-8; argv and the environment decode a byte
    that is not UTF-8 to a lone surrogate, which no output file can hold."""
    if not isinstance(value, str):
        raise TypeError(value)
    value.encode("utf-8")  # a UnicodeEncodeError is a ValueError
    return value


def _number(value):
    """float(value) for a finite number or its text; a JSON true or false is not one."""
    if isinstance(value, bool):
        raise TypeError(value)
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(value)
    return number


def _integer(value):
    """int(value) for a whole number or its text, never truncating 5.7 to 5."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError(value)
    return int(value)


def _integers(value):
    """A non-empty list of distinct whole numbers from a JSON list or
    comma-separated text."""
    items = value if isinstance(value, list) else [v for v in str(value).split(",") if v.strip()]
    numbers = [_integer(v) for v in items]
    if not numbers or len(set(numbers)) < len(numbers):
        raise ValueError(value)
    return numbers


# Each valued option, once: name -> (cast, default, bounds, subcommands).
# A tuple cast lists the option's choices; bounds are comma-separated
# comparisons such as "> 0, <= 1", and a list value is bounded item by item.
# main resolves the chosen subcommand's options as flag > --config >
# SIMTRANS_<NAME> > default, casting and bounding a value from every source
# alike, and sets each on args. Paths and on/off switches are plain flags.
OPTIONS = {
    "iterations": (_integer, DEFAULT_ITERATIONS, ">= 1", ("align",)),
    "seed": (_integer, 0, ">= 0", ("build-dataset", "evaluate")),
    "samples_per_pair": (_integer, 1, ">= 1", ("build-dataset",)),
    "target_language": (_string, DEFAULT_TARGET_LANGUAGE, None, ("build-dataset", "simulate")),
    "k": (_integers, [1], ">= 1", ("simulate",)),
    "mode": (("text", "speech"), "text", None, ("simulate",)),
    "backend": (("scripted", "dict", "replay", "http"), "dict", None, ("simulate",)),
    "lookahead": (_integer, 0, ">= 0", ("simulate",)),
    "endpoint": (_string, None, None, ("simulate",)),
    "model": (_string, HttpBackendConfig.model_name, None, ("simulate",)),
    "api_key_env": (_string, HttpBackendConfig.api_key_env, None, ("simulate",)),
    "top_p": (_number, HttpBackendConfig.top_p, "> 0, <= 1", ("simulate",)),
    "max_unit_tokens": (_integer, HttpBackendConfig.max_unit_tokens, ">= 1", ("simulate",)),
    # a socket refuses a timeout past about 9.2e9 s; one day is under every platform's limit
    "timeout_ms": (_number, HttpBackendConfig.timeout_ms, "> 0, <= 86400000", ("simulate",)),
    "retries": (_integer, HttpBackendConfig.retries, ">= 0", ("simulate",)),
    "workers": (_integer, 1, ">= 1", ("simulate",)),
    "window_ms": (_number, 200.0, "> 0", ("simulate",)),
    "bootstrap": (_integer, 0, ">= 0", ("evaluate",)),
}


_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _resolve_options(args):
    config = read_json(args.config) if args.config else {}
    if not isinstance(config, dict):
        raise SimtransError(f"{args.config}: a config file must hold a JSON object")
    for name, (cast, default, bounds, commands) in OPTIONS.items():
        if args.command not in commands:
            continue
        flag = "--" + name.replace("_", "-")
        value = getattr(args, name)
        if value is None:
            value = config.get(name)
        if value is None:
            value = os.environ.get(f"SIMTRANS_{name.upper()}")
        if value is None:
            value = default
        elif isinstance(cast, tuple):
            if value not in cast:
                raise SimtransError(f"{flag}: invalid value {value!r}")
        else:
            try:
                value = cast(value)
            except (TypeError, ValueError) as exc:
                raise SimtransError(f"{flag}: invalid value {value!r}") from exc
            for bound in bounds.split(",") if bounds else ():
                op, limit = bound.split()
                for v in value if isinstance(value, list) else [value]:
                    if not _COMPARE[op](v, float(limit)):
                        raise SimtransError(f"{flag} must be {bound.strip()}, got {v}")
        setattr(args, name, value)


def _read_pair_file(path):
    """(line number, source, target) per record."""
    pairs = []
    for n, rec in read_jsonl(path):
        if not (isinstance(rec, dict) and isinstance(rec.get("source"), str)
                and isinstance(rec.get("target"), str)):
            raise SimtransError(f"{path}: line {n}: record needs source and target strings")
        pairs.append((n, rec["source"], rec["target"]))
    return pairs


def _tokenize_line(path, n, text):
    """tokenize(text), or an error naming the file and line it came from.

    A marker is no input word: causal counts and verify read every marker
    in a corpus as one the pipeline put there.
    """
    try:
        words = tokenize(text)
    except SimtransError as exc:
        raise SimtransError(f"{path}: line {n}: {exc}") from exc
    if not MARKERS.isdisjoint(words):
        marker = next(w for w in words if w in MARKERS)
        raise SimtransError(f"{path}: line {n}: {marker} is a reserved marker, not a word")
    return words


@contextlib.contextmanager
def _outputs(*paths):
    """A temporary path per output path for the block to write, in order,
    each moved onto its output path once the block ends. A failure leaves no
    temporary file and no output that was not there before. An error at a
    temporary path that cannot be opened for want of its directory, or a
    failed write, which names no file, is an error naming the output."""
    tmps = [f"{path}.tmp" for path in paths]
    # a temporary file left by a run that was killed would pass below for
    # one this block wrote
    for tmp in tmps:
        with contextlib.suppress(OSError):
            os.remove(tmp)
    # only a replace that came before a failed one can have made an output
    fresh = [path for path in paths[:-1] if not os.path.lexists(path)]
    made = []
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
            made.append(path)
    except BaseException as exc:
        named = None
        if isinstance(exc, OSError):
            if exc.filename in tmps and not os.path.lexists(exc.filename):
                # nothing at a temporary path that failed: the fault is its directory's
                named = paths[tmps.index(exc.filename)]
            elif exc.filename is None:
                # the block writes the outputs in order, so the last
                # temporary file there is the one whose write failed
                named = next((path for tmp, path in zip(tmps[::-1], paths[::-1])
                              if os.path.lexists(tmp)), None)
        for path in [*tmps, *(p for p in made if p in fresh)]:
            with contextlib.suppress(OSError):
                os.remove(path)
        if named:
            raise OSError(exc.errno, exc.strerror, named) from exc
        raise


def _atomic_write(path, text):
    with _outputs(path) as (tmp,), open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------- align

def cmd_align(args) -> int:
    from . import aligner

    tokenized = [
        (_tokenize_line(args.input, n, src), _tokenize_line(args.input, n, tgt))
        for n, src, tgt in _read_pair_file(args.input)
    ]

    if args.alignments:
        link_sets = aligner.import_alignments(args.alignments, tokenized)
    else:
        try:
            forward = aligner.train_table(tokenized, iterations=args.iterations)
            reverse = aligner.train_table(tokenized, iterations=args.iterations, direction="reverse")
        except EmptyCorpus as exc:
            raise SimtransError(f"{args.input}: {exc}") from exc
        # the pairs both tables were trained on: linking reads EM's own argmax
        link_sets = aligner.align_corpus(tokenized, forward, reverse)
    pairs, stats = causal.build_corpus(tokenized, link_sets)

    with _outputs(args.output) as (tmp,):
        causal.write_corpus(pairs, link_sets, tmp)
    print(
        f"aligned {stats.pair_count} pairs: "
        f"{stats.wait_total} waits ({stats.mean_waits:.2f}/pair), "
        f"{stats.filler_total} fillers -> {args.output}"
    )
    return EXIT_OK


# ---------------------------------------------------------- build-dataset

def cmd_build_dataset(args) -> int:
    from . import sft

    meta_path = args.meta or f"{args.output}.meta.json"
    if os.path.abspath(meta_path) == os.path.abspath(args.output):
        raise SimtransError(f"{meta_path}: --meta names the --output file")
    corpus = causal.read_corpus(args.input)
    cfg = sft.SftConfig(
        seed=args.seed, samples_per_pair=args.samples_per_pair,
        target_language=args.target_language,
    )
    # the samples and their sidecar are written together, or neither is
    with _outputs(args.output, meta_path) as (samples_tmp, meta_tmp):
        count = sft.write_samples(corpus, cfg, samples_tmp)
        sft.write_training_meta(cfg, meta_tmp)
    print(f"wrote {count} samples -> {args.output} (meta: {meta_path})")
    return EXIT_OK


# ---------------------------------------------------------------- simulate

def _build_shared_backend(args):
    if args.backend == "dict":
        if not args.dict_file:
            raise SimtransError("--dict-file is required for the dict backend")
        mapping = read_json(args.dict_file)
        if not (isinstance(mapping, dict) and all(isinstance(v, str) for v in mapping.values())):
            raise SimtransError(f"{args.dict_file}: a dictionary maps words to words")
        return DictionaryBackend(mapping, lookahead=args.lookahead)
    if args.backend == "replay":
        if not args.recording:
            raise SimtransError("--recording is required for the replay backend")
        return _read_traces(args.recording)
    if args.backend == "scripted":
        if not args.script_file:
            raise SimtransError("--script-file is required for the scripted backend")
        scripts = read_json(args.script_file)
        if not (isinstance(scripts, list) and all(
                isinstance(units, list) and all(isinstance(u, str) for u in units)
                for units in scripts)):
            raise SimtransError(
                f"{args.script_file}: a script file holds one list of unit strings per sentence"
            )
        return scripts
    if not args.endpoint:
        raise SimtransError("--endpoint is required for the http backend")
    return HttpBackend(HttpBackendConfig(
        endpoint_url=args.endpoint,
        model_name=args.model,
        api_key_env=args.api_key_env,
        top_p=args.top_p,
        max_unit_tokens=args.max_unit_tokens,
        timeout_ms=args.timeout_ms,
        retries=args.retries,
    ))


def cmd_simulate(args) -> int:
    if args.mode == "text":
        sources = [_tokenize_line(args.input, n, src) for n, src, _ in _read_pair_file(args.input)]
        make_stream = lambda idx: streams.TextStream(sources[idx])
    else:
        paths = sorted(glob.glob(os.path.join(glob.escape(args.input), "*.json")))
        if not paths:
            raise SimtransError(f"no transcript files in {args.input}")
        transcripts = [streams.read_transcript(p) for p in paths]
        make_stream = lambda idx: streams.AsrSimStream(transcripts[idx], args.window_ms)
        sources = transcripts

    shared = _build_shared_backend(args)
    if args.backend == "scripted" and len(shared) < len(sources):
        raise SimtransError(
            f"{args.script_file}: {len(shared)} script lists for {len(sources)} input sentences"
        )
    jobs = [(idx, k) for idx in range(len(sources)) for k in args.k]
    if args.backend == "replay":
        for idx, k in jobs:
            if (f"{idx:04d}", k) not in shared:
                raise SimtransError(f"{args.recording}: no trace of session {idx:04d} at k={k}")
    # only a run whose every input was accepted leaves an output directory
    os.makedirs(args.out_dir, exist_ok=True)

    engine_cfg = engine.EngineConfig(
        include_system=not args.no_system_message,
        target_language=args.target_language,
        wall_clock=args.wall_clock,
    )

    def run_one(job):
        idx, k = job
        if args.backend == "replay":
            _, rec, reading = shared[f"{idx:04d}", k]
            backend = ReplayBackend(*reading, rec["error"])
        elif args.backend == "scripted":
            backend = ScriptedBackend(shared[idx])
        else:
            backend = shared
        try:
            trace = engine.run_session(make_stream(idx), backend, k, engine_cfg)
            failed = False
        except SessionError as exc:
            trace = exc.partial_trace
            failed = True
        trace.session_id = f"{idx:04d}"
        # written as soon as the session ends, so an aborted run keeps it
        _atomic_write(os.path.join(args.out_dir, f"{idx:04d}_k{k}.json"), trace.to_json() + "\n")
        return failed

    try:
        if args.workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=args.workers) as pool:
                failures = sum(pool.map(run_one, jobs))
        else:
            failures = sum(map(run_one, jobs))
    finally:
        if args.backend == "http":
            shared.close()

    print(f"wrote {len(jobs)} traces -> {args.out_dir} ({failures} failed)")
    return EXIT_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------- evaluate

def _read_traces(directory):
    """{(id, k): (path, record, engine.read_trace of it)} of the trace files in
    directory, in path order; a second trace of one (id, k) is refused."""
    paths = sorted(glob.glob(os.path.join(glob.escape(directory), "*.json")))
    if not paths:
        raise SimtransError(f"no trace files in {directory}")
    traces = {}
    for path in paths:
        rec = read_json(path)
        reading = engine.read_trace(rec, path)
        key = rec["id"], rec["k"]
        if key in traces:
            raise SimtransError(f"{path}: trace id {key[0]!r} at k={key[1]} is also in "
                                f"{traces[key][0]}")
        traces[key] = path, rec, reading
    return traces


def cmd_evaluate(args) -> int:
    from . import bleu, metrics
    from .rng import make_rng

    traces = _read_traces(args.traces)
    if args.histogram:
        # every input is read before the first output is written
        function_words = [w.strip() for w in lines(read_text(args.function_words)) if w.strip()]

    pairs = _read_pair_file(args.references)
    references = {f"{idx:04d}": (n, tgt) for idx, (n, _, tgt) in enumerate(pairs)}

    # by_k[k][id] = (path, record); one mode per k
    by_k = {}
    for (session_id, k), (path, rec, _) in traces.items():
        if session_id not in references:
            raise SimtransError(f"{path}: no reference for trace id {session_id!r}")
        group = by_k.setdefault(k, {})
        first_path, first = next(iter(group.values()), (path, rec))
        if rec["mode"] != first["mode"]:
            raise SimtransError(f"{path}: a {rec['mode']} trace among the {first['mode']} "
                                f"traces at k={k}, such as {first_path}")
        group[session_id] = (path, rec)

    # every session of the run is scored in one score_sessions call, so each
    # reference is tokenized and counted once however many k groups score it,
    # and each distinct 13a chunk is split once (memo lives for this call only)
    memo = {}
    ref_tokens = []
    ref_cache = {}
    delay_seqs, hyp_tokens, ref_index = [], [], []
    groups = []  # (k, first row, end row, unit, rtf)
    for k, group in sorted(by_k.items()):
        start = len(delay_seqs)
        total_processing = 0.0
        total_audio = 0.0
        timed = True
        for session_id, (path, rec) in group.items():
            if session_id not in ref_cache:
                n, ref_text = references[session_id]
                ref_cache[session_id] = (
                    len(ref_tokens),
                    len(_tokenize_line(args.references, n, ref_text)),
                )
                ref_tokens.append(bleu.tokenize_13a(ref_text, memo))
            ref_at, ref_len = ref_cache[session_id]
            speech = rec["mode"] == "speech"
            try:
                delay_seqs.append(metrics.DelaySequence(
                    g=rec["delays_ms" if speech else "delays_words"],
                    source_len=rec["source_total"],
                    ref_len=ref_len,
                ))
            except (TypeError, ValueError) as exc:
                raise SimtransError(f"{path}: {exc}") from exc
            hyp_tokens.append(bleu.tokenize_13a(" ".join(rec["hypothesis"]), memo))
            ref_index.append(ref_at)
            if rec.get("processing_ms") is None or not speech:
                timed = False
            else:
                total_processing += rec["processing_ms"]
                total_audio += rec["source_total"]
        unit = "ms" if speech else "words"  # every trace of a group has one mode
        rtf = metrics.real_time_factor(total_processing, total_audio) if timed else None
        groups.append((k, start, len(delay_seqs), unit, rtf))

    scores = metrics.score_sessions(delay_seqs, hyp_tokens, ref_tokens, ref_index)
    reports = {}
    bootstrap = {}
    for k, start, end, unit, rtf in groups:
        reports[k] = metrics.aggregate_report(scores[start:end], unit=unit, rtf=rtf)
        if args.bootstrap:
            bootstrap[k] = metrics.bootstrap_reports(
                scores[start:end], args.bootstrap, make_rng(args.seed), unit=unit, rtf=rtf
            )

    # every group is scored, and the curve made, before the first line is printed
    curve = metrics.tradeoff_curve(reports.items()) if args.curve else None
    for k, r in reports.items():
        print(f"k={k}: BLEU {r.bleu:.2f}  AL {r.al:.2f}  LAAL {r.laal:.2f}  "
              f"AP {r.ap:.3f}  DAL {r.dal:.2f}  ({r.unit})")
    out = {"reports": {str(k): r.to_record() for k, r in reports.items()}}
    if bootstrap:
        out["bootstrap"] = {str(k): b for k, b in bootstrap.items()}
    texts = {}  # output path -> its text; a path given twice gets the last
    if args.report:
        texts[args.report] = json.dumps(out, ensure_ascii=False, indent=2) + "\n"
    if args.curve:
        texts[args.curve] = curve
    if args.histogram:
        hist = metrics.wait_histogram([reading for _, _, reading in traces.values()],
                                      function_words)
        texts[args.histogram] = json.dumps({
            "counts": hist.counts,
            "function_count": hist.function_count,
            "content_count": hist.content_count,
            "function_share": hist.function_share,
        }, ensure_ascii=False, indent=2) + "\n"
    with _outputs(*texts) as tmps:
        for tmp, text in zip(tmps, texts.values()):
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
    return EXIT_OK


# ------------------------------------------------------------------ verify

def cmd_verify(args) -> int:
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
    p.add_argument("--alignments", help="Pharaoh file to use instead of EM alignment")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("build-dataset", help="emit fine-tuning samples from a causal corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--meta", help="hyperparameter sidecar path")
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("simulate", help="run streaming sessions against a backend")
    p.add_argument("--input", required=True, help="test JSONL (text) or transcript dir (speech)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--dict-file")
    p.add_argument("--script-file")
    p.add_argument("--recording", help="trace directory of the run to replay")
    p.add_argument("--no-system-message", action="store_true")
    p.add_argument("--wall-clock", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="score traces against references")
    p.add_argument("--traces", required=True, help="directory of trace JSON files")
    p.add_argument("--references", required=True, help="test JSONL with target fields")
    p.add_argument("--report", help="LatencyReport JSON output path")
    p.add_argument("--curve", help="quality-latency CSV output path")
    p.add_argument("--histogram", help="wait-position histogram JSON output path")
    p.add_argument("--function-words", default=_FUNCTION_WORDS)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("verify", help="re-check causal corpus invariants")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_verify)

    # every table option is a string flag; _resolve_options casts and bounds it
    for name, (cast, default, bounds, commands) in OPTIONS.items():
        for command in commands:
            sub.choices[command].add_argument(
                "--" + name.replace("_", "-"),
                metavar="{%s}" % ",".join(cast) if isinstance(cast, tuple) else None,
                help=f"default {default!r}" + (f", {bounds}" if bounds else ""),
            )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve_options(args)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except OSError as exc:
        # a failed os.replace names the destination second
        path = exc.filename if exc.filename2 is None else exc.filename2
        print(f"error: {path}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except SimtransError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
