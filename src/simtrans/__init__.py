"""Toolkit for causally aligned SiMT data, wait-k streaming sessions, and
quality-latency evaluation.

Each public name is imported from its module on first use (PEP 562), so
``import simtrans`` loads none of them: numpy comes in only with a name
whose module uses it (the aligner, BLEU, metrics, SFT sampling), and the
http client's stdlib stack only when an ``HttpBackend`` is built.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "AlignmentLinkSet": "links",
    "TranslationTable": "aligner",
    "align_corpus": "aligner",
    "import_alignments": "aligner",
    "train_table": "aligner",
    "DictionaryBackend": "backends",
    "HttpBackend": "backends",
    "HttpBackendConfig": "backends",
    "ReplayBackend": "backends",
    "ScriptedBackend": "backends",
    "corpus_bleu": "bleu",
    "tokenize_13a": "bleu",
    "CausalPair": "causal",
    "build_corpus": "causal",
    "causal_align": "causal",
    "read_corpus": "causal",
    "write_corpus": "causal",
    "EngineConfig": "engine",
    "SessionTrace": "engine",
    "read_trace": "engine",
    "run_session": "engine",
    "DelaySequence": "metrics",
    "LatencyReport": "metrics",
    "aggregate_report": "metrics",
    "average_proportion": "metrics",
    "real_time_factor": "metrics",
    "score_sessions": "metrics",
    "tradeoff_curve": "metrics",
    "wait_histogram": "metrics",
    "build_prompt": "prompt",
    "interpreter_system_message": "prompt",
    "SftConfig": "sft",
    "emit_samples": "sft",
    "training_meta": "sft",
    "trim_pair": "sft",
    "AsrSimStream": "streams",
    "TextStream": "streams",
    "TimedTranscript": "streams",
    "tokenize": "tokenizer",
    "FILLER_TOKEN": "units",
    "Signal": "units",
    "WAIT_TOKEN": "units",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
