"""Toolkit for causally aligned SiMT data, wait-k streaming sessions, and
quality-latency evaluation."""

from .aligner import (
    AlignmentLinkSet,
    TranslationTable,
    align_corpus,
    align_pair,
    import_alignments,
    train_table,
)
from .backends import (
    DictionaryBackend,
    HttpBackend,
    HttpBackendConfig,
    ReplayBackend,
    ScriptedBackend,
)
from .bleu import corpus_bleu, tokenize_13a
from .causal import CausalPair, build_corpus, causal_align, read_corpus, write_corpus
from .engine import EngineConfig, SessionTrace, run_session
from .metrics import (
    DelaySequence,
    LatencyReport,
    aggregate_report,
    average_lagging,
    average_proportion,
    differentiable_al,
    length_adaptive_al,
    real_time_factor,
    score_sessions,
    tradeoff_curve,
    wait_histogram,
    waited_words,
)
from .prompt import build_prompt, interpreter_system_message
from .sft import SftConfig, emit_samples, training_meta, trim_pair
from .streams import AsrSimConfig, AsrSimStream, TextStream, TimedTranscript
from .tokenizer import detokenize, tokenize
from .units import FILLER_TOKEN, Signal, WAIT_TOKEN

__version__ = "0.1.0"
