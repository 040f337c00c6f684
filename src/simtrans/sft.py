"""Supervised fine-tuning sample emission from a causal corpus.

Each causal pair yields one or more samples: a trim length l is drawn
uniformly from [1, aligned length], both sides are cut to their first l
aligned positions, fillers vanish, and every wait marker except a trailing
one vanishes with them. The surviving words are collated into the
instruction prompt; the completion (the only part a trainer should compute
loss on) is the partial target, possibly a lone trailing wait marker.
"""

import json
from dataclasses import dataclass
from json.encoder import encode_basestring

import numpy as np

from .causal import CausalPair
from .errors import RangeError
from .prompt import DEFAULT_TARGET_LANGUAGE, SOURCE_END, interpreter_system_message, prompt_head
from .rng import make_rng
from .units import FILLER_TOKEN, WAIT_TOKEN


@dataclass
class SftConfig:
    target_language: str = DEFAULT_TARGET_LANGUAGE
    seed: int = 0
    samples_per_pair: int = 1

    def __post_init__(self):
        if self.samples_per_pair < 1:
            raise ValueError("samples_per_pair must be >= 1")


def trim_pair(pair: CausalPair, l: int):
    """First l aligned positions of both sides, marker drop rules applied.

    Fillers always vanish; wait markers vanish unless one ends the trimmed
    target, in which case exactly that one survives.
    """
    length = pair.aligned_length()
    if not 1 <= l <= length:
        raise RangeError(f"trim length {l} outside [1, {length}]")
    cut_tgt = pair.target_words[:l]
    partial_source = [w for w in pair.source_words[:l] if w != FILLER_TOKEN]
    kept = [w for w in cut_tgt if w != WAIT_TOKEN]
    if cut_tgt and cut_tgt[-1] == WAIT_TOKEN:
        kept.append(WAIT_TOKEN)
    return partial_source, kept


def emit_samples(corpus, cfg: SftConfig):
    """(trim length, partial source, partial target) per sample, in corpus
    order, cfg.samples_per_pair samples per pair: same seed, same samples.

    A pair with no aligned position has no trim length to draw: RangeError
    names it by its 1-based place in corpus, before any sample is yielded.
    """
    corpus = list(corpus)
    lengths = [pair.aligned_length() for pair in corpus]
    if 0 in lengths:
        raise RangeError(f"pair {lengths.index(0) + 1} has no aligned position to trim")
    spp = cfg.samples_per_pair
    # one call draws every trim length, in sample order: PCG64 gives the
    # values of one integers(1, length + 1) call per sample
    high = np.repeat(np.array(lengths, dtype=np.int64), spp) + 1
    draws = make_rng(cfg.seed).integers(1, high).tolist()
    each = (pair for pair in corpus for _ in range(spp))
    for pair, l in zip(each, draws):
        yield l, *trim_pair(pair, l)


def write_samples(corpus, cfg: SftConfig, path) -> int:
    """One line per sample, json.dumps(..., ensure_ascii=False) of {"prompt":
    build_prompt(partial_source, []), "completion", "meta": {"trim_len",
    "source_len", "loss_mask_boundary": len(prompt)}}, rendered from the words.

    JSON escapes each character on its own, so the head all prompts share
    is escaped once here.
    """
    head = prompt_head(interpreter_system_message(cfg.target_language))
    open_head = encode_basestring(head)[:-1]  # without its closing quote
    lines = []
    for l, source, target in emit_samples(corpus, cfg):
        tail = " ".join(source) + SOURCE_END  # the prompt after its head
        lines.append(
            f'{{"prompt": {open_head}{encode_basestring(tail)[1:]}, '
            f'"completion": {encode_basestring(" ".join(target))}, '
            f'"meta": {{"trim_len": {l}, "source_len": {len(source)}, '
            f'"loss_mask_boundary": {len(head) + len(tail)}}}}}\n'
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
    return len(lines)


def training_meta(cfg: SftConfig) -> dict:
    """Hyperparameter sidecar for external trainers; no training happens here."""
    return {
        "lora_r": 16,
        "lora_alpha": 32,
        "epochs": 3,
        "batch_size": 25,
        "gradient_accumulation_steps": 4,
        "optimizer": "paged_adamw_32bit",
        "learning_rate": 0.00005,
        "warmup_steps": 10,
        "lr_schedule": "cosine_decay",
        "load_in_4bit": True,
        "wait_token": WAIT_TOKEN,
        "wait_token_id": 0,
        "seed": cfg.seed,
        "samples_per_pair": cfg.samples_per_pair,
        "system_message": interpreter_system_message(cfg.target_language),
    }


def write_training_meta(cfg: SftConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(training_meta(cfg), fh, ensure_ascii=False, indent=2)
        fh.write("\n")
