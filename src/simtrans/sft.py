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

from .causal import CausalPair
from .errors import RangeError
from .prompt import DEFAULT_TARGET_LANGUAGE, build_prompt, interpreter_system_message
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


@dataclass
class SftSample:
    prompt: str
    completion: str
    trim_len: int
    source_len: int
    loss_mask_boundary: int

    def to_record(self) -> dict:
        return {
            "prompt": self.prompt,
            "completion": self.completion,
            "meta": {
                "trim_len": self.trim_len,
                "source_len": self.source_len,
                "loss_mask_boundary": self.loss_mask_boundary,
            },
        }


def trim_pair(pair: CausalPair, l: int):
    """First l aligned positions of both sides, marker drop rules applied.

    Fillers always vanish; wait markers vanish unless one ends the trimmed
    target, in which case exactly that one survives.
    """
    length = pair.aligned_length()
    if not 1 <= l <= length:
        raise RangeError(f"trim length {l} outside [1, {length}]")
    cut_src = pair.source_words[:l]
    cut_tgt = pair.target_words[:l]
    partial_source = [w for w in cut_src if w != FILLER_TOKEN]
    kept = [w for w in cut_tgt if w != WAIT_TOKEN]
    if cut_tgt and cut_tgt[-1] == WAIT_TOKEN:
        kept.append(WAIT_TOKEN)
    return partial_source, kept


def make_sample(pair: CausalPair, l: int, cfg: SftConfig) -> SftSample:
    partial_source, partial_target = trim_pair(pair, l)
    prompt = build_prompt(partial_source, [], interpreter_system_message(cfg.target_language))
    return SftSample(
        prompt=prompt,
        completion=" ".join(partial_target),
        trim_len=l,
        source_len=len(partial_source),
        loss_mask_boundary=len(prompt),
    )


def emit_samples(corpus, cfg: SftConfig):
    """Deterministic sample stream: same seed, same bytes."""
    rng = make_rng(cfg.seed)
    for pair in corpus:
        length = pair.aligned_length()
        for _ in range(cfg.samples_per_pair):
            l = int(rng.integers(1, length + 1))
            yield make_sample(pair, l, cfg)


def write_samples(corpus, cfg: SftConfig, path) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for sample in emit_samples(corpus, cfg):
            fh.write(json.dumps(sample.to_record(), ensure_ascii=False) + "\n")
            n += 1
    return n


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
