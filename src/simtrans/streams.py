"""Timed source-word delivery for text and simulated-speech sessions.

Text mode delivers words instantly; the stream clock just counts words.
Speech mode replays a timed transcript through fixed-window incremental
recognition: every window (200 ms by default) the recognizer re-reads all
audio so far and its last word is withheld, because a window boundary tends
to clip it mid-phoneme. Once the full audio is in, everything is exposed.
"""

import json
from dataclasses import dataclass

from .errors import ParseError


class SourceStream:
    """Iterable of (word, stream clock) pairs plus clock metadata."""

    mode = "text"
    total_clock = None

    def __iter__(self):
        raise NotImplementedError


class TextStream(SourceStream):
    mode = "text"

    def __init__(self, sentence):
        self.words = list(getattr(sentence, "words", sentence))
        self.total_clock = len(self.words)

    def __iter__(self):
        for i, w in enumerate(self.words, start=1):
            yield w, i


@dataclass
class TimedWord:
    word: str
    end_ms: float


@dataclass
class TimedTranscript:
    words: list
    total_ms: float
    reference: str = ""

    def __post_init__(self):
        self.words = [
            w if isinstance(w, TimedWord) else TimedWord(w["w"], w["end_ms"])
            for w in self.words
        ]
        prev = 0.0
        for w in self.words:
            if w.end_ms <= prev:
                raise ValueError("word end times must be strictly increasing")
            prev = w.end_ms
        if self.words and self.total_ms < self.words[-1].end_ms:
            raise ValueError("total_ms must cover the last word")

    def to_record(self) -> dict:
        return {
            "words": [{"w": w.word, "end_ms": w.end_ms} for w in self.words],
            "total_ms": self.total_ms,
            "reference": self.reference,
        }

    @classmethod
    def from_record(cls, record: dict) -> "TimedTranscript":
        return cls(
            words=record["words"],
            total_ms=record["total_ms"],
            reference=record.get("reference", ""),
        )


def read_transcript(path) -> TimedTranscript:
    with open(path, encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", path=path) from exc
    try:
        return TimedTranscript.from_record(record)
    except KeyError as exc:
        raise ParseError(f"transcript lacks {exc}", path=path) from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad transcript: {exc}", path=path) from exc


def write_transcript(transcript: TimedTranscript, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(transcript.to_record(), fh, ensure_ascii=False)
        fh.write("\n")


@dataclass
class AsrSimConfig:
    window_ms: float = 200.0
    drop_last_word: bool = True

    def __post_init__(self):
        if self.window_ms <= 0:
            raise ValueError("window_ms must be positive")


class AsrSimStream(SourceStream):
    """Windowed exposure of a timed transcript.

    At tick t (a multiple of window_ms) the visible prefix is every word
    whose audio ended by t; all but the last visible word are exposed until
    t reaches the total duration, after which everything is exposed. Words
    are yielded once, stamped with the tick that first exposed them, so a
    stamp can exceed total_ms by up to one window.
    """

    mode = "speech"

    def __init__(self, transcript: TimedTranscript, cfg: AsrSimConfig = None):
        self.transcript = transcript
        self.cfg = cfg or AsrSimConfig()
        self.total_clock = transcript.total_ms

    def __iter__(self):
        words = self.transcript.words
        if not words:
            return
        total = self.transcript.total_ms
        window = self.cfg.window_ms
        n = len(words)
        emitted = 0
        visible = 0  # end times strictly increase, so the visible words are a prefix
        tick = 0.0
        while emitted < n:
            tick += window
            if tick >= total:
                exposed = n
            else:
                while visible < n and words[visible].end_ms <= tick:
                    visible += 1
                exposed = visible - 1 if self.cfg.drop_last_word else visible
            while emitted < exposed:
                yield words[emitted].word, tick
                emitted += 1
