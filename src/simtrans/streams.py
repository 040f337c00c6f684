"""Timed source-word delivery for text and simulated-speech sessions.

Text mode delivers words instantly; the stream clock just counts words.
Speech mode replays a timed transcript through fixed-window incremental
recognition: every window (200 ms by default) the recognizer re-reads all
audio so far and its last word is withheld, because a window boundary tends
to clip it mid-phoneme. Once the full audio is in, everything is exposed.
"""

import json
import math
from dataclasses import dataclass

from .errors import ParseError
from .inputs import read_json
from .units import MARKERS


class SourceStream:
    """Iterable of (word, stream clock) pairs plus clock metadata."""

    mode = "text"
    total_clock = None

    def __iter__(self):
        raise NotImplementedError


class TextStream(SourceStream):
    mode = "text"

    def __init__(self, sentence):
        self.words = list(sentence)
        self.total_clock = len(self.words)

    def __iter__(self):
        for i, w in enumerate(self.words, start=1):
            yield w, i


def _is_time(value) -> bool:
    """A finite int or float and no bool: an infinite total never ends the
    windowing, and a NaN end time passes every order check."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


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
        if not (_is_time(self.total_ms) and self.total_ms >= 0):
            raise ValueError(f"total_ms must be a finite non-negative number, "
                             f"got {self.total_ms!r}")
        self.words = [
            w if isinstance(w, TimedWord) else TimedWord(w["w"], w["end_ms"])
            for w in self.words
        ]
        prev = 0.0
        for w in self.words:
            # a word is non-empty, holds no whitespace and is no marker
            if not (isinstance(w.word, str) and w.word.split() == [w.word]) or w.word in MARKERS:
                raise ValueError(f"bad transcript word {w.word!r}")
            if not _is_time(w.end_ms):
                raise ValueError(f"end_ms must be a finite number, got {w.end_ms!r}")
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
    record = read_json(path)
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


class AsrSimStream(SourceStream):
    """Windowed exposure of a timed transcript.

    At tick t (a multiple of window_ms) the visible prefix is every word
    whose audio ended by t; all but the last visible word are exposed until
    t reaches the total duration, after which everything is exposed. Words
    are yielded once, stamped with the tick that first exposed them, so a
    stamp can exceed total_ms by up to one window.
    """

    mode = "speech"

    def __init__(self, transcript: TimedTranscript, window_ms: float = 200.0):
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        self.transcript = transcript
        self.window_ms = window_ms
        self.total_clock = transcript.total_ms

    def __iter__(self):
        words = self.transcript.words
        if not words:
            return
        total = self.transcript.total_ms
        window = self.window_ms
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
                exposed = visible - 1
            while emitted < exposed:
                yield words[emitted].word, tick
                emitted += 1
