"""Policy-free streaming translation loop.

The engine owns segmentation mechanics only; all translation decisions live
in the backend. One session:

    reveal the first k source words
    loop:
        prompt <- system message + revealed source + committed target
        unit   <- backend(prompt)
        word   -> commit it, then reveal one more source word
        wait   -> reveal one more source word, commit nothing
        eos    -> stop

Writes are therefore gated on at least k revealed words (fewer only when the
whole stream is shorter than k). Once the stream is exhausted reveals become
no-ops and generation keeps going until end-of-sentence; a wait arriving then
is discarded, the backend is re-asked with waits suppressed, and three
consecutive suppressed waits abort the session as a livelock.
"""

import json
import time
from dataclasses import dataclass, field

from .errors import SessionError, SimtransError, WaitOverflow
from .prompt import DEFAULT_TARGET_LANGUAGE, build_prompt, interpreter_system_message
from .streams import SourceStream, TextStream
from .units import Signal, WAIT_TOKEN

MAX_SUPPRESSED_WAITS = 3


@dataclass
class EngineConfig:
    include_system: bool = True    # False drops the <<SYS>> block entirely
    target_language: str = DEFAULT_TARGET_LANGUAGE
    wall_clock: bool = False       # stamp events and measure processing time


@dataclass
class Event:
    kind: str            # read | write | wait | eos
    clock: float         # stream clock after the event
    word: str = None
    g: float = None      # write only: source consumed at commit
    wall_ms: float = None

    def to_record(self) -> dict:
        rec = {"kind": self.kind, "clock": self.clock}
        if self.word is not None:
            rec["word"] = self.word
        if self.g is not None:
            rec["g"] = self.g
        if self.wall_ms is not None:
            rec["wall_ms"] = self.wall_ms
        return rec


@dataclass
class SessionTrace:
    source_words: list
    hypothesis_words: list
    delays: list          # g(t) per hypothesis word
    k: int
    mode: str             # text | speech
    source_total: float   # |x| in words, or audio ms
    events: list = field(default_factory=list)
    finished: bool = False
    error: str = None
    processing_ms: float = None
    session_id: str = None

    def to_record(self) -> dict:
        delays_key = "delays_ms" if self.mode == "speech" else "delays_words"
        rec = {
            "id": self.session_id,
            "k": self.k,
            "mode": self.mode,
            "source": self.source_words,
            "hypothesis": self.hypothesis_words,
            delays_key: self.delays,
            "source_total": self.source_total,
            "finished": self.finished,
            "error": self.error,
            "events": [e.to_record() for e in self.events],
        }
        if self.processing_ms is not None:
            rec["processing_ms"] = self.processing_ms
        return rec

    def to_json(self) -> str:
        return json.dumps(self.to_record(), ensure_ascii=False)


def trace_from_record(rec: dict) -> SessionTrace:
    delays = rec.get("delays_ms") if rec.get("mode") == "speech" else rec.get("delays_words")
    events = [
        Event(
            kind=e["kind"],
            clock=e["clock"],
            word=e.get("word"),
            g=e.get("g"),
            wall_ms=e.get("wall_ms"),
        )
        for e in rec.get("events", [])
    ]
    return SessionTrace(
        source_words=rec["source"],
        hypothesis_words=rec["hypothesis"],
        delays=delays if delays is not None else [],
        k=rec["k"],
        mode=rec.get("mode", "text"),
        source_total=rec.get("source_total"),
        events=events,
        finished=rec.get("finished", False),
        error=rec.get("error"),
        processing_ms=rec.get("processing_ms"),
        session_id=rec.get("id"),
    )


def run_session(source, backend, k: int, cfg: EngineConfig = None) -> SessionTrace:
    """Run one streaming session to completion and return its trace.

    source may be a SourceStream or a plain word list (treated as text
    mode). Backend failures raise SessionError carrying the partial trace.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cfg = cfg or EngineConfig()
    if not isinstance(source, SourceStream):
        source = TextStream(source)

    system_message = (
        interpreter_system_message(cfg.target_language) if cfg.include_system else None
    )
    started = time.monotonic() if cfg.wall_clock else None

    def now_ms():
        return (time.monotonic() - started) * 1000.0 if started is not None else None

    stream = iter(source)
    total = source.total_clock
    revealed, committed, delays, events = [], [], [], []
    clock = 0.0
    exhausted = False

    def make_trace(finished=False, error=None):
        return SessionTrace(
            source_words=list(revealed),
            hypothesis_words=list(committed),
            delays=list(delays),
            k=k,
            mode=source.mode,
            source_total=total if total is not None else clock,
            events=list(events),
            finished=finished,
            error=error,
            processing_ms=now_ms(),
        )

    def read_one() -> bool:
        nonlocal clock, exhausted
        if exhausted:
            return False
        item = next(stream, None)
        if item is None:
            exhausted = True
            return False
        word, stamp = item
        revealed.append(word)
        clock = stamp
        events.append(Event(kind="read", clock=clock, word=word, wall_ms=now_ms()))
        return True

    for _ in range(k):
        if not read_one():
            break

    suppress_wait = False
    suppressed_run = 0
    while True:
        prompt = build_prompt(revealed, committed, system_message)
        try:
            unit = backend.next_unit(prompt, allow_wait=not suppress_wait)
        except SimtransError as exc:
            raise SessionError(str(exc), partial_trace=make_trace(error=str(exc))) from exc

        if unit is Signal.EOS:
            events.append(Event(kind="eos", clock=clock, wall_ms=now_ms()))
            return make_trace(finished=True)

        if unit is Signal.WAIT:
            events.append(Event(kind="wait", clock=clock, wall_ms=now_ms()))
            if read_one():
                continue
            # stream is dry: this wait revealed nothing
            if suppress_wait:
                suppressed_run += 1
                if suppressed_run >= MAX_SUPPRESSED_WAITS:
                    err = "backend kept waiting after source exhaustion"
                    raise WaitOverflow(err, partial_trace=make_trace(error=err))
            else:
                suppress_wait = True
                suppressed_run = 0
            continue

        word = unit
        if not isinstance(word, str) or not word or any(c.isspace() for c in word):
            err = f"backend returned invalid word unit {word!r}"
            raise SessionError(err, partial_trace=make_trace(error=err))
        if word == WAIT_TOKEN:
            err = "backend returned the wait literal as a word unit"
            raise SessionError(err, partial_trace=make_trace(error=err))
        committed.append(word)
        g = clock if total is None else min(clock, total)
        delays.append(g)
        events.append(Event(kind="write", clock=clock, word=word, g=g, wall_ms=now_ms()))
        suppress_wait = False
        suppressed_run = 0
        read_one()
