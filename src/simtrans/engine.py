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

The prompt is a prompt.StepPrompt: the revealed and committed lists
themselves, which the backend reads during its call and never changes, and
text rendered only for a backend that asks for it, so a step costs the same
however long the sentence is.

Events are recorded as the dicts the trace file holds, keys in this order:
kind (read | write | wait | eos), the stream clock after the event, word
(read, write), g (write: source consumed at commit), wall_ms (wall_clock).
"""

import json
import time
from dataclasses import dataclass, field
from itertools import islice
from json.encoder import encode_basestring

from .errors import SessionError, SimtransError, WaitOverflow
from .prompt import DEFAULT_TARGET_LANGUAGE, StepPrompt, interpreter_system_message
from .streams import SourceStream, TextStream
from .units import Signal, WAIT_TOKEN

MAX_SUPPRESSED_WAITS = 3
_WAIT, _EOS = Signal.WAIT, Signal.EOS


@dataclass
class EngineConfig:
    include_system: bool = True    # False drops the <<SYS>> block entirely
    target_language: str = DEFAULT_TARGET_LANGUAGE
    wall_clock: bool = False       # stamp events and measure processing time


@dataclass
class SessionTrace:
    source_words: list
    hypothesis_words: list
    delays: list          # g(t) per hypothesis word
    k: int
    mode: str             # text | speech
    source_total: float   # |x| in words, or audio ms
    events: list = field(default_factory=list)  # event records, as in the file
    error: str = None     # None once the backend ended the session
    processing_ms: float = None
    session_id: str = None

    @property
    def finished(self) -> bool:
        return self.error is None

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
            "events": self.events,
        }
        if self.processing_ms is not None:
            rec["processing_ms"] = self.processing_ms
        return rec

    def to_json(self) -> str:
        """json.dumps(self.to_record(), ensure_ascii=False), the events
        written by template when each has a shape and values the engine writes."""
        rec = self.to_record()
        events = _events_json(rec["events"])
        if events is None:
            return json.dumps(rec, ensure_ascii=False)
        del rec["events"]
        processing_ms = rec.pop("processing_ms", None)  # the key after events
        text = json.dumps(rec, ensure_ascii=False)[:-1] + ', "events": ' + events
        if processing_ms is not None:
            text += ', "processing_ms": ' + json.dumps(processing_ms)
        return text + "}"


# The keys of each event the engine writes without a wall clock, and the
# json.dumps text of its values: json writes an int or a finite float as its
# repr, and a str as encode_basestring escapes it.
_READ = ("kind", "clock", "word")
_WRITE = ("kind", "clock", "word", "g")
_BARE = ("kind", "clock")
_READ_JSON = '{"kind": "read", "clock": %r, "word": %s}'
_WRITE_JSON = '{"kind": "write", "clock": %r, "word": %s, "g": %r}'
_BARE_JSON = '{"kind": "%s", "clock": %r}'


def _events_json(events):
    """json.dumps(events, ensure_ascii=False) when each event is a read,
    write, wait or eos with the engine's keys in the engine's order and its
    numbers are ints or finite floats; None for anything else."""
    if type(events) is not list:
        return None
    enc = encode_basestring
    parts = []
    add = parts.append
    try:
        for e in events:
            keys = tuple(e)
            kind = e["kind"]
            clock = e["clock"]
            # a bool, a float subclass, a NaN or an infinity is written otherwise
            if type(clock) is not int and (type(clock) is not float or clock - clock):
                return None
            if keys == _READ and kind == "read":
                add(_READ_JSON % (clock, enc(e["word"])))
            elif keys == _WRITE and kind == "write":
                g = e["g"]
                if type(g) is not int and (type(g) is not float or g - g):
                    return None
                add(_WRITE_JSON % (clock, enc(e["word"]), g))
            elif keys == _BARE and (kind == "wait" or kind == "eos"):
                add(_BARE_JSON % (kind, clock))
            else:
                return None  # another shape, wall_ms included
    except (TypeError, KeyError):  # no dict, no kind or clock, a word that is no str
        return None
    return "[" + ", ".join(parts) + "]"


def waited_words(events) -> list:
    """The source word read last before each wait event of one session.

    events are the session's trace event records; one that is not a read or
    a write of a string word, a wait or an eos raises TypeError or KeyError,
    so this one walk also checks them.
    """
    waited = []
    last_read = None
    for event in events:
        kind = event["kind"]
        if kind == "read":
            last_read = event["word"]
            if type(last_read) is not str:  # JSON decodes a string as str itself
                raise TypeError(event)
        elif kind == "wait":
            if last_read is not None:
                waited.append(last_read)
        elif kind == "write":
            if type(event["word"]) is not str:
                raise TypeError(event)
        elif kind != "eos":
            raise TypeError(event)
    return waited


def _ms_since(started):
    return (time.monotonic() - started) * 1000.0


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
    stream = iter(source)
    total = source.total_clock
    next_unit = backend.next_unit
    revealed, committed, delays, events = [], [], [], []
    clock = 0.0

    def make_trace(error=None):
        return SessionTrace(
            source_words=list(revealed),
            hypothesis_words=list(committed),
            delays=list(delays),
            k=k,
            mode=source.mode,
            source_total=total if total is not None else clock,
            events=list(events),
            error=error,
            processing_ms=None if started is None else _ms_since(started),
        )

    to_read = k        # source words to reveal before the next step
    exhausted = False  # the stream has ended; reveals are no-ops from then on
    unit = None
    suppress_wait = False
    suppressed_run = 0
    while True:
        seen = len(revealed)
        if not exhausted:
            for word, clock in islice(stream, to_read):
                revealed.append(word)
                event = {"kind": "read", "clock": clock, "word": word}
                if started is not None:
                    event["wall_ms"] = _ms_since(started)
                events.append(event)
            exhausted = len(revealed) - seen < to_read
        if unit is _WAIT and len(revealed) == seen:
            # the stream is dry: the last wait revealed nothing
            if suppress_wait:
                suppressed_run += 1
                if suppressed_run >= MAX_SUPPRESSED_WAITS:
                    err = "backend kept waiting after source exhaustion"
                    raise WaitOverflow(err, partial_trace=make_trace(error=err))
            else:
                suppress_wait = True
                suppressed_run = 0

        prompt = StepPrompt(revealed, committed, system_message)
        try:
            unit = next_unit(prompt, allow_wait=not suppress_wait)
        except SimtransError as exc:
            raise SessionError(str(exc), partial_trace=make_trace(error=str(exc))) from exc
        to_read = 1

        if unit is _WAIT:
            event = {"kind": "wait", "clock": clock}
        elif unit is _EOS:
            event = {"kind": "eos", "clock": clock}
        else:
            word = unit
            # a word is non-empty and holds no whitespace: it splits to itself
            if not isinstance(word, str) or word.split() != [word]:
                err = f"backend returned invalid word unit {word!r}"
                raise SessionError(err, partial_trace=make_trace(error=err))
            if word == WAIT_TOKEN:
                err = "backend returned the wait literal as a word unit"
                raise SessionError(err, partial_trace=make_trace(error=err))
            committed.append(word)
            g = clock if total is None else min(clock, total)
            delays.append(g)
            event = {"kind": "write", "clock": clock, "word": word, "g": g}
            suppress_wait = False
            suppressed_run = 0
        if started is not None:
            event["wall_ms"] = _ms_since(started)
        events.append(event)
        if unit is _EOS:
            return make_trace()
