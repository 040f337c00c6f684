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
consecutive suppressed waits abort the session as a livelock. Writes after
exhaustion are bounded too: more than MAX_TAIL_WRITES_PER_WORD of them per
revealed source word (or in all, for an empty source) abort it as a runaway.

The prompt is a prompt.StepPrompt: the revealed and committed lists
themselves, which the backend reads during its call and never changes, and
text rendered only for a backend that asks for it, so a step costs the same
however long the sentence is.

Each event is written once, as it happens, as the JSON text the trace file
holds, keys in this order: kind (read | write | wait | eos), the stream clock
after the event, word (read, write), g (write: source consumed at commit),
wall_ms (wall_clock). SessionTrace keeps that text; its events decode it.
SessionTrace.to_json writes a trace file's record; read_trace is its one reader.
"""

import json
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring

from .errors import ParseError, SessionError, SimtransError, WaitOverflow, WriteOverflow
from .prompt import DEFAULT_TARGET_LANGUAGE, StepPrompt, interpreter_system_message
from .streams import SourceStream, TextStream
from .units import Signal, WAIT_TOKEN

MAX_SUPPRESSED_WAITS = 3
MAX_TAIL_WRITES_PER_WORD = 4
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
    events_json: str      # the events as the trace file holds them: one JSON array
    error: str = None     # None once the backend ended the session
    processing_ms: float = None
    session_id: str = None

    @property
    def events(self) -> list:
        """The event records, decoded from events_json on each read."""
        return json.loads(self.events_json)

    @property
    def finished(self) -> bool:
        return self.error is None

    def to_json(self) -> str:
        """The trace file's record as json.dumps(..., ensure_ascii=False)
        writes it, the events as the text they are kept as."""
        head = {"id": self.session_id, "k": self.k, "mode": self.mode,
                "source": self.source_words, "hypothesis": self.hypothesis_words,
                "delays_ms" if self.mode == "speech" else "delays_words": self.delays,
                "source_total": self.source_total, "finished": self.finished,
                "error": self.error}
        text = json.dumps(head, ensure_ascii=False)[:-1] + ', "events": ' + self.events_json
        if self.processing_ms is not None:
            text += ', "processing_ms": ' + json.dumps(self.processing_ms, ensure_ascii=False)
        return text + "}"


def _json(value, escaped):
    """json.dumps(value, ensure_ascii=False) of a clock or word. A plain str
    is escaped once per session, its text kept in escaped; an int and a
    finite float are their repr. Anything else, such as a bool, np.float64,
    a NaN, an infinity, a str subclass or a word that is no str, is written
    by json itself, and raises where json does."""
    kind = type(value)
    if kind is str:
        text = escaped.get(value)
        if text is None:
            text = escaped[value] = encode_basestring(value)
        return text
    if kind is int or kind is float and value - value == 0:
        return repr(value)
    return json.dumps(value, ensure_ascii=False)


_NUMBER = frozenset((int, float))  # the types JSON decodes a number to; a bool is neither
_FLOAT_MAX = sys.float_info.max
_STR = frozenset((str,))
_UNIT = frozenset((str, Signal))
_SIGNAL_OF = {"wait": _WAIT, "eos": _EOS}


def _finite(number):
    """A JSON number that is no NaN, no infinity and no int past float range."""
    return abs(number) <= _FLOAT_MAX


def read_trace(record, path=None):
    """(words, reads, units) of a trace file's record as json.load reads it,
    once every field any reader uses is checked; ParseError names path and
    the first fault. words are the source words read; per backend call that
    returned a unit, reads holds the words read before the call and units
    the unit (two lists: a tuple per call is one more object per call for
    the garbage collector). metrics.DelaySequence checks the delays' order."""
    if not isinstance(record, dict):
        raise ParseError("a trace must be a JSON object", path=path)
    for key in ("source", "hypothesis", "k", "mode", "events", "error"):
        if key not in record:
            raise ParseError(f"trace record lacks {key!r}", path=path)
    mode, hypothesis = record["mode"], record["hypothesis"]
    delays_key = "delays_ms" if mode == "speech" else "delays_words"
    delays = record.get(delays_key)
    total, processing = record.get("source_total"), record.get("processing_ms")
    for ok, problem in (
        (isinstance(record.get("id"), str), "id must be a string"),
        (type(record["k"]) is int, "k must be an integer"),
        (isinstance(hypothesis, list) and _STR.issuperset(map(type, hypothesis)),
         "hypothesis must be a list of words"),
        (mode in ("text", "speech"), "mode must be text or speech"),
        (isinstance(delays, list) and isinstance(hypothesis, list)
         and len(delays) == len(hypothesis),
         f"{delays_key} must hold one delay per hypothesis word"),
        (type(total) in _NUMBER, "source_total must be a number"),
        (type(total) not in _NUMBER or _finite(total), "source_total must be finite"),
        (processing is None or type(processing) in _NUMBER, "processing_ms must be a number"),
        (type(processing) not in _NUMBER or _finite(processing), "processing_ms must be finite"),
        (record["error"] is None or isinstance(record["error"], str),
         "error must be null or a string"),
    ):
        if not ok:
            raise ParseError(problem, path=path)
    for delay in delays:
        if type(delay) not in _NUMBER:
            raise ParseError(f"delays must be numbers, got {delay!r}", path=path)
        if not 0 <= delay <= _FLOAT_MAX:
            raise ParseError("delays must not be negative" if _finite(delay)
                             else "delays must be finite", path=path)
    if delays and total <= 0:
        raise ParseError("the source length must be positive", path=path)

    events = record["events"]
    words, reads, units = [], [], []
    try:
        for event in events:
            kind = event["kind"]
            if kind == "read":
                words.append(event["word"])
            else:
                reads.append(len(words))
                units.append(event["word"] if kind == "write" else _SIGNAL_OF[kind])
        ok = (type(events) is list and _STR.issuperset(map(type, words))
              and _UNIT.issuperset(map(type, units)))
    except (TypeError, KeyError):
        ok = False
    if not ok:
        raise ParseError("events must be a list of event records", path=path)
    return words, reads, units


def _ms_since(started):
    return (time.monotonic() - started) * 1000.0


def _wall_ms(started):
    """The end of an event's text under a wall clock."""
    return f', "wall_ms": {_ms_since(started)!r}}}'


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

    system_message = interpreter_system_message(cfg.target_language) if cfg.include_system else None
    started = time.monotonic() if cfg.wall_clock else None
    stream = iter(source)
    total = source.total_clock
    next_unit = backend.next_unit
    revealed, committed, delays = [], [], []
    events = []   # each event's JSON text
    escaped = {}  # each distinct word's JSON text
    clock, clock_json = 0.0, "0.0"
    total_json = _json(total, escaped)

    def make_trace(error=None):
        return SessionTrace(list(revealed), list(committed), list(delays), k, source.mode,
                            total if total is not None else clock, "[" + ", ".join(events) + "]",
                            error=error,
                            processing_ms=None if started is None else _ms_since(started))

    to_read = k        # source words to reveal before the next step
    exhausted = False  # the stream has ended; reveals are no-ops from then on
    unit = None
    suppress_wait = False
    suppressed_run = 0
    tail_writes = 0    # writes that found the stream ended
    while True:
        while to_read and not exhausted:
            try:
                word, clock = next(stream)
            except StopIteration:
                exhausted = True
                break
            to_read -= 1
            revealed.append(word)
            clock_json = _json(clock, escaped)
            end = "}" if started is None else _wall_ms(started)
            events.append(f'{{"kind": "read", "clock": {clock_json}, '
                          f'"word": {_json(word, escaped)}{end}')
        if exhausted and unit is not None:
            # the stream is dry: the last write or wait revealed nothing
            if unit is not _WAIT:
                tail_writes += 1
                if tail_writes > MAX_TAIL_WRITES_PER_WORD * max(len(revealed), 1):
                    err = "backend kept writing after source exhaustion"
                    raise WriteOverflow(err, partial_trace=make_trace(error=err))
            elif suppress_wait:
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

        if unit is not _WAIT and unit is not _EOS:
            # a word is non-empty and holds no whitespace: it splits to itself
            if not isinstance(unit, str) or unit.split() != [unit]:
                err = f"backend returned invalid word unit {unit!r}"
                raise SessionError(err, partial_trace=make_trace(error=err))
            if unit == WAIT_TOKEN:
                err = "backend returned the wait literal as a word unit"
                raise SessionError(err, partial_trace=make_trace(error=err))
        end = "}" if started is None else _wall_ms(started)
        if unit is _WAIT:
            events.append(f'{{"kind": "wait", "clock": {clock_json}{end}')
        elif unit is _EOS:
            events.append(f'{{"kind": "eos", "clock": {clock_json}{end}')
            return make_trace()
        else:
            committed.append(unit)
            g, g_json = ((total, total_json) if total is not None and total < clock
                         else (clock, clock_json))  # min(clock, total)
            delays.append(g)
            events.append(f'{{"kind": "write", "clock": {clock_json}, '
                          f'"word": {_json(unit, escaped)}, "g": {g_json}{end}')
            suppress_wait = False
            suppressed_run = 0
