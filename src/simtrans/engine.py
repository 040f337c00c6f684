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

The prompt is a prompt.StepPrompt: word views of the revealed and committed
lists, which only grow, and text rendered only for a backend that asks for
it, so a step costs the same however long the sentence is.

Events are recorded as the dicts the trace file holds, keys in this order:
kind (read | write | wait | eos), the stream clock after the event, word
(read, write), g (write: source consumed at commit), wall_ms (wall_clock).
"""

import json
import time
from dataclasses import dataclass, field

from .errors import SessionError, SimtransError, WaitOverflow
from .prompt import DEFAULT_TARGET_LANGUAGE, StepPrompt, interpreter_system_message
from .streams import SourceStream, TextStream
from .units import Signal, WAIT_TOKEN

MAX_SUPPRESSED_WAITS = 3


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
        return json.dumps(self.to_record(), ensure_ascii=False)


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

    def record(event):
        if started is not None:
            event["wall_ms"] = now_ms()
        events.append(event)

    stream = iter(source)
    total = source.total_clock
    revealed, committed, delays, events = [], [], [], []
    clock = 0.0
    exhausted = False

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
        record({"kind": "read", "clock": clock, "word": word})
        return True

    for _ in range(k):
        if not read_one():
            break

    suppress_wait = False
    suppressed_run = 0
    while True:
        prompt = StepPrompt(revealed, committed, system_message)
        try:
            unit = backend.next_unit(prompt, allow_wait=not suppress_wait)
        except SimtransError as exc:
            raise SessionError(str(exc), partial_trace=make_trace(error=str(exc))) from exc

        if unit is Signal.EOS:
            record({"kind": "eos", "clock": clock})
            return make_trace()

        if unit is Signal.WAIT:
            record({"kind": "wait", "clock": clock})
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
        record({"kind": "write", "clock": clock, "word": word, "g": g})
        suppress_wait = False
        suppressed_run = 0
        read_one()
