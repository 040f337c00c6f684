import itertools
import json

import numpy as np
import pytest

import oracles
from simtrans import engine
from simtrans import prompt as prompt_module
from simtrans.backends import DictionaryBackend, ScriptedBackend
from simtrans.engine import EngineConfig, SessionTrace, run_session
from simtrans.errors import ScriptUnderrun, SessionError, WaitOverflow, WriteOverflow
from simtrans.prompt import build_prompt, interpreter_system_message
from simtrans.streams import (
    AsrSimStream,
    SourceStream,
    TextStream,
    TimedTranscript,
)
from simtrans.units import Signal, WAIT_TOKEN

from conftest import GOLDEN

FIG_SOURCE = ["I", "like", "to", "have", "tea", "in", "the", "morning", "."]
FIG_SCRIPT = [Signal.WAIT, "Ya", "lyublyu", Signal.WAIT, "pit'", "chai",
              Signal.WAIT, "po", "utram.", Signal.EOS]


class NeverWaits:
    """Emits t1, t2, ... for as many words as the constructor allows."""

    def __init__(self, n):
        self.n = n
        self.count = 0

    def next_unit(self, prompt, allow_wait=True):
        self.count += 1
        if self.count > self.n:
            return Signal.EOS
        return f"t{self.count}"


def test_inference_trace_unit_sequence():
    trace = run_session(FIG_SOURCE, ScriptedBackend(FIG_SCRIPT), k=1)
    assert trace.hypothesis_words == ["Ya", "lyublyu", "pit'", "chai", "po", "utram."]
    assert trace.delays == [2, 3, 5, 6, 8, 9]
    assert trace.finished
    waits = [e for e in trace.events if e["kind"] == "wait"]
    assert len(waits) == 3


def test_inference_trace_matches_golden_bytes():
    trace = run_session(FIG_SOURCE, ScriptedBackend(FIG_SCRIPT), k=1)
    trace.session_id = "0000"
    golden = (GOLDEN / "inference_trace.json").read_text(encoding="utf-8")
    assert trace.to_json() + "\n" == golden


def test_gate_first_write_at_k():
    trace = run_session(["a", "b", "c", "d", "e"], NeverWaits(5), k=3)
    assert trace.delays == [3, 4, 5, 5, 5]


def test_immediate_eos():
    trace = run_session(["a", "b"], ScriptedBackend([Signal.EOS]), k=1)
    assert trace.hypothesis_words == []
    assert [e["kind"] for e in trace.events] == ["read", "eos"]
    assert trace.finished


def test_wait_k_equivalence_never_waiting():
    # classical schedule g(t) = min(t-1+k, |x|)
    for k in range(1, 6):
        for n in (k, k + 2, k + 7):
            source = [f"s{i}" for i in range(n)]
            trace = run_session(source, NeverWaits(n), k=k)
            assert trace.delays == [min(t - 1 + k, n) for t in range(1, n + 1)]


def test_dictionary_backend_simple():
    trace = run_session(["a", "a", "a"], DictionaryBackend({"a": "x"}), k=1)
    assert trace.hypothesis_words == ["x", "x", "x"]


def test_dictionary_backend_lookahead():
    backend = DictionaryBackend({f"s{i}": f"t{i}" for i in range(4)}, lookahead=1)
    trace = run_session(["s0", "s1", "s2", "s3"], backend, k=1)
    assert trace.hypothesis_words == ["t0", "t1", "t2", "t3"]
    assert trace.delays == [2, 3, 4, 4]


def test_prompt_progression():
    prompts = []

    class Spy:
        def __init__(self):
            self.inner = ScriptedBackend(FIG_SCRIPT)

        def next_unit(self, prompt, allow_wait=True):
            prompts.append(str(prompt))
            return self.inner.next_unit(prompt, allow_wait=allow_wait)

    run_session(FIG_SOURCE, Spy(), k=1)
    assert str(prompts[0]).endswith("Translate this text: I [/INST] ")
    assert str(prompts[2]).endswith("Translate this text: I like to [/INST] Ya")
    assert len(prompts) == len(FIG_SCRIPT)


def test_no_system_message_variant():
    cfg = EngineConfig(include_system=False)
    prompts = []

    class Spy:
        def next_unit(self, prompt, allow_wait=True):
            prompts.append(prompt)
            return Signal.EOS

    run_session(["a"], Spy(), k=1, cfg=cfg)
    assert "<<SYS>>" not in str(prompts[0])
    assert str(prompts[0]) == build_prompt(["a"], [], None)


def test_wait_overflow_after_exhaustion():
    script = [Signal.WAIT] * 10 + [Signal.EOS]
    with pytest.raises(WaitOverflow) as exc_info:
        run_session(["a", "b"], ScriptedBackend(script), k=1)
    trace = exc_info.value.partial_trace
    assert trace.error is not None
    assert not trace.finished and json.loads(trace.to_json())["finished"] is False
    # one read at start, one per revealing wait: both words were read
    assert trace.source_words == ["a", "b"]


def test_finished_is_having_no_error():
    trace = run_session(["a"], ScriptedBackend(["x", Signal.EOS]), k=1)
    assert trace.finished and json.loads(trace.to_json())["finished"] is True
    trace.error = "stopped"
    assert not trace.finished
    with pytest.raises(TypeError):
        SessionTrace([], [], [], k=1, mode="text", source_total=0, events_json="[]",
                     finished=True)


def test_post_exhaustion_wait_suppression_flag():
    seen_flags = []

    class Stubborn:
        def __init__(self):
            self.script = [Signal.WAIT, Signal.WAIT, "late", Signal.EOS]

        def next_unit(self, prompt, allow_wait=True):
            seen_flags.append(allow_wait)
            return self.script.pop(0)

    trace = run_session(["a"], Stubborn(), k=1)
    assert trace.hypothesis_words == ["late"]
    # first call may wait; after a dry wait the engine suppresses
    assert seen_flags[0] is True and seen_flags[1] is False


def test_script_underrun_becomes_session_error():
    with pytest.raises(SessionError):
        run_session(["a", "b", "c"], ScriptedBackend(["x"]), k=1)
    with pytest.raises(ScriptUnderrun):
        ScriptedBackend([]).next_unit("p")


def test_invalid_word_units_rejected():
    class Bad:
        def __init__(self, unit):
            self.unit = unit

        def next_unit(self, prompt, allow_wait=True):
            return self.unit

    for bad in ["two words", "", WAIT_TOKEN]:
        with pytest.raises(SessionError):
            run_session(["a"], Bad(bad), k=1)


def test_gate_fuzz_no_early_writes(rng):
    for _ in range(200):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(k, 21))
        source = [f"s{i}" for i in range(n)]
        units = []
        writes = 0
        while writes < n:
            if rng.random() < 0.3:
                units.append(Signal.WAIT)
            else:
                writes += 1
                units.append(f"h{writes}")
        units.append(Signal.EOS)
        try:
            trace = run_session(source, ScriptedBackend(units), k=k)
        except WaitOverflow as exc:
            trace = exc.partial_trace
        revealed = 0
        for event in trace.events:
            if event["kind"] == "read":
                revealed += 1
            elif event["kind"] == "write":
                assert revealed >= k, (k, revealed)
        assert WAIT_TOKEN not in trace.hypothesis_words
        assert trace.delays == sorted(trace.delays)
        assert all(g <= n for g in trace.delays)


def test_source_shorter_than_k_still_translates():
    # the gate relaxes once the stream ends: reveal everything, then write
    trace = run_session(["a", "b"], DictionaryBackend({"a": "x", "b": "y"}), k=5)
    assert trace.hypothesis_words == ["x", "y"]
    assert trace.delays == [2, 2]


def test_speech_mode_delays_clamped():
    transcript = TimedTranscript(
        words=[{"w": "a", "end_ms": 150}, {"w": "b", "end_ms": 380}, {"w": "c", "end_ms": 900}],
        total_ms=900,
    )
    stream = AsrSimStream(transcript, window_ms=200)
    trace = run_session(stream, NeverWaits(3), k=1)
    assert trace.mode == "speech"
    assert trace.source_total == 900
    assert all(g <= 900 for g in trace.delays)
    assert trace.delays == sorted(trace.delays)


def test_k_validation():
    with pytest.raises(ValueError):
        run_session(["a"], NeverWaits(1), k=0)


def _refuse_to_render(*args):
    raise AssertionError("prompt text was rendered")


def test_word_backends_never_render_prompt_text(monkeypatch):
    # build_prompt, under whatever name a module imports it, ends in Prompt()
    monkeypatch.setattr(prompt_module, "Prompt", _refuse_to_render)
    source = [f"s{i}" for i in range(3200)]
    trace = run_session(source, DictionaryBackend({"s0": "t0"}), k=3)
    assert trace.finished and len(trace.hypothesis_words) == 3200
    words = [{"w": f"s{i}", "end_ms": 90.0 * (i + 1)} for i in range(300)]
    stream = AsrSimStream(TimedTranscript(words=words, total_ms=27000.0),
                          window_ms=200)
    trace = run_session(stream, DictionaryBackend({}, lookahead=1), k=2)
    assert trace.finished and len(trace.hypothesis_words) == 300
    trace = run_session(FIG_SOURCE, ScriptedBackend(FIG_SCRIPT), k=1)
    assert trace.finished


@pytest.mark.parametrize("include_system", [True, False])
def test_step_prompt_reads_its_own_step_during_the_call(monkeypatch, include_system):
    renders = []

    def counting_render(*args):
        renders.append(args)
        return build_prompt(*args)

    monkeypatch.setattr(prompt_module, "build_prompt", counting_render)
    seen = []  # (source, target, text) as each call read them

    class Reader:
        def __init__(self):
            self.inner = DictionaryBackend({f"s{i}": f"t{i}" for i in range(30)}, lookahead=1)

        def next_unit(self, prompt, allow_wait=True):
            assert str(prompt) is str(prompt)
            seen.append((tuple(prompt.source), tuple(prompt.target), str(prompt)))
            return self.inner.next_unit(prompt, allow_wait=allow_wait)

    source = [f"s{i}" for i in range(30)]
    trace = run_session(source, Reader(), k=2, cfg=EngineConfig(include_system=include_system))
    system = interpreter_system_message() if include_system else None
    # the words each call saw, replayed from the trace: one call per event
    # other than a read
    expected, revealed, committed = [], [], []
    for event in trace.events:
        if event["kind"] == "read":
            revealed.append(event["word"])
            continue
        expected.append(build_prompt(list(revealed), list(committed), system))
        if event["kind"] == "write":
            committed.append(event["word"])
    assert len(seen) == len(expected) > len(source)
    assert [(s, t) for s, t, _ in seen] == [(p.source, p.target) for p in expected]
    assert [text for _, _, text in seen] == expected
    assert len(renders) == len(seen)


def test_word_check_matches_isspace_for_every_code_point():
    # the engine accepts a word unit when word.split() == [word]
    assert "".split() != [""]
    for cp in range(0x110000):
        c = chr(cp)
        embedded = f"a{c}b"
        assert (c.split() != [c]) == c.isspace() == (embedded.split() != [embedded]), hex(cp)


def test_every_whitespace_code_point_is_rejected_inside_a_word():
    spaces = [chr(cp) for cp in range(0x110000) if chr(cp).isspace()]
    assert len(spaces) > 20
    for c in spaces:
        with pytest.raises(SessionError):
            run_session(["a"], ScriptedBackend([f"x{c}y", Signal.EOS]), k=1)
    for word in ["x\u200by", "x\u00ady", "x\ufeffy"]:  # not whitespace
        trace = run_session(["a"], ScriptedBackend([word, Signal.EOS]), k=1)
        assert trace.hypothesis_words == [word]


# words json escapes (quote, backslash, C0 controls) or leaves alone
# (U+2028/2029, DEL, non-BMP), and numbers whose repr is their JSON text
_FUZZ_WORDS = ["plain", 'say"hi"', "back\\slash", "\x00", "a\x1fb", "tab\tnew\nline",
               "\u2028", "\u2029", "\x7f", "é", "\U0001f600x", "", "<WAIT>"]
_FUZZ_NUMBERS = [0, 1, 7, 12345678901234567890, 200.0, 1e16, 5e-324, -0.0, 0.1 + 0.2, 1.5e300]
# values and shapes the engine never writes
_ODD_EVENTS = [
    {"kind": "read", "clock": 1, "word": "a", "extra": 1},
    {"kind": "wait", "clock": True},
    {"kind": "write", "clock": 1, "word": "a", "g": False},
    {"kind": "eos", "clock": float("nan")},
    {"kind": "write", "clock": 1, "word": "a", "g": float("inf")},
    {"kind": "read", "clock": float("-inf"), "word": "a"},
    {"clock": 1, "kind": "wait"},
    {"kind": "read", "word": "a", "clock": 1},
    {"kind": "read", "clock": 1, "word": 5},
    {"kind": "read", "clock": 1},
    {"kind": "jump", "clock": 1},
    {"kind": "write", "clock": 1, "word": "a"},
    {"kind": "read", "clock": "1", "word": "a"},
    {"kind": "read", "clock": None, "word": "a"},
    {},
    ["kind", "clock"],
    "read",
]


def _pick(rng, values):
    """One of values as it is: numpy's choice would turn numbers into numpy scalars."""
    return values[int(rng.integers(0, len(values)))]


def _fuzz_event(rng):
    kind = _pick(rng, ["read", "write", "wait", "eos"])
    event = {"kind": kind, "clock": _pick(rng, _FUZZ_NUMBERS)}
    if kind in ("read", "write"):
        event["word"] = _pick(rng, _FUZZ_WORDS)
    if kind == "write":
        event["g"] = _pick(rng, _FUZZ_NUMBERS)
    return event


def test_trace_json_equals_json_dumps_fuzz(rng):
    # hand-built traces: the text of every record a SessionTrace can be built
    # from is json.dumps of that record, odd events and all
    for _ in range(600):
        events = [_fuzz_event(rng) for _ in range(int(rng.integers(0, 12)))]
        roll = rng.random()
        if roll < 0.2 and events:  # a wall clock stamps every event
            for event in events:
                event["wall_ms"] = _pick(rng, _FUZZ_NUMBERS)
        elif roll < 0.5:
            events.insert(int(rng.integers(0, len(events) + 1)), _pick(rng, _ODD_EVENTS))
        words = [_pick(rng, _FUZZ_WORDS) for _ in range(int(rng.integers(0, 5)))]
        fields = dict(
            source=words,
            hypothesis=words[::-1],
            delays=[_pick(rng, _FUZZ_NUMBERS) for _ in words],
            k=int(rng.integers(1, 6)),
            mode=_pick(rng, ["text", "speech"]),
            source_total=_pick(rng, _FUZZ_NUMBERS),
            events=events,
            error=_pick(rng, [None, 'backend said "no"\n\u2028']),
            processing_ms=_pick(rng, [None, *_FUZZ_NUMBERS, float("nan"), "\u00e9"]),
            session_id=_pick(rng, ["0000", "id\\\u2029"]),
        )
        events_json = json.dumps(events, ensure_ascii=False)
        trace = SessionTrace(words, words[::-1], fields["delays"], fields["k"], fields["mode"],
                             fields["source_total"], events_json, error=fields["error"],
                             processing_ms=fields["processing_ms"],
                             session_id=fields["session_id"])
        assert trace.to_json() == oracles.trace_json(**fields)
        # the events read back are the records they were built from, in the
        # text json writes for them (a NaN is no equal of itself)
        assert json.dumps(trace.events, ensure_ascii=False) == events_json
    # events_json is the one stored form: events are read from it, never assigned
    with pytest.raises(AttributeError):
        trace.events = []


class _LoggedSource(SourceStream):
    """A source that logs each item as the engine takes it."""

    def __init__(self, items, log, mode="text", total_clock=None):
        self.items, self.log = items, log
        self.mode, self.total_clock = mode, total_clock

    def __iter__(self):
        for word, clock in self.items:
            self.log.append(("read", word, clock))
            yield word, clock


class _LoggedBackend:
    """A backend that logs each unit it answers, from a script or another backend."""

    def __init__(self, log, units=(), inner=None):
        self.log, self.units, self.inner = log, iter(units), inner

    def next_unit(self, prompt, allow_wait=True):
        if self.inner is None:
            unit = next(self.units, Signal.EOS)
        else:
            unit = self.inner.next_unit(prompt, allow_wait=allow_wait)
        self.log.append(("unit", unit))
        return unit


def _ticks():
    """Monotonic readings a wall clock takes: odd steps, so each wall_ms has a long repr."""
    return (1000.0 + 0.0123456789 * i * i for i in itertools.count())


def _run_logged(monkeypatch, source, backend, k, wall_clock, log):
    """(run_session + to_json's text or the exception either raised, the oracle's
    text or the exception json.dumps raised), the oracle fed by log alone."""
    monkeypatch.setattr(engine.time, "monotonic", _ticks().__next__)
    error = None
    try:
        try:
            trace = run_session(source, backend, k, EngineConfig(wall_clock=wall_clock))
        except SessionError as exc:
            trace, error = exc.partial_trace, str(exc)
        got = trace.to_json()
    except (TypeError, ValueError) as exc:
        got = type(exc)
    try:
        want = oracles.session_trace_json(log, k, source.mode, source.total_clock, error,
                                          _ticks() if wall_clock else None)
    except (TypeError, ValueError) as exc:
        want = type(exc)
    return got, want


def test_run_session_traces_equal_json_dumps(monkeypatch):
    # the engine's own events, with and without a wall clock, in both modes
    transcript = TimedTranscript(
        words=[{"w": w, "end_ms": 33.3 * (i + 1)} for i, w in enumerate("abcd")], total_ms=140.0)
    for wall_clock in (False, True):
        for stream, backend, k in (
                (TextStream(['"a"', "b\\", "c\U0001f600", "\x7f"]),
                 DictionaryBackend({}, lookahead=1), 2),
                (AsrSimStream(transcript, window_ms=33.3), DictionaryBackend({}), 1)):
            log = []
            source = _LoggedSource(list(stream), log, stream.mode, stream.total_clock)
            got, want = _run_logged(monkeypatch, source, _LoggedBackend(log, inner=backend), k,
                                    wall_clock, log)
            assert isinstance(got, str) and got == want and ('"wall_ms"' in got) == wall_clock


class _Word(str):
    pass


class _Clock(int):
    pass


# clocks and words json writes otherwise than a plain int, finite float or
# str, or cannot write at all (np.int64, a set, bytes, a circular list)
_circular = []
_circular.append(_circular)
_ODD_CLOCKS = [True, False, _Clock(3), np.float64(2.5), np.float64("nan"), float("nan"),
               float("inf"), float("-inf"), -0.0, 1e16, 12345678901234567890, "7", None,
               np.int64(4)]
_ODD_WORDS = [_Word("wörd"), _Word('q"\\'), "\u2028", "\U0001f600", "tab\tnl\n", "\x00",
              5, 2.5, None, True, ["a", 1], {"a": float("nan")}, b"x", {1, 2}, _circular]
_FUZZ_UNITS = ["x", _Word("y\U0001f600"), "\U0001f600", 'sa"y', "two words", "", WAIT_TOKEN, 7]


def test_engine_trace_json_equals_an_oracle_record_fuzz(monkeypatch, rng):
    ran = raised = failed = 0
    for _ in range(800):
        log = []
        n = int(rng.integers(0, 7))
        words = [_pick(rng, _FUZZ_WORDS + _ODD_WORDS) if rng.random() < 0.3 else f"w{i}"
                 for i in range(n)]
        if rng.random() < 0.5:
            clocks = [_pick(rng, _ODD_CLOCKS) if rng.random() < 0.3 else i + 1 for i in range(n)]
        else:
            clocks = [round(200.0 * (i + 1) + float(rng.random()), 3) for i in range(n)]
        mode = _pick(rng, ["text", "speech"])
        total = _pick(rng, [None, n, 150.0 * n, np.float64(150.0 * n), float("nan"),
                            _pick(rng, _ODD_CLOCKS)])
        units = []
        for _ in range(int(rng.integers(0, 4 * n + 12))):
            roll = rng.random()
            units.append(Signal.WAIT if roll < 0.3 else Signal.EOS if roll < 0.33 else
                         _pick(rng, _FUZZ_UNITS) if roll < 0.4 else f"h{len(units)}")
        source = _LoggedSource(list(zip(words, clocks)), log, mode, total)
        got, want = _run_logged(monkeypatch, source, _LoggedBackend(log, units),
                                int(rng.integers(1, 4)), rng.random() < 0.5, log)
        assert got == want, log
        if not isinstance(want, str):
            raised += 1
        elif json.loads(want)["finished"]:
            ran += 1
        else:
            failed += 1
    # sessions ended, failed and raised, often
    assert ran > 200 and failed > 100 and raised > 50, (ran, failed, raised)


def test_writes_after_source_exhaustion_are_bounded():
    cap = engine.MAX_TAIL_WRITES_PER_WORD
    # on two source words, one write reveals "b" and the next 2 * cap find
    # the source ended: one more and the session is a runaway
    trace = run_session(["a", "b"], ScriptedBackend(["x"] * (1 + 2 * cap) + [Signal.EOS]), k=1)
    assert trace.finished and len(trace.hypothesis_words) == 1 + 2 * cap
    with pytest.raises(WriteOverflow) as exc_info:
        run_session(["a", "b"], ScriptedBackend(["x"] * 1000), k=1)
    trace = exc_info.value.partial_trace
    assert trace.error == "backend kept writing after source exhaustion"
    assert trace.source_words == ["a", "b"] and trace.hypothesis_words == ["x"] * (2 + 2 * cap)
    assert [e["kind"] for e in trace.events][-2:] == ["write", "write"]
    # an empty source still gets cap writes, and waits do not count
    trace = run_session([], ScriptedBackend([Signal.WAIT, "x"] * cap + [Signal.EOS]), k=1)
    assert trace.finished and len(trace.hypothesis_words) == cap
    with pytest.raises(WriteOverflow):
        run_session([], ScriptedBackend(["x"] * (cap + 1)), k=1)
