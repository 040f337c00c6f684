import json
import re

import pytest

from simtrans.errors import ParseError
from simtrans.streams import (
    AsrSimStream,
    TextStream,
    TimedTranscript,
    read_transcript,
    write_transcript,
)

from oracles import asr_rescan


def transcript(end_times, total, words=None):
    words = words or [f"w{i+1}" for i in range(len(end_times))]
    return TimedTranscript(
        words=[{"w": w, "end_ms": t} for w, t in zip(words, end_times)],
        total_ms=total,
    )


def test_text_stream_order_and_clock():
    out = list(TextStream(["a", "b"]))
    assert out == [("a", 1), ("b", 2)]


def test_text_stream_empty():
    assert list(TextStream([])) == []


def test_text_stream_count(rng):
    for _ in range(50):
        n = int(rng.integers(0, 30))
        words = [f"x{i}" for i in range(n)]
        assert len(list(TextStream(words))) == n


def test_asr_windowing_hand_trace():
    # window 200: w2 visible at 400 but withheld as the last visible word;
    # the first tick past total exposes everything
    stream = AsrSimStream(transcript([150, 380, 900], 900), window_ms=200)
    assert list(stream) == [("w1", 400), ("w2", 1000), ("w3", 1000)]


def test_asr_single_word():
    stream = AsrSimStream(transcript([100], 100), window_ms=200)
    assert list(stream) == [("w1", 200)]


def test_asr_empty_transcript():
    empty = TimedTranscript(words=[], total_ms=0)
    assert list(AsrSimStream(empty, window_ms=200)) == []


def test_asr_window_must_be_positive():
    for window in (0, -200.0):
        with pytest.raises(ValueError, match="window_ms must be positive"):
            AsrSimStream(transcript([100], 100), window_ms=window)
    assert AsrSimStream(transcript([100], 100)).window_ms == 200.0


def test_asr_fuzz_invariants(rng):
    window = 200.0
    for _ in range(200):
        n = int(rng.integers(1, 15))
        gaps = rng.integers(30, 400, size=n)
        ends = [float(sum(gaps[: i + 1])) for i in range(n)]
        total = ends[-1] + float(rng.integers(0, 300))
        stream = AsrSimStream(transcript(ends, total), window_ms=window)
        seen = list(stream)
        assert len(seen) == n
        prev_stamp = 0.0
        for (word, stamp), end in zip(seen, ends):
            assert stamp >= end  # never exposed before its audio finishes
            assert stamp % window == 0.0
            assert stamp >= prev_stamp
            prev_stamp = stamp


def test_asr_matches_rescan_oracle(rng):
    def check(ends, total, window):
        words = [f"w{i}" for i in range(len(ends))]
        stream = AsrSimStream(transcript(ends, total, words), window_ms=window)
        expected = list(zip(words, asr_rescan(ends, total, window)))
        assert list(stream) == expected, (ends, total, window)

    # ends on window edges, totals on and past the last end and on a window
    # edge, a window longer than the talk, and windows that skip several
    # words at once
    check([200.0], 200.0, 200.0)
    check([200.0, 400.0, 600.0], 600.0, 200.0)
    check([199.0, 200.0, 201.0], 201.0, 200.0)
    check([10.0, 20.0, 30.0], 1000.0, 200.0)
    check([10.0, 20.0, 30.0], 30.0, 5000.0)
    check([50.0, 60.0, 70.0, 900.0, 910.0], 1400.0, 200.0)
    check([0.5, 1.0, 1.5], 1.5, 0.25)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        gaps = rng.integers(1, 500, size=n)
        ends = [float(e) for e in gaps.cumsum()]
        total = ends[-1] + float(rng.choice([0, 0, int(rng.integers(1, 700))]))
        window = float(rng.choice([50, 100, 200, 333, 1000]))
        check(ends, total, window)


def test_transcript_validation():
    with pytest.raises(ValueError):
        transcript([100, 90], 200)
    with pytest.raises(ValueError):
        transcript([100, 300], 250)


@pytest.mark.parametrize("word", [5, None, "", "a b", " a", "a\u2028", "<WAIT>", "<FILLER>"])
def test_transcript_word_is_one_plain_word(tmp_path, word):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"words": [{"w": word, "end_ms": 100.0}], "total_ms": 200.0}))
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: bad transcript: "):
        read_transcript(path)


def test_transcript_file_round_trip(tmp_path):
    t = transcript([120, 400], 500)
    t.reference = "hello there"
    path = tmp_path / "t.json"
    write_transcript(t, path)
    loaded = read_transcript(path)
    assert loaded.to_record() == t.to_record()
