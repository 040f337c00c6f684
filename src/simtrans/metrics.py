"""Latency metrics over per-word delay sequences, plus report aggregation.

All formulas consume g(t): the amount of source (words in text mode, ms of
audio in speech mode) consumed when hypothesis word t was committed.

    AP   = (1 / (|x| * |y|)) * sum_t g(t)
    AL   = (1 / tau) * sum_{t<=tau} [g(t) - (t-1)/gamma],  gamma = |y|/|x|,
           tau = first t with g(t) = |x| (|y| when never reached)
    LAAL = AL with gamma = max(|y|, |y_ref|)/|x|
    DAL  = (1 / |y|) * sum_t [g'(t) - (t-1)/gamma],
           g'(1) = g(1), g'(t) = max(g(t), g'(t-1) + 1/gamma)
    RTF  = processing time / source audio duration
"""

import csv
import io
import math
import operator
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .bleu import batch_stats, bleu_from_stats
from .errors import DegenerateInput, InputMismatch

_PLAIN_REALS = frozenset((int, float))
_REAL_TYPES = (int, float, np.integer, np.floating)


@dataclass
class DelaySequence:
    """g(t) for each hypothesis word t, so |y| is len(g)."""

    g: list
    source_len: float
    ref_len: int = None

    def __post_init__(self):
        # float() would take "1" and True; the set test passes plain lists fast
        if not _PLAIN_REALS.issuperset(map(type, self.g)):
            for v in self.g:
                if isinstance(v, bool) or not isinstance(v, _REAL_TYPES):
                    raise TypeError(f"delays must be numbers, got {v!r}")
        g = self.g = list(map(float, self.g))
        if not g:
            return
        if not math.isfinite(self.source_len):
            raise ValueError("the source length must be finite")
        if self.source_len <= 0:
            raise ValueError("the source length must be positive")
        # NaN fails every comparison, so a sequence that passes is finite too
        if 0.0 <= g[0] and g[-1] <= self.source_len and all(map(operator.le, g, g[1:])):
            return
        prev = 0.0
        for v in g:
            if not prev <= v:
                raise ValueError("delays must be finite" if not math.isfinite(v)
                                 else "delays must not be negative" if v < 0
                                 else "delays must be non-decreasing")
            prev = v
        if prev == math.inf:  # the last delay is the largest
            raise ValueError("delays must be finite")
        if prev > self.source_len:
            raise ValueError("a delay exceeds the source length")

    @property
    def hyp_len(self) -> int:
        return len(self.g)


def _lags(d: DelaySequence):
    """(AL, LAAL, DAL, truncated) of d, which has delays and a reference
    length, in one walk over g; truncated means g never reached |x|.

    AL and LAAL add g(t) - (t-1)/gamma for t up to tau, DAL adds
    g'(t) - (t-1)/gamma for every t, each left to right from 0.0.
    """
    g, source_len = d.g, d.source_len
    n = len(g)
    gamma = n / source_len
    gamma_laal = max(n, d.ref_len) / source_len
    step = 1.0 / gamma
    al = laal = dal = 0.0
    tau = 0
    g_prime = -math.inf  # so that g'(1) = max(g(1), -inf + step) = g(1)
    for t, v in enumerate(g):  # t is the 1-based t minus one
        lag = t / gamma
        if not tau:
            al += v - lag
            laal += v - t / gamma_laal
            if v >= source_len:
                tau = t + 1
        g_prime += step
        if not g_prime > v:  # g'(t) = max(g(t), g'(t-1) + step), g(t) on a tie
            g_prime = v
        dal += g_prime - lag
    truncated = not tau
    tau = tau or n
    return al / tau, laal / tau, dal / n, truncated


def average_proportion(d: DelaySequence) -> float:
    if not d.g:
        raise DegenerateInput("empty hypothesis")
    # sum, not a loop: Python 3.12's float sum is compensated
    return sum(d.g) / (d.source_len * d.hyp_len)


def real_time_factor(processing_ms: float, audio_ms: float) -> float:
    if audio_ms <= 0:
        raise DegenerateInput("audio duration must be positive")
    return processing_ms / audio_ms


@dataclass
class WaitHistogram:
    counts: dict = field(default_factory=dict)
    function_count: int = 0
    content_count: int = 0

    @property
    def total(self) -> int:
        return self.function_count + self.content_count

    @property
    def function_share(self) -> float:
        return self.function_count / self.total if self.total else 0.0


def wait_histogram(sessions, function_words) -> WaitHistogram:
    """Count the source word immediately preceding each wait event.

    sessions holds the waited_words of each session's events.
    """
    counts = {}
    for waited in sessions:
        for word in waited:
            counts[word] = counts.get(word, 0) + 1
    function_words = {w.lower() for w in function_words}
    function_count = sum(n for word, n in counts.items() if word.lower() in function_words)
    return WaitHistogram(counts, function_count, sum(counts.values()) - function_count)


@dataclass
class LatencyReport:
    bleu: float
    al: float
    laal: float
    ap: float
    dal: float
    rtf: float = None
    unit: str = "words"
    session_count: int = 0
    truncated_sessions: int = 0
    skipped_sessions: int = 0

    def to_record(self) -> dict:
        return asdict(self)


@dataclass
class SessionScores:
    """Every per-session quantity a report needs, computed once.

    Row i describes session i: its BLEU sufficient statistics (see
    bleu.STATS_WIDTH) and, when it produced words (scored[i]), its AL, LAAL,
    AP and DAL. Latency entries of unscored sessions are NaN and never read.
    """

    bleu_stats: np.ndarray   # (n, bleu.STATS_WIDTH) int64
    al: np.ndarray
    laal: np.ndarray
    ap: np.ndarray
    dal: np.ndarray
    scored: np.ndarray       # bool: hypothesis has at least one word
    truncated: np.ndarray    # bool: scored and g never reached |x|

    def __len__(self):
        return len(self.scored)

    def __getitem__(self, rows: slice) -> "SessionScores":
        """The scores of a range of sessions, as views of these arrays."""
        return SessionScores(*(getattr(self, f.name)[rows] for f in fields(self)))


def score_sessions(delay_seqs, hyp_tokens, ref_tokens, ref_index) -> SessionScores:
    """Count and time every session once.

    Session i's hypothesis is the 13a token list hyp_tokens[i] and its
    reference ref_tokens[ref_index[i]], so a reference shared by many
    sessions is tokenized and counted once. A caller scoring several groups
    passes them all at once and reports on each group's range of rows.
    """
    if len(delay_seqs) != len(hyp_tokens):
        raise InputMismatch("delay and hypothesis counts differ")
    bleu_stats = batch_stats(hyp_tokens, ref_tokens, ref_index)
    n = len(delay_seqs)
    latency = np.full((4, n), np.nan)
    scored = np.zeros(n, dtype=bool)
    truncated = np.zeros(n, dtype=bool)
    for i, d in enumerate(delay_seqs):
        if d.g:
            if d.ref_len is None:
                raise DegenerateInput("reference length required")
            scored[i] = True
            al, laal, dal, truncated[i] = _lags(d)
            latency[:, i] = al, laal, average_proportion(d), dal
    al, laal, ap, dal = latency
    return SessionScores(bleu_stats, al, laal, ap, dal, scored, truncated)


def _report(scores: SessionScores, idx, unit, rtf) -> LatencyReport:
    """The report over the sessions idx names, repeats and order included."""
    scored = idx[scores.scored[idx]]
    if not len(scored):
        raise DegenerateInput("no session produced any hypothesis words")

    def mean(values):
        # a left-to-right Python sum, so that means do not depend on the
        # summation order numpy picks
        return sum(values[scored].tolist()) / len(scored)

    return LatencyReport(
        bleu=bleu_from_stats(scores.bleu_stats[idx].sum(axis=0)),
        al=mean(scores.al),
        laal=mean(scores.laal),
        ap=mean(scores.ap),
        dal=mean(scores.dal),
        rtf=rtf,
        unit=unit,
        session_count=len(idx),
        truncated_sessions=int(scores.truncated[scored].sum()),
        skipped_sessions=len(idx) - len(scored),
    )


def aggregate_report(scores: SessionScores, unit="words", rtf=None) -> LatencyReport:
    """Corpus BLEU plus per-session latency means.

    Sessions with empty hypotheses still count for BLEU but are skipped in
    the latency means (their lag is undefined).
    """
    return _report(scores, np.arange(len(scores)), unit, rtf)


def bootstrap_reports(scores: SessionScores, n_resamples, rng, unit="words", rtf=None):
    """Mean and standard deviation per metric over resampled sentence sets.

    Each resample draws len(sessions) indices with replacement using the
    supplied generator and reduces the session scores over them.
    """
    if n_resamples < 1:
        raise ValueError("need at least one resample")
    size = len(scores)
    if size == 0:
        raise DegenerateInput("nothing to resample")
    samples = []
    for _ in range(n_resamples):
        idx = rng.integers(0, size, size=size)
        samples.append(_report(scores, idx, unit, rtf))

    out = {}
    for name in ("bleu", "al", "laal", "ap", "dal"):
        values = [getattr(s, name) for s in samples]
        m = sum(values) / len(values)
        var = sum((v - m) ** 2 for v in values) / len(values)
        out[name] = {"mean": m, "std": var ** 0.5}
    out["resamples"] = n_resamples
    return out


def tradeoff_curve(runs) -> str:
    """CSV of (k, quality, latency) rows sorted by k, for external plotting."""
    runs = list(runs)
    if len(runs) < 2:
        raise InputMismatch("a tradeoff curve needs at least two runs")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "bleu", "al", "laal", "ap", "dal", "rtf", "unit"])
    for k, report in sorted(runs, key=lambda kr: kr[0]):
        writer.writerow([
            k,
            f"{report.bleu:.4f}",
            f"{report.al:.4f}",
            f"{report.laal:.4f}",
            f"{report.ap:.6f}",
            f"{report.dal:.4f}",
            "" if report.rtf is None else f"{report.rtf:.4f}",
            report.unit,
        ])
    return buf.getvalue()
