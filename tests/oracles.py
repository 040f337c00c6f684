"""Independent reference implementations used as test oracles.

Everything here recomputes expected values by a different route than the
package code: dictionary-based EM, per-cell argmax linking through table
lookups, exhaustive search over wait placements, a from-scratch causality
scan over raw corpus records, ASR windowing that rescans every word on
every tick, evaluation that re-tokenizes and re-counts every sentence of
every resample from its strings, and prompt words parsed back from the
prompt text.
"""

import math
import re
from collections import Counter, defaultdict
from itertools import combinations_with_replacement

from simtrans.errors import DegenerateInput, InputMismatch
from simtrans.metrics import (
    LatencyReport,
    average_lagging,
    average_proportion,
    differentiable_al,
    is_truncated,
    length_adaptive_al,
)

WAIT = "<WAIT>"
FILLER = "<FILLER>"


def naive_em(pairs, iterations):
    """Dict-based lexical EM with a NULL source word, uniform init.

    Returns ({(source word or None, target word): prob}, [log-likelihoods]).
    """
    tgt_vocab = {w for _, t in pairs for w in t}
    support = set()
    for s, t in pairs:
        for f in t:
            for e in [None] + list(s):
                support.add((e, f))
    prob = {key: 1.0 / len(tgt_vocab) for key in support}
    history = []
    for _ in range(iterations):
        counts = defaultdict(float)
        totals = defaultdict(float)
        ll = 0.0
        for s, t in pairs:
            sources = [None] + list(s)
            for f in t:
                z = sum(prob[(e, f)] for e in sources)
                ll += math.log(z) - math.log(len(sources))
                for e in sources:
                    c = prob[(e, f)] / z
                    counts[(e, f)] += c
                    totals[e] += c
        prob = {(e, f): counts[(e, f)] / totals[e] for (e, f) in support}
        history.append(ll)
    return prob, history


def _argmax_links(row_words, col_words, table):
    """Per-column argmax over row positions, one table.prob() lookup per cell.

    Returns links as (row position, column position). Ties go to the lowest
    row position; NULL must strictly beat every position to absorb the word.
    """
    links = set()
    for j, cw in enumerate(col_words):
        null_p = table.prob(None, cw)
        best_p = 0.0
        best_i = -1
        for i, rw in enumerate(row_words):
            p = table.prob(rw, cw)
            if p > best_p:
                best_p = p
                best_i = i
        if best_i >= 0 and best_p > 0.0 and best_p >= null_p:
            links.add((best_i, j))
    return links


def cell_links(src, tgt, forward, reverse):
    """Intersection of forward per-target and reverse per-source argmax links."""
    fwd = _argmax_links(src, tgt, forward)
    rev = {(i, j) for (j, i) in _argmax_links(tgt, src, reverse)}
    return fwd & rev


def min_waits_brute_force(target_len, constraints, max_waits):
    """Smallest wait count for which some placement satisfies causality.

    constraints maps target index j -> minimum emitted position. Tries every
    distribution of w waits over the target's insertion gaps, w = 0..max.
    Returns None if even max_waits is not enough.
    """
    gaps = range(target_len + 1)
    for w in range(max_waits + 1):
        for placement in combinations_with_replacement(gaps, w):
            ok = True
            for j, need in constraints.items():
                pos = j + sum(1 for gap in placement if gap <= j)
                if pos < need:
                    ok = False
                    break
            if ok:
                return w
    return None


def rescan_causality(record):
    """From-scratch causality check over a raw causal-corpus record.

    Returns True when every link's target word, located by counting
    non-wait words, sits at or after its source index.
    """
    target = record["target"]
    positions = [idx for idx, w in enumerate(target) if w != WAIT]
    for i, j in record["links"]:
        if j >= len(positions) or positions[j] < i:
            return False
    return len(record["source"]) == len(record["target"])


def asr_rescan(end_ms, total_ms, window_ms, drop_last_word=True):
    """Exposure ticks of a timed transcript, rescanning every word per tick.

    Returns one tick per word: the first multiple of window_ms at which the
    word is exposed. Before total_ms, the words whose audio ended by the
    tick are visible, and the last visible one is withheld when
    drop_last_word is set; from total_ms on, every word is exposed.
    """
    ticks = []
    tick = 0.0
    while len(ticks) < len(end_ms):
        tick += window_ms
        if tick >= total_ms:
            exposed = len(end_ms)
        else:
            visible = sum(1 for end in end_ms if end <= tick)
            exposed = visible - 1 if drop_last_word else visible
        while len(ticks) < exposed:
            ticks.append(tick)
    return ticks


def prompt_words(text):
    """(source words, target words) of a prompt, parsed from its text.

    Splits on the last " [/INST] " marker and the last "Translate this
    text: " lead before it, which assumes ordinary words that contain
    neither; text without the marker has no words.
    """
    head, sep, target_text = text.rpartition(" [/INST] ")
    if not sep:
        return (), ()
    lead = "Translate this text: "
    pos = head.rfind(lead)
    source_text = head[pos + len(lead):] if pos >= 0 else ""
    return tuple(source_text.split()), tuple(target_text.split())


def regex_tokenize_13a(line):
    """mteval-v13a tokenization with one regex substitution per rule."""
    norm = line.replace("<skipped>", "")
    norm = norm.replace("-\n", "").replace("\n", " ")
    norm = (
        norm.replace("&quot;", '"')
        .replace("&amp;", "&")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
    )
    norm = f" {norm} "
    norm = re.sub(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])", r" \1 ", norm)
    norm = re.sub(r"([^0-9])([\.,])", r"\1 \2 ", norm)
    norm = re.sub(r"([\.,])([^0-9])", r" \1 \2", norm)
    norm = re.sub(r"([0-9])(-)", r"\1 \2 ", norm)
    return re.sub(r"\s+", " ", norm).strip().split()


def _ngram_counts(tokens, max_order=4):
    counts = Counter()
    for n in range(1, max_order + 1):
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i : i + n])] += 1
    return counts


def string_corpus_bleu(hypotheses, references):
    """Corpus BLEU-4 from raw strings, tokenizing and counting every pair."""
    hypotheses = list(hypotheses)
    references = list(references)
    if not hypotheses or len(hypotheses) != len(references):
        raise InputMismatch(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    correct = [0] * 4
    total = [0] * 4
    sys_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_tokens = regex_tokenize_13a(hyp)
        ref_tokens = regex_tokenize_13a(ref)
        sys_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        ref_counts = _ngram_counts(ref_tokens)
        for ngram, count in _ngram_counts(hyp_tokens).items():
            n = len(ngram)
            total[n - 1] += count
            correct[n - 1] += min(count, ref_counts.get(ngram, 0))

    if sys_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(4):
        if correct[n] == 0 or total[n] == 0:
            return 0.0
        log_sum += math.log(correct[n] / total[n])
    brevity = 1.0 if sys_len >= ref_len else math.exp(1.0 - ref_len / sys_len)
    return 100.0 * brevity * math.exp(log_sum / 4)


def list_aggregate_report(delay_seqs, hypotheses, references, unit="words", rtf=None):
    """LatencyReport recomputed from lists: string BLEU, Python-sum means."""
    if not (len(delay_seqs) == len(hypotheses) == len(references)):
        raise InputMismatch("delay/hypothesis/reference counts differ")
    scored = [d for d in delay_seqs if d.hyp_len >= 1 and d.g]
    if not scored:
        raise DegenerateInput("no session produced any hypothesis words")

    def mean(values):
        return sum(values) / len(values)

    return LatencyReport(
        bleu=string_corpus_bleu(hypotheses, references),
        al=mean([average_lagging(d) for d in scored]),
        laal=mean([length_adaptive_al(d) for d in scored]),
        ap=mean([average_proportion(d) for d in scored]),
        dal=mean([differentiable_al(d) for d in scored]),
        rtf=rtf,
        unit=unit,
        session_count=len(delay_seqs),
        truncated_sessions=sum(1 for d in scored if is_truncated(d)),
        skipped_sessions=len(delay_seqs) - len(scored),
    )


def resample_bootstrap(delay_seqs, hypotheses, references, n_resamples, rng,
                       unit="words", rtf=None):
    """Bootstrap that rebuilds the lists and rescores them per resample."""
    size = len(delay_seqs)
    samples = []
    for _ in range(n_resamples):
        idx = rng.integers(0, size, size=size)
        report = list_aggregate_report(
            [delay_seqs[i] for i in idx],
            [hypotheses[i] for i in idx],
            [references[i] for i in idx],
            unit=unit,
            rtf=rtf,
        )
        samples.append(report.to_record())
    out = {}
    for name in ["bleu", "al", "laal", "ap", "dal"]:
        values = [s[name] for s in samples]
        m = sum(values) / len(values)
        var = sum((v - m) ** 2 for v in values) / len(values)
        out[name] = {"mean": m, "std": var ** 0.5}
    out["resamples"] = n_resamples
    return out
