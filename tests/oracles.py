"""Independent reference implementations used as test oracles.

Everything here recomputes expected values by a different route than the
package code: dictionary-based EM, array EM with one sweep per call over a
layout built word by word, per-cell argmax linking through table
lookups, exhaustive search over wait placements, a from-scratch causality
scan over raw corpus records, ASR windowing that rescans every word on
every tick, latency metrics each by its own formula and its own pass,
evaluation that re-tokenizes and re-counts every sentence of every
resample from its strings, prompt words parsed back from the
prompt text, tokenization that scans every character of every chunk, an
SFT file drawn one trim length at a time and json.dumps-encoded record by
record, traces that json.dumps encodes whole, and an engine trace rebuilt
from the source items and backend units its session saw.
"""

import json
import math
import re
import unicodedata
from collections import Counter, defaultdict
from itertools import combinations_with_replacement

import numpy as np

from simtrans.errors import DegenerateInput, InputMismatch
from simtrans.metrics import LatencyReport
from simtrans.prompt import build_prompt, interpreter_system_message
from simtrans.rng import make_rng
from simtrans.tokenizer import (
    _APOSTROPHES,
    _CONTRACTION_SUFFIXES,
    _SPLIT_CHARS,
    _keep_inline,
    _normalize_suffix,
    _peel_contractions,
)
from simtrans.units import Signal

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


def sweep_per_call_em(pairs, iterations):
    """The array EM of aligner.train_table, one sweep per kernel call.

    pairs are (row words, column words) in the table's direction. Word ids
    come from a per-word dict insertion in first-seen order and the event
    layout from a Python loop over pairs; every sweep re-derives its group
    and row sizes. The arithmetic is the same, in the same order, so the
    result must be bit-identical. Returns (probs over the table's slots,
    [log-likelihoods]).
    """
    src_index, tgt_index = {}, {}
    row_ids, col_ids, events = [], [], []
    group_ptr, ll_const = [0], 0.0
    for row_words, col_words in pairs:
        block = [0] + [src_index.setdefault(w, len(src_index) + 1) for w in row_words]
        for w in col_words:
            f = tgt_index.setdefault(w, len(tgt_index))
            row_ids.extend(block)
            col_ids.extend([f] * len(block))
            group_ptr.append(group_ptr[-1] + len(block))
        ll_const += len(col_words) * math.log(len(row_words) + 1)
    n_tgt = len(tgt_index)
    group_ptr = np.array(group_ptr, dtype=np.int64)
    slots, event_slot = np.unique(
        np.array(col_ids, dtype=np.int64) + np.array(row_ids, dtype=np.int64) * n_tgt,
        return_inverse=True,
    )
    row_ptr = np.searchsorted(slots // n_tgt, np.arange(len(src_index) + 2))
    probs = np.full(slots.size, 1.0 / n_tgt, dtype=np.float64)
    history = []
    for _ in range(iterations):
        w = probs[event_slot]
        z = np.add.reduceat(w, group_ptr[:-1])
        history.append(float(np.log(z).sum()) - ll_const)
        c = w / np.repeat(z, np.diff(group_ptr))
        counts = np.bincount(event_slot, weights=c, minlength=probs.size)
        row_sizes = np.diff(row_ptr)
        row_sums = np.zeros(row_sizes.size)
        full = row_sizes > 0
        row_sums[full] = np.add.reduceat(counts, row_ptr[:-1][full])
        probs = counts / np.repeat(row_sums, row_sizes)
    return probs, history


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


def sft_file(corpus, target_language, seed, samples_per_pair):
    """The bytes of the SFT file of corpus, (source words, target words) per
    pair: for each sample in corpus order, one integers(1, length + 1) draw,
    the first l positions of both sides with every filler and every wait but
    one in the last position dropped, and the record through json.dumps."""
    rng = make_rng(seed)
    system = interpreter_system_message(target_language)
    out = []
    for source, target in corpus:
        for _ in range(samples_per_pair):
            l = int(rng.integers(1, len(source) + 1))
            partial_source = [w for w in source[:l] if w != FILLER]
            partial_target = [w for p, w in enumerate(target[:l]) if w != WAIT or p == l - 1]
            prompt = str(build_prompt(partial_source, [], system))
            record = {"prompt": prompt, "completion": " ".join(partial_target),
                      "meta": {"trim_len": l, "source_len": len(partial_source),
                               "loss_mask_boundary": len(prompt)}}
            out.append(json.dumps(record, ensure_ascii=False) + "\n")
    return "".join(out).encode("utf-8")


def trace_json(session_id, k, mode, source, hypothesis, delays, source_total, error, events,
               processing_ms=None):
    """The text of one trace file, its record built from these fields, keys
    in the documented order, and encoded whole by json.dumps."""
    rec = {"id": session_id, "k": k, "mode": mode, "source": source, "hypothesis": hypothesis,
           "delays_ms" if mode == "speech" else "delays_words": delays,
           "source_total": source_total, "finished": error is None, "error": error,
           "events": events}
    if processing_ms is not None:
        rec["processing_ms"] = processing_ms
    return json.dumps(rec, ensure_ascii=False)


def session_trace_json(steps, k, mode, total, error=None, ticks=None):
    """The trace text of one engine session, rebuilt from what happened in it.

    steps are, in order, ("read", word, clock) for each item the source
    yielded and ("unit", unit) for each backend answer. A wait or an eos is
    stamped with the clock of the last read (0.0 before any), a word with it
    and g = min(clock, total); a unit that is no word the engine accepts is
    not recorded. ticks, under a wall clock, are the monotonic readings the
    session took: its start, one per event, then one at its end.
    """
    if ticks is not None:
        start = next(ticks)

    def stamp():
        return (next(ticks) - start) * 1000.0

    events, source, hypothesis, delays = [], [], [], []
    clock = 0.0
    for step in steps:
        if step[0] == "read":
            _, word, clock = step
            source.append(word)
            event = {"kind": "read", "clock": clock, "word": word}
        elif step[1] is Signal.WAIT or step[1] is Signal.EOS:
            event = {"kind": "wait" if step[1] is Signal.WAIT else "eos", "clock": clock}
        elif isinstance(step[1], str) and step[1].split() == [step[1]] and step[1] != WAIT:
            g = clock if total is None else min(clock, total)
            hypothesis.append(step[1])
            delays.append(g)
            event = {"kind": "write", "clock": clock, "word": step[1], "g": g}
        else:
            continue
        if ticks is not None:
            event["wall_ms"] = stamp()
        events.append(event)
    return trace_json(None, k, mode, source, hypothesis, delays,
                      clock if total is None else total, error, events,
                      None if ticks is None else stamp())


def asr_rescan(end_ms, total_ms, window_ms):
    """Exposure ticks of a timed transcript, rescanning every word per tick.

    Returns one tick per word: the first multiple of window_ms at which the
    word is exposed. Before total_ms, the words whose audio ended by the
    tick are visible, and the last visible one is withheld; from total_ms
    on, every word is exposed.
    """
    ticks = []
    tick = 0.0
    while len(ticks) < len(end_ms):
        tick += window_ms
        if tick >= total_ms:
            exposed = len(end_ms)
        else:
            visible = sum(1 for end in end_ms if end <= tick)
            exposed = visible - 1
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


def _scan_split_chunk(chunk):
    """One whitespace-free chunk split by a scan of every character."""
    if _normalize_suffix(chunk) in _CONTRACTION_SUFFIXES:
        return [chunk]
    parts = []
    buf = []
    for i, ch in enumerate(chunk):
        if ch in _SPLIT_CHARS and not _keep_inline(chunk, i):
            if buf:
                parts.append("".join(buf))
                buf = []
            parts.append(ch)
        else:
            buf.append(ch)
    if buf:
        parts.append("".join(buf))
    out = []
    for part in parts:
        if len(part) > 1 and any(a in part for a in _APOSTROPHES):
            out.extend(_peel_contractions(part))
        else:
            out.append(part)
    return out


def scan_tokenize(sentence):
    """tokenize(sentence) with no shortcut for chunks lacking marks."""
    words = []
    for chunk in unicodedata.normalize("NFC", sentence).split():
        words.extend(w for w in _scan_split_chunk(chunk) if w)
    return words


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


def _check(d):
    if not d.g:
        raise DegenerateInput("empty hypothesis")


def average_proportion(d):
    _check(d)
    return sum(d.g) / (d.source_len * d.hyp_len)


def _lagging(d, gamma):
    tau = next((t for t, g in enumerate(d.g, start=1) if g >= d.source_len), d.hyp_len)
    acc = 0.0
    for t in range(1, tau + 1):
        acc += d.g[t - 1] - (t - 1) / gamma
    return acc / tau


def average_lagging(d):
    """AL, one formula per metric: tau by its own search, then its own sum."""
    _check(d)
    return _lagging(d, d.hyp_len / d.source_len)


def length_adaptive_al(d):
    _check(d)
    if d.ref_len is None:
        raise DegenerateInput("reference length required")
    return _lagging(d, max(d.hyp_len, d.ref_len) / d.source_len)


def differentiable_al(d):
    _check(d)
    gamma = d.hyp_len / d.source_len
    acc = 0.0
    g_prev = None
    for t, g in enumerate(d.g, start=1):
        g_prime = g if g_prev is None else max(g, g_prev + 1.0 / gamma)
        acc += g_prime - (t - 1) / gamma
        g_prev = g_prime
    return acc / d.hyp_len


def is_truncated(d):
    return all(g < d.source_len for g in d.g)


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
