"""Per-layer tracing of simtrans from outside the program.

The tracer replaces public functions of the program's modules with timing
wrappers, at the name each caller looks the function up by (the CLI calls
``aligner.train_table``, the engine calls its own ``build_prompt``, ...), and
restores them afterwards. Every call becomes a span (name, start, end,
parent span) kept in flat in-memory arrays; functions that return lazy
iterators get one span per item drawn. A layer's self time is its span's
duration minus the time its direct child spans cover. Hooks count work at
the same boundaries (links, waits, prompt bytes, events, ...).

Spans only nest correctly on one thread, which holds because every workload
runs the CLI with one worker.
"""

import os
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._targets = []   # (name, owner, attribute, iterates, hook)
        self._saved = []     # (owner, attribute, original or None if inherited)
        self.missing = []    # targets absent from this version of the program
        self.counts = {}
        self.samples = {}

    # ------------------------------------------------------------ recording

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def sample(self, key, value):
        self.samples.setdefault(key, []).append(value)

    def _open(self, nid):
        idx = len(self.end)
        self.name_ix.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.start.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap_call(self, nid, fn, hook):
        clock = time.perf_counter
        start, end, stack, open_span = self.start, self.end, self._stack, self._open

        def traced(*args, **kwargs):
            idx = open_span(nid)
            t0 = start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(result, args, t1 - t0)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_iter(self, nid, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            return _TracedIterator(tracer, nid, iter(fn(*args, **kwargs)), hook, args)

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------- patching

    def add(self, name, owner, attribute, iterates=False, hook=None):
        self._targets.append((name, owner, attribute, iterates, hook))

    def install(self):
        for name, owner, attribute, iterates, hook in self._targets:
            if not hasattr(owner, attribute):
                if name not in self.missing:
                    self.missing.append(name)
                continue
            own = vars(owner).get(attribute) if isinstance(owner, type) else getattr(owner, attribute)
            fn = getattr(owner, attribute) if own is None else own
            wrap = self._wrap_iter if iterates else self._wrap_call
            setattr(owner, attribute, wrap(self._id(name), fn, hook))
            self._saved.append((owner, attribute, own))

    def uninstall(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -------------------------------------------------------------- results

    def mark(self):
        return len(self.end)

    def take_counts(self):
        counts, samples = self.counts, self.samples
        self.counts, self.samples = {}, {}
        return counts, samples

    def _arrays(self):
        n = len(self.end)
        start = np.frombuffer(self.start, dtype=np.float64, count=n).copy()
        end = np.frombuffer(self.end, dtype=np.float64, count=n).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n).copy()
        name_ix = np.frombuffer(self.name_ix, dtype=np.int32, count=n).copy()
        return start, end, parent, name_ix

    def summarize(self, ranges):
        """Per span range: {name: (calls, self seconds, inclusive seconds)}."""
        start, end, parent, name_ix = self._arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        own = dur - covered
        width = len(self.names)
        out = []
        for lo, hi in ranges:
            ix = name_ix[lo:hi]
            calls = np.bincount(ix, minlength=width)
            self_s = np.bincount(ix, weights=own[lo:hi], minlength=width)
            incl = np.bincount(ix, weights=dur[lo:hi], minlength=width)
            out.append({
                name: (int(calls[i]), float(self_s[i]), float(incl[i]))
                for i, name in enumerate(self.names)
            })
        return out

    def save(self, path):
        start, end, parent, name_ix = self._arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name_ix=name_ix,
            parent=parent, start=start, end=end,
        )


class _TracedIterator:
    """Times each next() of a lazy iterator as its own span."""

    __slots__ = ("_tracer", "_nid", "_inner", "_hook", "_args")

    def __init__(self, tracer, nid, inner, hook, args):
        self._tracer, self._nid, self._inner = tracer, nid, inner
        self._hook, self._args = hook, args

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        idx = tracer._open(self._nid)
        t0 = tracer.start[idx] = time.perf_counter()
        try:
            item = next(self._inner)
        finally:
            t1 = tracer.end[idx] = time.perf_counter()
            tracer._stack.pop()
        if self._hook is not None:
            self._hook(item, self._args, t1 - t0)
        return item


def add_simtrans_layers(tracer, st):
    """Register the layer boundaries of simtrans; st holds its modules."""
    count, sample = tracer.count, tracer.sample

    def on_train(table, args, dt):
        count("aligner.iterations", table.iterations_run)

    def on_align(links, args, dt):
        count("aligner.links", len(links.links))
        count("aligner.target_words", links.target_len)

    def on_causal(pair, args, dt):
        count("causal.waits", pair.wait_count)

    def on_samples(n, args, dt):
        count("sft.samples", n)
        count("sft.bytes", os.path.getsize(args[2]))

    def on_prompt(prompt, args, dt):
        count("prompt.chars", len(prompt))

    def on_session(trace, args, dt):
        events = len(trace.events)
        count("engine.events", events)
        count("engine.writes", len(trace.hypothesis_words))
        # per-event cost by length, on the dict backend only: an http step
        # is mostly a socket round trip
        if trace.mode == "text" and isinstance(args[1], st.backends.DictionaryBackend):
            if trace.source_total <= 50:
                count("engine.short_s", dt)
                count("engine.short_events", events)
            elif trace.source_total >= 300:
                count("engine.long_s", dt)
                count("engine.long_events", events)

    def on_http(unit, args, dt):
        sample("http.call_s", dt)

    def on_asr_word(item, args, dt):
        count("streams.asr_words")

    def on_trace_json(text, args, dt):
        count("engine.trace_chars", len(text))

    tracer.add("cli.main", st.cli, "main")
    tracer.add("tokenizer.tokenize", st.cli, "tokenize")
    tracer.add("aligner.train_table", st.aligner, "train_table", hook=on_train)
    tracer.add("kernels.em_sweep", st.kernels, "em_sweep")
    tracer.add("aligner.align_pair", st.aligner, "align_pair", hook=on_align)
    tracer.add("causal.causal_align", st.causal, "causal_align", hook=on_causal)
    tracer.add("causal.write_corpus", st.causal, "write_corpus")
    tracer.add("causal.read_corpus", st.causal, "read_corpus")
    tracer.add("causal.verify_corpus_file", st.causal, "verify_corpus_file", iterates=True)
    tracer.add("sft.write_samples", st.sft, "write_samples", hook=on_samples)
    tracer.add("prompt.build_prompt", st.sft, "build_prompt", hook=on_prompt)
    tracer.add("prompt.build_prompt", st.engine, "build_prompt", hook=on_prompt)
    tracer.add("engine.run_session", st.engine, "run_session", hook=on_session)
    tracer.add("backends.DictionaryBackend.next_unit", st.backends.DictionaryBackend, "next_unit")
    tracer.add("backends.HttpBackend.next_unit", st.backends.HttpBackend, "next_unit", hook=on_http)
    tracer.add("streams.AsrSimStream.iter", st.streams.AsrSimStream, "__iter__",
               iterates=True, hook=on_asr_word)
    tracer.add("engine.SessionTrace.to_json", st.engine.SessionTrace, "to_json", hook=on_trace_json)
    tracer.add("engine.trace_from_record", st.engine, "trace_from_record")
    tracer.add("bleu.corpus_bleu", st.metrics, "corpus_bleu")
    tracer.add("bleu.tokenize_13a", st.bleu, "tokenize_13a")
    tracer.add("metrics.aggregate_report", st.metrics, "aggregate_report")
    tracer.add("metrics.bootstrap_reports", st.metrics, "bootstrap_reports")
    tracer.add("metrics.wait_histogram", st.metrics, "wait_histogram")
