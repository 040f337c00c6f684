"""Seeded synthetic inputs for the benchmark.

Every input is a word cipher over a made-up vocabulary: each source word has
one target word, punctuation maps to itself. Targets then get seeded local
reordering (adjacent swaps and short rotations) and target-only particles,
so causal alignment has to insert waits and some target words align to
NULL. Because the generator applies every edit itself it knows the gold
links, the reference translations and the word-for-word hypothesis a
lookahead-0 dictionary backend must produce.

Sentence lengths come from a fixed, seed-independent schedule that the seed
only shuffles, so every seed gives the same amount of work.
"""

import json
import math
import os
import random
from dataclasses import dataclass, field

_SRC_CONSONANTS = "bdfgklmnprstv"
_SRC_VOWELS = "aeiou"
_TGT_CONSONANTS = "cdhjklmnqrswxz"
_TGT_VOWELS = "aeiouy"

# Edit rates as shares of positions: (swapped with the right neighbour,
# word moved two places right, preceded by a target-only word). The training
# corpus is edited heavily so causal alignment needs waits and NULL links;
# test references only lightly, which keeps their BLEU steady across seeds.
CORPUS_EDITS = (0.12, 0.04, 0.06)
TEST_EDITS = (0.05, 0.0, 0.03)
_COMMA_P = 0.35      # share of short sentences with a comma inside
_SYLLABLES = (2, 3, 2, 3, 4)
_END_MARKS = (".", ".", ".", "?", "!")


@dataclass
class Pair:
    source: list          # source tokens
    target: list          # reference target tokens
    gold: set = field(default_factory=set)  # (source index, target index)


@dataclass
class Lexicon:
    source_words: list
    cipher: dict          # source word -> target word
    particles: list       # target-only words
    cum_weights: list     # Zipf sampling weights over source_words

    def sample(self, rng, n):
        return rng.choices(self.source_words, cum_weights=self.cum_weights, k=n)

    def translate(self, tokens):
        """The word-for-word hypothesis of a lookahead-0 dictionary backend."""
        return [self.cipher.get(t, t) for t in tokens]


def _make_words(rng, n, consonants, vowels, taken):
    """n new words; the i-th has a fixed syllable count, so word lengths by
    frequency rank are the same for every seed."""
    words = []
    while len(words) < n:
        syllables = _SYLLABLES[len(words) % len(_SYLLABLES)]
        w = "".join(rng.choice(consonants) + rng.choice(vowels) for _ in range(syllables))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def make_lexicon(rng, vocab_size=2000, particles=24):
    taken = set()
    src = _make_words(rng, vocab_size, _SRC_CONSONANTS, _SRC_VOWELS, taken)
    tgt = _make_words(rng, vocab_size + particles, _TGT_CONSONANTS, _TGT_VOWELS, taken)
    acc, cum = 0.0, []
    for rank in range(vocab_size):
        acc += 1.0 / (rank + 1)
        cum.append(acc)
    return Lexicon(
        source_words=src,
        cipher=dict(zip(src, tgt)),
        particles=tgt[vocab_size:],
        cum_weights=cum,
    )


def _pick(rng, candidates, count, width):
    """Up to count starts from candidates whose width-wide spans do not overlap."""
    rng.shuffle(candidates)
    taken, used = [], set()
    for c in candidates:
        if len(taken) == count:
            break
        span = set(range(c, c + width))
        if not span & used:
            taken.append(c)
            used |= span
    return sorted(taken)


def encipher(rng, lex, source, edits):
    """Reference target for a source token list, with its gold links.

    The number of each edit is fixed by the sentence length; the seed picks
    where they go. That keeps the amount of reordering, and so the BLEU and
    alignment error of every seed, nearly the same.
    """
    # slots hold (target token, source index or None); the final end mark
    # stays last, everything before it may move
    body = [(lex.cipher.get(w, w), i) for i, w in enumerate(source)]
    tail = [body.pop()] if body and source[-1] in _END_MARKS else []
    n = len(body)
    swap_p, rotate_p, particle_p = edits
    swaps = _pick(rng, list(range(n - 1)), round(n * swap_p), 2)
    rotations = _pick(rng, [j for j in range(n - 2) if not {j, j + 1, j + 2} & {
        p for s in swaps for p in (s, s + 1)}], round(n * rotate_p), 3)
    for j in swaps:
        body[j], body[j + 1] = body[j + 1], body[j]
    for j in rotations:
        body.insert(j + 2, body.pop(j))
    inserts = set(rng.sample(range(n), min(n, round(n * particle_p))))
    slots = []
    for j, item in enumerate(body):
        if j in inserts:
            slots.append((rng.choice(lex.particles), None))
        slots.append(item)
    slots.extend(tail)
    target = [t for t, _ in slots]
    gold = {(i, j) for j, (_, i) in enumerate(slots) if i is not None}
    return Pair(source=list(source), target=target, gold=gold)


def _sentence_tokens(rng, lex, n_words, comma_every=None, comma=False):
    words = lex.sample(rng, n_words)
    if comma_every is None:
        if comma and n_words >= 4:
            words.insert(rng.randint(2, n_words - 1), ",")
    else:
        pos = rng.randint(comma_every // 2, comma_every)
        while pos < len(words) - 1:
            words.insert(pos, ",")
            pos += rng.randint(comma_every // 2, comma_every) + 1
    words.append(rng.choice(_END_MARKS))
    return words


def _length_schedule(rng, n, lo, hi, log=False, shuffle=True):
    """n lengths spread evenly over [lo, hi] (log-spaced if asked), shuffled
    unless asked not to."""
    if n == 1:
        lengths = [lo]
    elif log:
        step = (math.log(hi) - math.log(lo)) / (n - 1)
        lengths = [round(math.exp(math.log(lo) + i * step)) for i in range(n)]
    else:
        lengths = [lo + (i * (hi - lo + 1)) // n for i in range(n)]
    if shuffle:
        rng.shuffle(lengths)
    return lengths


def short_pairs(rng, lex, n, edits):
    """Pairs of at most 20 source tokens (3..18 words, a comma, an end mark)."""
    commas = set(rng.sample(range(n), round(n * _COMMA_P)))
    return [
        encipher(rng, lex, _sentence_tokens(rng, lex, k, comma=i in commas), edits)
        for i, k in enumerate(_length_schedule(rng, n, 3, 18))
    ]


def long_pairs(rng, lex, n, lo=20, hi=400):
    """Pairs whose source lengths are log-spaced from lo to hi tokens.

    The lengths stay in ascending order, so a resample drawn with a fixed
    seed picks the same lengths whatever seed made the sentences.
    """
    out = []
    for k in _length_schedule(rng, n, lo, hi, log=True, shuffle=False):
        # k counts tokens: words plus a comma every ~12 words plus the end mark
        words = max(1, round((k - 1) * 12 / 13))
        tokens = _sentence_tokens(rng, lex, words, comma_every=12)
        del tokens[k - 1:-1]  # trim to exactly k tokens, keeping the end mark
        out.append(encipher(rng, lex, tokens, TEST_EDITS))
    return out


def talks(rng, lex, word_counts):
    """Timed transcripts: (Pair without punctuation, word end times in ms, total ms)."""
    out = []
    for k in word_counts:
        words = lex.sample(rng, k)
        # durations and pauses from fixed schedules, so every seed gives a
        # talk of the same length
        durations = _length_schedule(rng, k, 180, 520)
        pauses = _length_schedule(rng, max(1, round(k * 0.05)), 250, 900)
        pause_at = dict(zip(rng.sample(range(k), min(k, len(pauses))), pauses))
        ends, t = [], 0.0
        for i, duration in enumerate(durations):
            t += duration + pause_at.get(i, 0)
            ends.append(t)
        out.append((encipher(rng, lex, words, TEST_EDITS), ends, t + 400.0))
    return out


def write_pairs(pairs, path):
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(json.dumps({"source": " ".join(p.source), "target": " ".join(p.target)}) + "\n")


def write_dictionary(lex, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(lex.cipher, fh)


def write_talks(items, directory):
    os.makedirs(directory, exist_ok=True)
    for n, (pair, ends, total) in enumerate(items):
        rec = {
            "words": [{"w": w, "end_ms": e} for w, e in zip(pair.source, ends)],
            "total_ms": total,
            "reference": " ".join(pair.target),
        }
        with open(os.path.join(directory, f"talk_{n:03d}.json"), "w", encoding="utf-8") as fh:
            json.dump(rec, fh)


def em_events(pairs):
    """EM events of one sweep in both directions: sum of |f| * (|e| + 1)."""
    return sum(
        len(p.target) * (len(p.source) + 1) + len(p.source) * (len(p.target) + 1)
        for p in pairs
    )


def new_rng(seed, stream):
    """Independent generator per input kind, so sizes can change one kind only."""
    return random.Random(f"{seed}:{stream}")
