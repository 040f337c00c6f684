"""Deterministic word segmentation with punctuation treated as words.

The rule table is fixed so that corpus builds are reproducible without any
external tokenizer:

* input is NFC-normalized, then split on whitespace;
* every mark in ``.,!?;:"()[]{}—–…«»“”‘’¿¡-'`` becomes its own word, except
  - ``.``/``,``/``:`` flanked by digits (decimals, thousands, clock times),
  - ``-`` flanked by alphanumerics (``well-known``, ``3-4``) or prefixing a
    digit (``-5``),
  - ``'``/``’`` preceded by a letter or digit (``O'Brien``, ``cats'``);
* English contraction suffixes ``n't 's 're 've 'll 'd 'm`` (straight or
  curly apostrophe) peel off as separate words, so ``don't`` -> ``do n't``;
* anything not in the table (``%``, ``/``, ``@`` ...) stays inside its word.
"""

import re
import unicodedata
from .errors import EmptySentence

_APOSTROPHES = ("'", "’")

_SPLIT_CHARS = set(".,!?;:\"()[]{}—–…«»“”‘’¿¡-") | set(_APOSTROPHES)

# Tokens that must survive re-tokenization unchanged.
_CONTRACTION_SUFFIXES = {"n't", "'s", "'re", "'ve", "'ll", "'d", "'m"}

_SUFFIX_RE = re.compile(r"(?i)(?:n['’]t|['’](?:re|ve|ll|s|d|m))$")


def _normalize_suffix(tok: str) -> str:
    return tok.lower().replace("’", "'")


def _keep_inline(chunk: str, i: int) -> bool:
    ch = chunk[i]
    prev = chunk[i - 1] if i > 0 else ""
    nxt = chunk[i + 1] if i + 1 < len(chunk) else ""
    if ch in ".,:" :
        return prev.isdigit() and nxt.isdigit()
    if ch in _APOSTROPHES:
        return prev.isalnum()
    if ch == "-":
        if prev.isalnum() and nxt.isalnum():
            return True
        return nxt.isdigit() and not prev.isalnum()  # sign of a number
    return False


def _peel_contractions(word: str) -> list[str]:
    tail = []
    while len(word) > 1:
        m = _SUFFIX_RE.search(word)
        if m is None or m.start() == 0:
            break
        tail.append(word[m.start():])
        word = word[: m.start()]
    tail.reverse()
    return [word] + tail


def _split_chunk(chunk: str) -> list[str]:
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


def tokenize(sentence: str) -> list[str]:
    """Segment a raw sentence into words, punctuation standing alone.

    Deterministic and idempotent on its own space-joined output. Raises
    EmptySentence when nothing is left after trimming.
    """
    norm = unicodedata.normalize("NFC", sentence).strip()
    if not norm:
        raise EmptySentence("sentence is empty after trimming")
    if _SPLIT_CHARS.isdisjoint(norm):
        return norm.split()
    words = []
    for chunk in norm.split():
        # a chunk with no mark, or a lone mark, is one word as it stands
        if len(chunk) == 1 or _SPLIT_CHARS.isdisjoint(chunk):
            words.append(chunk)
        else:
            words.extend(_split_chunk(chunk))
    return words

