"""Input files, read one way: UTF-8 text split with universal newlines.

A byte that is not UTF-8, a JSON document that does not parse, and a JSON
string escape that encodes half a surrogate pair, is a ParseError naming
the file and, where there is one, the line.
"""

import io
import json
import re

from .errors import ParseError


def read_text(path) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = lines(data[:exc.start].decode("utf-8")).read()
        raise ParseError(f"not UTF-8 text (byte {data[exc.start]:#04x})",
                         before.count("\n") + 1, path) from None


def lines(text):
    """The lines of text, each with its ending, split as a text-mode file
    splits them: at \\n, \\r\\n or \\r, never at a U+2028 or U+0085 that JSON
    written with ensure_ascii=False may hold inside a string."""
    return io.StringIO(text, newline=None)


# one JSON string escape: \uXXXX, or a backslash and the character it escapes
_ESCAPE = re.compile(r"\\(?:u([0-9a-fA-F]{4})|.)", re.DOTALL)


def unpaired_surrogate(text):
    """Offset of the first \\u escape in JSON text that encodes half a
    surrogate pair on its own, or None.

    json.loads reads such an escape as a str that no UTF-8 file can hold, so
    the record would fail only when written. A high half with a low half
    right after it is one character. The text must parse as JSON, so that
    every backslash starts an escape.
    """
    if "\\u" not in text:
        return None
    high = None
    for m in _ESCAPE.finditer(text):
        code = int(m[1], 16) if m[1] else -1
        if high is not None:
            if m.start() == high.end() and 0xDC00 <= code <= 0xDFFF:
                high = None
                continue
            return high.start()
        if 0xD800 <= code <= 0xDBFF:
            high = m
        elif 0xDC00 <= code <= 0xDFFF:
            return m.start()
    return None if high is None else high.start()


def _refuse_unpaired_surrogate(text, path, line_no=1):
    at = unpaired_surrogate(text)
    if at is not None:
        line_no += lines(text[:at]).read().count("\n")
        raise ParseError(f"unpaired surrogate {text[at:at + 6]}", line_no, path)


def read_json(path):
    """The one JSON document a file holds."""
    text = read_text(path)
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", path=path) from exc
    if "\\" in text:  # a one-character search: most inputs hold no escape
        _refuse_unpaired_surrogate(text, path)
    return document


def json_lines(path):
    """(1-based line number, stripped line) per non-blank line of a JSONL file."""
    for n, line in enumerate(lines(read_text(path)), start=1):
        line = line.strip()
        if line:
            yield n, line


def read_jsonl(path):
    """(1-based line number, record) per non-blank line of a JSONL file."""
    for n, line in json_lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", n, path) from exc
        if "\\" in line:
            _refuse_unpaired_surrogate(line, path, n)
        yield n, record
