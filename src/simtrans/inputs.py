"""Input files, read one way: UTF-8 text split with universal newlines.

A byte that is not UTF-8, and a JSON document that does not parse, is a
ParseError naming the file and, where there is one, the line.
"""

import io
import json

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


def read_json(path):
    """The one JSON document a file holds."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", path=path) from exc


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
            yield n, json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", n, path) from exc
