import json
import re

import pytest

from simtrans.aligner import import_alignments
from simtrans.errors import ParseError
from simtrans.inputs import read_json, read_jsonl, read_text, unpaired_surrogate


def test_jsonl_splits_at_line_ends_only(tmp_path):
    # ensure_ascii=False leaves U+2028 and U+0085 raw inside a string; a text
    # line split there would cut the record in two
    records = [{"source": "a b", "target": "x\x85y"}, {"source": "c", "target": "z\u2028w"}]
    path = tmp_path / "pairs.jsonl"
    path.write_bytes("\r\n\r".join(json.dumps(r, ensure_ascii=False) for r in records)
                     .encode("utf-8"))
    assert list(read_jsonl(path)) == [(1, records[0]), (3, records[1])]


@pytest.mark.parametrize("data, line_no", [
    (b"\xff", 1),
    (b"{}\n{}\n\x80", 3),
    (b"{}\r\n\r{}\r\xc3", 4),
    ("café\n".encode("utf-8") + b"\xe9", 2),
])
def test_bad_byte_names_its_line(tmp_path, data, line_no):
    path = tmp_path / "in.jsonl"
    path.write_bytes(data)
    byte = data.rstrip(b"\n")[-1]
    for read in (read_text, read_json, lambda p: list(read_jsonl(p))):
        with pytest.raises(ParseError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: line {line_no}: not UTF-8 text (byte {byte:#04x})"


def test_pharaoh_blank_line_is_a_pair_without_links(tmp_path):
    path = tmp_path / "links.txt"
    path.write_bytes(b"0-0\r\n\r\n1-0 0-1\r\n")
    corpus = [(["a"], ["x"]), (["b"], ["y"]), (["c", "d"], ["z", "w"])]
    assert [s.links for s in import_alignments(path, corpus)] == [{(0, 0)}, set(),
                                                                  {(1, 0), (0, 1)}]


# JSON string pieces: surrogate halves and pairs, escaped backslashes that
# make a following "u" plain text, and other escapes
_ESCAPE_PIECES = [r"\ud800", r"\uDBFF", r"\udc00", r"\uDfFf", r"\ud83d\ude00", r"\\",
                  r"\\u", r"\\ud800", r"\n", r"\u0041", r"\u00e9", r'\"', "a", "\u00e9"]


def test_unpaired_surrogate_finds_what_json_decodes(rng):
    lone = re.compile("[\ud800-\udfff]")
    found = 0
    for _ in range(3000):
        strings = ["".join(_ESCAPE_PIECES[int(k)] for k in
                           rng.integers(0, len(_ESCAPE_PIECES), int(rng.integers(0, 5))))
                   for _ in range(2)]
        text = '["%s", {"%s": 1}]' % tuple(strings)
        decoded = json.loads(text)
        expected = any(lone.search(s) for s in (decoded[0], *decoded[1]))
        at = unpaired_surrogate(text)
        assert (at is not None) == expected, text
        if at is not None:
            found += 1
            assert lone.fullmatch(json.loads(f'"{text[at:at + 6]}"')), text
    assert 300 < found < 2700


def test_unpaired_surrogate_names_its_line(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"a": "\\ud83d\\ude00",\r\n\r"b": ["x", "\\\\ud800", "\\ud800"]}')
    with pytest.raises(ParseError) as exc:
        read_json(path)
    assert str(exc.value) == f"{path}: line 3: unpaired surrogate \\ud800"
    path.write_bytes(b'{"a": "\\ud83d\\ude00"}\n\n{"b": "\\udfff\\ud800"}\n')
    with pytest.raises(ParseError) as exc:
        list(read_jsonl(path))
    assert str(exc.value) == f"{path}: line 3: unpaired surrogate \\udfff"
