"""Marker literals and the unit vocabulary exchanged between engine and backends.

A translator backend produces exactly one unit per call: a word (plain
string, non-empty, no whitespace), or one of the two control signals below.
"""

import enum
from typing import Union

WAIT_TOKEN = "<WAIT>"
FILLER_TOKEN = "<FILLER>"
# no input word may be a marker: counts of markers are counts of these literals
MARKERS = frozenset((WAIT_TOKEN, FILLER_TOKEN))


class Signal(enum.Enum):
    WAIT = WAIT_TOKEN
    EOS = "<EOS>"


Unit = Union[str, Signal]


def unit_from_str(s: str) -> Unit:
    """The unit a script string names; words never equal the control literals."""
    if s == Signal.WAIT.value:
        return Signal.WAIT
    if s == Signal.EOS.value:
        return Signal.EOS
    return s
