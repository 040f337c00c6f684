"""Marker literals and the unit vocabulary exchanged between engine and backends.

A translator backend produces exactly one unit per call: a word (plain
string, non-empty, no whitespace), or one of the two control signals below.
"""

import enum
from typing import Union

WAIT_TOKEN = "<WAIT>"
FILLER_TOKEN = "<FILLER>"


class Signal(enum.Enum):
    WAIT = WAIT_TOKEN
    EOS = "<EOS>"


Unit = Union[str, Signal]


def unit_to_str(unit: Unit) -> str:
    """Serialize a unit to its wire string (words pass through)."""
    if isinstance(unit, Signal):
        return unit.value
    return unit


def unit_from_str(s: str) -> Unit:
    """Inverse of unit_to_str; words never equal the control literals."""
    if s == Signal.WAIT.value:
        return Signal.WAIT
    if s == Signal.EOS.value:
        return Signal.EOS
    return s
