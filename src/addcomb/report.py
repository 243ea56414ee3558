"""Check records shared by the statistics, Bohr and structure layers.

Every asserted inequality in the toolkit is logged as a CheckRecord whose
`ref` is a stable identifier naming the mathematical fact being tested
(e.g. "parseval", "bohr:size-lower").  Reports serialise exact values as
strings so that integer and rational quantities survive the round trip.

A failed check is raised one way: CheckFailure, carrying its failed
record (require raises it).  A failed certificate adds a trace of what
it tried, which a structure report keeps.  An internal consistency
check that fails is a program fault, not a check: it raises
AssertionError, which no handler turns into a failed check.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .groups import SizeLimitError


class CheckFailure(RuntimeError):
    """An asserted identity or inequality failed; carries the failed record,
    and the trace of a failed certificate (None elsewhere)."""

    def __init__(self, record: "CheckRecord", *, message: str | None = None, trace: dict | None = None):
        if message is None:
            message = f"check {record.name} [{record.ref}] failed: lhs={record.lhs} rhs={record.rhs} ({record.note})"
        super().__init__(message)
        self.record = record
        self.trace = trace


@dataclass
class CheckRecord:
    name: str
    ref: str
    lhs: str
    rhs: str
    ok: bool
    margin: float | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ref": self.ref,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ok": self.ok,
            "margin": self.margin,
            "note": self.note,
        }


def format_value(value) -> str:
    """Exact text of a value: p/q or n for fractions, repr for floats.  An
    integer past the interpreter's limit on digits in int text raises
    SizeLimitError."""
    try:
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
        if isinstance(value, float):
            return repr(value)
        return str(value)
    except ValueError:
        raise SizeLimitError(f"a value past the {sys.get_int_max_str_digits()}-digit limit of int text") from None


def _margin(num, den) -> float | None:
    """num / den as a float when den > 0 and both convert to Fractions, else None."""
    try:
        if den > 0:
            return float(Fraction(num) / Fraction(den))
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        pass
    return None


def record_le(name: str, ref: str, lhs, rhs, note: str = "") -> CheckRecord:
    """Record the claim lhs <= rhs, with the exact margin rhs / lhs when possible."""
    return CheckRecord(name, ref, format_value(lhs), format_value(rhs), bool(lhs <= rhs), _margin(rhs, lhs), note)


def record_ge(name: str, ref: str, lhs, rhs, note: str = "") -> CheckRecord:
    """Record the claim lhs >= rhs, with the exact margin lhs / rhs when possible."""
    return CheckRecord(name, ref, format_value(lhs), format_value(rhs), bool(lhs >= rhs), _margin(lhs, rhs), note)


def record_eq(name: str, ref: str, lhs, rhs, note: str = "") -> CheckRecord:
    return CheckRecord(name, ref, format_value(lhs), format_value(rhs), lhs == rhs, None, note)


def require(record: CheckRecord) -> CheckRecord:
    """Raise CheckFailure when the record is bad; return it otherwise."""
    if not record.ok:
        raise CheckFailure(record)
    return record
