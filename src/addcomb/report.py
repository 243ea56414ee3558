"""Check records shared by the statistics, Bohr and structure layers.

Every asserted inequality in the toolkit is logged as a CheckRecord whose
`ref` is a stable identifier naming the mathematical fact being tested
(e.g. "parseval", "bohr:size-lower").  Reports serialise exact values as
strings so that integer and rational quantities survive the round trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


class CheckFailure(RuntimeError):
    """An asserted identity or inequality failed; carries the offending record."""

    def __init__(self, record: "CheckRecord"):
        super().__init__(
            f"check {record.name} [{record.ref}] failed: "
            f"lhs={record.lhs} rhs={record.rhs} ({record.note})"
        )
        self.record = record


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
    """Exact text of a value: p/q or n for fractions, repr for floats."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def record_le(name: str, ref: str, lhs, rhs, note: str = "") -> CheckRecord:
    """Record the claim lhs <= rhs, computing an exact margin when possible."""
    ok = lhs <= rhs
    margin = None
    try:
        if lhs > 0:
            margin = float(Fraction(rhs) / Fraction(lhs))
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        margin = None
    return CheckRecord(name, ref, format_value(lhs), format_value(rhs), bool(ok), margin, note)


def record_ge(name: str, ref: str, lhs, rhs, note: str = "") -> CheckRecord:
    """Record the claim lhs >= rhs."""
    ok = lhs >= rhs
    margin = None
    try:
        if rhs > 0:
            margin = float(Fraction(lhs) / Fraction(rhs))
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        margin = None
    return CheckRecord(name, ref, format_value(lhs), format_value(rhs), bool(ok), margin, note)


def record_eq(name: str, ref: str, lhs, rhs, note: str = "") -> CheckRecord:
    return CheckRecord(name, ref, format_value(lhs), format_value(rhs), lhs == rhs, None, note)


def require(record: CheckRecord) -> CheckRecord:
    """Raise CheckFailure when the record is bad; return it otherwise."""
    if not record.ok:
        raise CheckFailure(record)
    return record
