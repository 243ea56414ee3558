"""Plain-text set and function files.

Set file: first line is the group ("F2^8", "Z24", "Z4xZ6"), then one
element per line as comma-separated coordinates (coordinate 0 first).
Function file: header "group=<spec> kind=<int|real|complex>", then one
"index value" pair per line; omitted indices are zero.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Iterable

import numpy as np

from .groups import (
    GroupMismatchError,
    GroupSpec,
    SizeLimitError,
    format_group_text,
    parse_group_text,
)
from .harmonic import FunctionTable
from .setstat import GroupSet


class FileFormatError(ValueError):
    """Malformed set/function file; message carries path and line number."""

    def __init__(self, path: str | os.PathLike, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def _content_lines(text: str) -> Iterable[tuple[int, str]]:
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def format_element(g: GroupSpec, index: int) -> str:
    return ",".join(str(c) for c in g.unindex(index))


def parse_element(g: GroupSpec, text: str, *, path="<string>", line_no=0) -> int:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != g.rank:
        raise FileFormatError(path, line_no, f"expected {g.rank} coordinates, got {len(parts)}")
    try:
        coords = tuple(int(p) for p in parts)
    except ValueError:
        raise FileFormatError(path, line_no, f"bad coordinate in {text!r}") from None
    index = 0
    for c, n, s in zip(coords, g.factors, g.strides):
        if not 0 <= c < n:
            raise FileFormatError(path, line_no, f"coordinate {c} out of range for Z{n}")
        index += c * s
    return index


def dump_set(A: GroupSet) -> str:
    lines = [format_group_text(A.group)]
    lines.extend(format_element(A.group, i) for i in A.members.tolist())
    return "\n".join(lines) + "\n"


def write_set(path: str | os.PathLike, A: GroupSet) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_set(A))


def parse_set(text: str, *, path="<string>", expect_group: GroupSpec | None = None) -> GroupSet:
    lines = list(_content_lines(text))
    if not lines:
        raise FileFormatError(path, 1, "missing group line")
    line_no, head = lines[0]
    try:
        g = parse_group_text(head)
    except SizeLimitError:
        raise
    except ValueError as exc:
        raise FileFormatError(path, line_no, str(exc)) from None
    if expect_group is not None and g != expect_group:
        raise GroupMismatchError(
            f"{path}: set lives on {format_group_text(g)}, "
            f"expected {format_group_text(expect_group)}"
        )
    body = lines[1:]
    indices = np.array([parse_element(g, text, path=path, line_no=no) for no, text in body], dtype=np.int64)
    members, first = np.unique(indices, return_index=True)  # first: where each element first appears
    if len(members) < len(indices):  # report the first line that repeats an earlier one
        line_no, line = body[np.setdiff1d(np.arange(len(body)), first)[0]]
        raise FileFormatError(path, line_no, f"duplicate element {line!r}")
    return GroupSet(g, members)


def read_set(path: str | os.PathLike, expect_group: GroupSpec | None = None) -> GroupSet:
    with open(path, "r", encoding="ascii") as fh:
        return parse_set(fh.read(), path=path, expect_group=expect_group)


def _format_value(kind: str, v) -> str:
    if kind == "int":
        return str(int(v))
    if kind == "real":
        if isinstance(v, Fraction):
            return f"{v.numerator}/{v.denominator}"
        return repr(float(v))
    c = complex(v)
    return f"{c.real!r}{c.imag:+}j".replace("+-", "-")


def _parse_value(kind: str, text: str):
    if kind == "int":
        return int(text)
    if kind == "real":
        if "/" in text:
            return Fraction(text)
        return float(text)
    return complex(text)


def dump_function(table: FunctionTable) -> str:
    head = f"group={format_group_text(table.group)} kind={table.kind}"
    lines = [head]
    for i, v in enumerate(table.values):
        if v != 0:
            lines.append(f"{i} {_format_value(table.kind, v)}")
    return "\n".join(lines) + "\n"


def write_function(path: str | os.PathLike, table: FunctionTable) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_function(table))


def parse_function(text: str, *, path="<string>") -> FunctionTable:
    lines = list(_content_lines(text))
    if not lines:
        raise FileFormatError(path, 1, "missing header line")
    line_no, head = lines[0]
    fields = dict(
        part.split("=", 1) for part in head.split() if "=" in part
    )
    if set(fields) != {"group", "kind"}:
        raise FileFormatError(path, line_no, f"bad header {head!r}")
    try:
        g = parse_group_text(fields["group"])
    except SizeLimitError:
        raise
    except ValueError as exc:
        raise FileFormatError(path, line_no, str(exc)) from None
    kind = fields["kind"]
    if kind not in ("int", "real", "complex"):
        raise FileFormatError(path, line_no, f"bad kind {kind!r}")
    zero = 0 if kind == "int" else (0.0 if kind == "real" else 0j)
    values: list = [zero] * g.order
    filled: set[int] = set()
    for line_no, line in lines[1:]:
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise FileFormatError(path, line_no, f"expected 'index value', got {line!r}")
        try:
            idx = int(parts[0])
            val = _parse_value(kind, parts[1])
        except ValueError:
            raise FileFormatError(path, line_no, f"bad entry {line!r}") from None
        if not 0 <= idx < g.order:
            raise FileFormatError(path, line_no, f"index {idx} out of range")
        if idx in filled:
            raise FileFormatError(path, line_no, f"duplicate index {idx}")
        filled.add(idx)
        values[idx] = val
    return FunctionTable(group=g, values=values, kind=kind)


def read_function(path: str | os.PathLike) -> FunctionTable:
    with open(path, "r", encoding="ascii") as fh:
        return parse_function(fh.read(), path=path)
