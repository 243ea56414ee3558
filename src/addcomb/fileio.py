"""Plain-text set and function files.

Set file: first line is the group ("F2^8", "Z24", "Z4xZ6"), then one
element per line as comma-separated coordinates (coordinate 0 first).
Function file: header "group=<spec> kind=<int|real|complex>", then one
"index value" pair per line; omitted indices are zero.  In both, `#`
starts a comment, blank lines are skipped, any line ending (LF, CRLF,
CR) is read, and whitespace around a line or a coordinate is ignored.

A set file is read in whole-array passes: one splitlines pass for the
content lines, then one uint8 view of those lines joined and ended by
newlines (UTF-8, so a `,` or newline byte is a separator even in a
non-ASCII string).  The separator positions check every line's
coordinate count.  When every token is one ASCII digit (F2^n) the values
are the even bytes; any other file goes through one
np.array(tokens, int64), which keeps int()'s syntax (signs, leading
zeros, underscores).  Then one broadcast range check against the
factors, one dot with the strides for the indices, and one np.unique for
duplicates.  The per-line parser, parse_element, runs only after a
vector check has failed, to name the first offending line as
`path:line: message`; a valid file never reaches it.  Files are ASCII:
any other byte is an error naming its line.
"""

from __future__ import annotations

import cmath
import os
from fractions import Fraction

import numpy as np

from .groups import GroupMismatchError, GroupSpec, format_group_text, parse_group_text
from .harmonic import FunctionTable
from .setstat import GroupSet


class FileFormatError(ValueError):
    """Malformed set/function file; message carries path and line number."""

    def __init__(self, path: str | os.PathLike, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def _stripped_lines(text: str) -> list[str]:
    """Every line of text, its comment and surrounding whitespace dropped
    (blank lines come out empty)."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    return list(map(str.strip, lines))


def _numbered(lines: list[str], start: int = 1) -> list[tuple[int, str]]:
    """The nonempty lines with their line numbers, the first one numbered start."""
    return [(no, line) for no, line in enumerate(lines, start=start) if line]


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
    """The set file of A: its group line, then one line of comma-separated
    coordinates per member, read off one (members, rank) table."""
    g = A.group
    table = A.members[:, None] // np.array(g.strides, dtype=np.int64) % np.array(g.factors, dtype=np.int64)
    return "\n".join([format_group_text(g), *(",".join(map(str, row)) for row in table.tolist())]) + "\n"


def write_set(path: str | os.PathLike, A: GroupSet) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_set(A))


def _int_tokens(tokens: list[str]) -> np.ndarray:
    """int() of every token, as int64: signs, leading zeros, underscores,
    non-ASCII digits.  Raises ValueError or OverflowError."""
    return np.array(tokens, dtype=np.int64)


def _coordinate_table(g: GroupSpec, body: list[str]) -> np.ndarray | None:
    """Every coordinate of the lines of body as a (lines, rank) table, or
    None when a line has the wrong number of coordinates or a token int()
    rejects."""
    data = np.frombuffer("\n".join([*body, ""]).encode("utf-8", "surrogatepass"), dtype=np.uint8)
    ends = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    if len(ends) != len(body) * g.rank or not (data[ends[g.rank - 1 :: g.rank]] == ord("\n")).all():
        return None
    if len(data) == 2 * len(ends):  # two bytes a token, as the toolkit writes F2^n
        digits = data[::2] - np.uint8(48)  # "," and "\n" wrap past 9
        if (digits < 10).all():  # no even byte is a separator: every token is one ASCII digit
            return digits.reshape(len(body), g.rank)
    try:
        values = _int_tokens(",".join(body).split(","))
    except (ValueError, OverflowError):
        return None
    return values.reshape(len(body), g.rank)


def _element_indices(g: GroupSpec, body: list[str]) -> np.ndarray | None:
    """The element index of every line of body, as an int64 array, or None
    when a line has the wrong number of coordinates, a token int() rejects
    or a coordinate out of range."""
    if not body:
        return np.empty(0, dtype=np.int64)
    table = _coordinate_table(g, body)
    if table is None or not ((table >= 0) & (table < g.factors)).all():
        return None
    return table @ np.array(g.strides, dtype=np.int64)


def parse_set(text: str, *, path="<string>", expect_group: GroupSpec | None = None) -> GroupSet:
    lines = _stripped_lines(text)
    head = next((i for i, line in enumerate(lines) if line), None)
    if head is None:
        raise FileFormatError(path, 1, "missing group line")
    try:
        g = parse_group_text(lines[head])
    except ValueError as exc:
        raise FileFormatError(path, head + 1, str(exc)) from None
    if expect_group is not None and g != expect_group:
        raise GroupMismatchError(
            f"{path}: set lives on {format_group_text(g)}, "
            f"expected {format_group_text(expect_group)}"
        )
    rest = lines[head + 1 :]
    body = list(filter(None, rest))
    indices = _element_indices(g, body)
    if indices is None:  # a vector check failed: parse_element raises at the first bad line
        indices = np.array(
            [parse_element(g, line, path=path, line_no=no) for no, line in _numbered(rest, head + 2)], dtype=np.int64
        )
    members, first = np.unique(indices, return_index=True)  # first: where each element first appears
    if len(members) < len(indices):  # report the first line that repeats an earlier one
        line_no, line = _numbered(rest, head + 2)[np.setdiff1d(np.arange(len(body)), first, assume_unique=True)[0]]
        raise FileFormatError(path, line_no, f"duplicate element {line!r}")
    return GroupSet(g, members)


def _read_ascii(path: str | os.PathLike) -> str:
    """The text of a file, which must be ASCII: any other byte is a
    FileFormatError naming it and its line, counted as splitlines counts."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line_no = len((data[: exc.start].decode("ascii") + "_").splitlines())
        raise FileFormatError(path, line_no, f"non-ASCII byte {data[exc.start]:#04x}") from None


def read_set(path: str | os.PathLike, expect_group: GroupSpec | None = None) -> GroupSet:
    return parse_set(_read_ascii(path), path=path, expect_group=expect_group)


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
    if kind == "real" and "/" in text:
        return Fraction(text)
    val = float(text) if kind == "real" else complex(text)
    if not cmath.isfinite(val):
        raise ValueError(f"non-finite value {text!r}")
    return val


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
    lines = _numbered(_stripped_lines(text))
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
        except (ValueError, ZeroDivisionError):
            raise FileFormatError(path, line_no, f"bad entry {line!r}") from None
        if not 0 <= idx < g.order:
            raise FileFormatError(path, line_no, f"index {idx} out of range")
        if idx in filled:
            raise FileFormatError(path, line_no, f"duplicate index {idx}")
        filled.add(idx)
        values[idx] = val
    return FunctionTable(group=g, values=values, kind=kind)


def read_table(path: str | os.PathLike) -> FunctionTable:
    """A function file's table, or a set file's indicator: the file is a
    function file when its first content line starts with "group="."""
    text = _read_ascii(path)
    head = next(filter(None, (line.partition("#")[0].strip() for line in text.splitlines())), "")
    if head.startswith("group="):
        return parse_function(text, path=path)
    return parse_set(text, path=path).indicator()
