from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addcomb import fileio
from addcomb.fileio import (
    FileFormatError,
    dump_function,
    dump_set,
    format_element,
    parse_element,
    parse_function,
    parse_set,
    read_set,
    read_table,
    write_function,
    write_set,
)
from addcomb.groups import GroupMismatchError, boolean_group, format_group_text, make_group, parse_group_text
from addcomb.harmonic import FunctionTable
from addcomb.setstat import group_set

from .oracles import DirectParseError, parse_set_direct


def test_element_round_trip():
    g = make_group((4, 6))
    for i in range(g.order):
        assert parse_element(g, format_element(g, i)) == i


@given(st.sampled_from([(2,) * 5, (2,) * 12, (10,), (1000,), (65536,), (3, 4), (4, 6, 10), (7, 11, 2), (11,)]),
       st.data())
@settings(max_examples=150, deadline=None)
def test_dump_set_writes_format_element_of_every_member(factors, data):
    g = make_group(factors)
    members = data.draw(st.sets(st.integers(0, g.order - 1), max_size=min(g.order, 300)))
    A = group_set(g, members)
    lines = [format_element(g, i) for i in sorted(members)]
    assert dump_set(A) == "\n".join([format_group_text(g), *lines]) + "\n"
    assert parse_set(dump_set(A)) == A


def test_element_errors_carry_line_numbers():
    g = make_group((4, 6))
    with pytest.raises(FileFormatError) as exc:
        parse_element(g, "1", path="x.set", line_no=7)
    assert exc.value.line_no == 7
    with pytest.raises(FileFormatError):
        parse_element(g, "1,9")
    with pytest.raises(FileFormatError):
        parse_element(g, "one,2")


@pytest.mark.parametrize(
    "text, message",
    [
        ("1", "expected 2 coordinates, got 1"),
        ("1,2,3", "expected 2 coordinates, got 3"),
        ("one,2", "bad coordinate in 'one,2'"),
        ("1,", "bad coordinate in '1,'"),
        ("1,9", "coordinate 9 out of range for Z6"),
        ("-1,2", "coordinate -1 out of range for Z4"),
        ("4,0", "coordinate 4 out of range for Z4"),
    ],
)
def test_element_error_messages(text, message):
    with pytest.raises(FileFormatError) as exc:
        parse_element(make_group((4, 6)), text, path="x.set", line_no=7)
    assert str(exc.value) == f"x.set:7: {message}"


def test_set_round_trip_through_file(tmp_path):
    g = make_group((4, 6))
    A = group_set(g, [0, 5, 17, 23])
    p = tmp_path / "a.set"
    write_set(p, A)
    back = read_set(p)
    assert back.group == g
    assert back.members.tolist() == A.members.tolist()


def test_set_text_has_comments_and_blanks_allowed():
    text = "# sample\nZ4xZ6\n\n0,0\n1,1  # trailing note\n"
    A = parse_set(text)
    assert len(A) == 2


def test_set_parse_rejects_duplicates_and_bad_heads():
    with pytest.raises(FileFormatError) as exc:
        parse_set("Z6\n1\n1\n")
    assert "duplicate" in str(exc.value)
    # the first line that repeats an earlier element, counted in the file
    with pytest.raises(FileFormatError) as exc:
        parse_set("# head\nZ6\n5\n2\n\n4  # four\n2\n5\n4\n", path="s.txt")
    assert str(exc.value) == "s.txt:7: duplicate element '2'"
    assert exc.value.line_no == 7
    with pytest.raises(FileFormatError):
        parse_set("")
    with pytest.raises(FileFormatError):
        parse_set("Q8\n0\n")


SET_FILE_GROUPS = ["Z6", "Z4xZ6", "F2^3", "Z2xZ3xZ5", "Z101"]


@st.composite
def _coordinate(draw, n: int) -> str:
    """One coordinate token for Z_n: mostly a value in range, written
    plainly or with a sign, leading zeros, an underscore or spaces; now and
    then one a reader must reject."""
    c = draw(st.integers(min_value=0, max_value=n - 1))
    kind = draw(st.sampled_from(["plain"] * 30 + ["styled"] * 6 + ["spaced"] * 3 + ["negative", "range", "huge", "junk"]))
    if kind == "plain":
        return str(c)
    if kind == "styled":
        signed = f"-{c}" if c == 0 else f"+0{c}"  # "-0" is 0
        return draw(st.sampled_from([f"+{c}", f"0{c}", f"00{c}", f"0_{c}", "_".join(str(c)), signed]))
    if kind == "spaced":
        return draw(st.sampled_from([f" {c}", f"{c} ", f"\t{c}", f"{c} {c}"]))
    if kind == "negative":
        return str(-1 - draw(st.integers(min_value=0, max_value=3)))
    if kind == "range":
        return str(n + draw(st.integers(min_value=0, max_value=3)))
    if kind == "huge":
        return draw(st.sampled_from([str(1 << 63), str(-(1 << 63) - 1), "9" * 30, "-" + "9" * 30]))
    return draw(st.sampled_from(["", "x", "1.0", "1e2", "0x1", "_1", "1__0", "+-1", "- 1"]))


@st.composite
def set_files(draw, groups=SET_FILE_GROUPS) -> str:
    """The text of a set file, valid or not: a group line (rarely a bad
    one), then element lines mixed with comments, blank lines, wrong
    coordinate counts and repeats of earlier lines, each ended by LF, CRLF
    or CR, with whitespace and trailing comments around them."""
    head = draw(st.sampled_from(groups + ["Q8"] if draw(st.integers(0, 30)) == 0 else groups))
    factors = (2,) if head == "Q8" else parse_group_text(head).factors
    lines = [draw(st.sampled_from([head, f"  {head}", f"{head}  # group", f"# a set\n{head}"]))]
    elements: list[str] = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(["element"] * 16 + ["repeat", "comment", "blank", "count"]))
        if kind == "repeat" and elements:
            line = draw(st.sampled_from(elements))
        elif kind == "comment":
            line = draw(st.sampled_from(["# note", "  #", "#1,2,3"]))
        elif kind == "blank":
            line = draw(st.sampled_from(["", "   ", "\t"]))
        else:
            rank = len(factors) + (draw(st.sampled_from([-1, 1])) if kind == "count" else 0)
            coords = [draw(_coordinate(factors[j % len(factors)])) for j in range(max(rank, 0))]
            line = draw(st.sampled_from([",", ", ", " ,"])).join(coords)
            elements.append(line)
        if line.strip() and not line.lstrip().startswith("#"):
            line = draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", "  ", " # note", "#x"]))
        lines.append(line)
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


def _parsed(parse, text: str):
    """(group, members) of a parse, or (line number, message) of its error."""
    try:
        result = parse(text)
    except (FileFormatError, DirectParseError) as exc:
        return exc.line_no, str(exc)
    if isinstance(result, tuple):
        return result
    return result.group, result.members.tolist()


CANONICAL_GROUPS = ["Z101", "Z65536", "Z4xZ6", "Z4xZ6xZ8xZ16", "F2^1", "F2^5", "F2^14"]


def _mutate(draw, token: str, n: int) -> str:
    """token with one rare edit: a space or `_` put into it, a sign before
    it, emptied, replaced by its factor, or padded to 19 digits with a
    leading 0 or 1."""
    kind = draw(st.sampled_from(["space", "sign", "underscore", "empty", "factor", "19 digits"]))
    at = draw(st.integers(min_value=0, max_value=len(token)))
    if kind == "space":
        return token[:at] + " " + token[at:]
    if kind == "sign":
        return draw(st.sampled_from("+-")) + token
    if kind == "underscore":
        return token[:at] + "_" + token[at:]
    if kind == "empty":
        return ""
    if kind == "factor":
        return str(n)
    return draw(st.sampled_from("01")) + token.zfill(18)


@st.composite
def canonical_set_files(draw, groups=CANONICAL_GROUPS) -> str:
    """The text of a set file as the toolkit writes it (digits, `,` and LF
    only, coordinates in range, sometimes with no final newline), now and
    then with a repeated line or one token edited by _mutate."""
    head = draw(st.sampled_from(groups))
    factors = parse_group_text(head).factors
    lines: list[str] = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        if lines and draw(st.integers(0, 40)) == 0:
            lines.append(draw(st.sampled_from(lines)))
            continue
        tokens = [str(draw(st.integers(min_value=0, max_value=n - 1))) for n in factors]
        if draw(st.integers(0, 30)) == 0:
            j = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
            tokens[j] = _mutate(draw, tokens[j], factors[j])
        lines.append(",".join(tokens))
    end = draw(st.sampled_from(["\n"] * 8 + [""]))
    return "\n".join([head, *lines]) + end


@given(st.one_of(set_files(), canonical_set_files()))
@settings(max_examples=800, deadline=None)
@example("Z101\n007\n")
@example("Z101\n5\n:\n")  # ":" is the byte after "9"
@example("Z101\n" + "0" * 16 + "42\n" + "9" * 18 + "\n")  # 18 digits, then out of range
@example("Z101\n" + "0" * 18 + "5\n" + "1" + "0" * 17 + "7\n")  # 19 digits, then out of range
@example("Z101\n" + "9" * 19 + "\n")  # past int64
@example("Z4xZ6\n,1\n")
@example("Z4xZ6xZ8xZ16\n,1,2,10\n")  # an empty token beside a two-digit one
@example("Z101\n\u0663\n")  # a non-ASCII digit, which int() reads as 3
@example("Z6\n\ud800\n")  # a lone surrogate, as the library API may pass
@example("F2^3\n1,0,1\n0,1,1")  # no final newline
@example("Z4xZ6\r\n1, 2\r\n\r\n# c\r\n+3,0_5\r1,02\n")
@example("Z4xZ6\n1\n2,3,4\n")  # coordinate counts that only add up over the file
@example("# a set\n\nQ8\n1\n")
@example("Z6\n1\n1\n7\n")  # a bad line after a repeat: the bad line is named
@example("Z6\n1\n9\n1\n")  # and before one
@example("Z6\n" + "9" * 30 + "\n")
@example("Z6\n-9223372036854775809\n")
@example("Z4xZ6\n1,2,\n")
@example("F2^3\n")
@example("")
def test_parse_set_matches_the_line_by_line_oracle(text):
    expected = _parsed(lambda t: parse_set_direct(t, path="f.set"), text)
    assert _parsed(lambda t: parse_set(t, path="f.set"), text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "# a set\r\nZ4xZ6\r\n\r\n0, 0\r\n  1 ,1  # note\r\n+3,05\r\n",
        "F2^3\r1,0,1\r\r0,0,0 #x\r",
        "Z6\n",
        "  Z101  \n\t7\n100\n0_1\n",
    ],
)
def test_valid_set_files_never_reach_the_line_parser(text, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("parse_element called on a valid file")

    monkeypatch.setattr(fileio, "parse_element", fail)
    A = parse_set(text, path="f.set")
    assert (A.group, A.members.tolist()) == parse_set_direct(text, path="f.set")


@pytest.mark.parametrize("spec", ["F2^1", "F2^5", "F2^14"])
def test_what_the_toolkit_writes_never_reaches_int(spec, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a set file the toolkit wrote left the byte pass")

    monkeypatch.setattr(fileio, "_int_tokens", fail)
    monkeypatch.setattr(fileio, "parse_element", fail)
    g = parse_group_text(spec)
    rng = np.random.default_rng(7)
    for size in [0, 1, 2, g.order // 3, g.order]:
        A = group_set(g, rng.choice(g.order, size=size, replace=False))
        back = parse_set(dump_set(A))
        assert back.group == g
        assert back.members.tolist() == A.members.tolist()


def test_set_expect_group_mismatch():
    with pytest.raises(GroupMismatchError):
        parse_set("Z6\n1\n", expect_group=make_group((7,)))
    A = parse_set("Z6\n1\n", expect_group=make_group((6,)))
    assert A.members.tolist() == [1]


def test_function_round_trip_int(tmp_path):
    g = boolean_group(4)
    table = group_set(g, [3, 9]).indicator()
    p = tmp_path / "f.fn"
    write_function(p, table)
    back = read_table(p)
    assert back.group == g
    assert back.kind == "int"
    assert list(back.values) == list(table.values)


def test_function_round_trip_real_fractions():
    g = make_group((5,))
    table = FunctionTable(group=g, kind="real", values=[Fraction(1, 3), 0, Fraction(-2, 7), 0.5, 0])
    back = parse_function(dump_function(table))
    assert back.values[0] == Fraction(1, 3)
    assert back.values[2] == Fraction(-2, 7)
    assert back.values[3] == 0.5
    assert back.values[4] == 0


def test_function_round_trip_complex():
    g = make_group((6,))
    vals = [0, 1 + 2j, -0.5 - 0.25j, 0, 3j, 0]
    table = FunctionTable(group=g, kind="complex", values=vals)
    back = parse_function(dump_function(table))
    assert list(back.values) == vals


def test_function_sparse_zero_fill():
    back = parse_function("group=Z8 kind=int\n2 5\n")
    assert list(back.values) == [0, 0, 5, 0, 0, 0, 0, 0]


def test_function_parse_errors():
    with pytest.raises(FileFormatError):
        parse_function("")
    with pytest.raises(FileFormatError):
        parse_function("group=Z8 kind=float\n")
    # header fields may appear in any order
    assert parse_function("kind=int group=Z8\n").group.order == 8
    with pytest.raises(FileFormatError):
        parse_function("group=Z8 kind=int extra=1\n")
    with pytest.raises(FileFormatError):
        parse_function("group=Z8 kind=int\n2 5\n2 6\n")
    with pytest.raises(FileFormatError):
        parse_function("group=Z8 kind=int\n9 5\n")
    with pytest.raises(FileFormatError):
        parse_function("group=Z8 kind=int\n1 x\n")
