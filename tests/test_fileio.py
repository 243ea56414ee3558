from __future__ import annotations

from fractions import Fraction

import pytest

from addcomb.fileio import (
    FileFormatError,
    dump_function,
    dump_set,
    format_element,
    parse_element,
    parse_function,
    parse_set,
    read_function,
    read_set,
    write_function,
    write_set,
)
from addcomb.groups import GroupMismatchError, boolean_group, make_group
from addcomb.harmonic import FunctionTable
from addcomb.setstat import group_set


def test_element_round_trip():
    g = make_group((4, 6))
    for i in range(g.order):
        assert parse_element(g, format_element(g, i)) == i


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
    back = read_function(p)
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
