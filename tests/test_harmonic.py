from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb.groups import (
    GroupMismatchError,
    boolean_group,
    format_group_text,
    make_group,
    parse_group_text,
)
from addcomb import harmonic
from addcomb.harmonic import (
    FunctionTable,
    conv_error,
    dft,
    dft_columns,
    idft,
    indicator,
    sum_of_squares,
    table_from_values,
    transform_error,
    wht_int,
    wht_int_columns,
)
from addcomb.spectral import spectrum

from addcomb.setstat import _stack, group_set

from .oracles import conv_direct, dft_direct, dft_entry_fsum, walsh_direct

GROUPS = [make_group(f) for f in [(8,), (2, 2, 2), (12,), (3, 4), (5, 5)]]


def _random_values(g, rng, lo=-6, hi=6):
    return [rng.randrange(lo, hi + 1) for _ in range(g.order)]


@pytest.mark.parametrize("g", GROUPS, ids=format_group_text)
def test_dft_matches_direct_character_sum(g):
    rng = random.Random(20 + g.order)
    values = _random_values(g, rng)
    got = dft(table_from_values(g, values, kind="int"))
    want = dft_direct(g, values)
    for a, b in zip(got.values, want):
        assert abs(a - b) < 1e-8 * (1 + abs(b))


def test_wht_int_matches_direct_on_boolean_groups():
    for n in (1, 2, 5, 8):
        g = boolean_group(n)
        rng = random.Random(n)
        values = _random_values(g, rng, -9, 9)
        got = wht_int(g, values)
        want = dft_direct(g, values)
        for a, b in zip(got.tolist(), want):
            assert isinstance(a, int)
            assert abs(a - b.real) < 1e-6 and abs(b.imag) < 1e-6


def test_wht_int_columns_transforms_each_column():
    g = boolean_group(5)
    rng = random.Random(5)
    columns = [_random_values(g, rng, -9, 9) for _ in range(3)]
    got = wht_int_columns(g, np.array(columns, dtype=np.int64).T)
    assert got.shape == (g.order, 3)
    for col, values in zip(got.T.tolist(), columns):
        assert col == wht_int(g, values).tolist()
    with pytest.raises(GroupMismatchError):
        wht_int_columns(make_group((4, 8)), np.zeros((32, 1), dtype=np.int64))
    with pytest.raises(GroupMismatchError):
        wht_int_columns(g, np.zeros(g.order, dtype=np.int64))


@pytest.mark.parametrize(
    "values, int64_path",
    [
        # max|v| * N passes 2^62 in every case, so the exact L1 decides
        ([(1 << 62) - 1] + [0] * 15, True),
        ([1 << 62] + [0] * 15, False),
        ([1 << 58, -(1 << 58)] * 7 + [1 << 58, 1 - (1 << 58)], True),  # L1 = 2^62 - 1
        ([1 << 58, -(1 << 58)] * 8, False),  # L1 = 2^62
        ([(1 << 62) - 1] + [1] * 15, False),
        ([1 << 63] + [0] * 15, False),  # beyond int64 altogether
    ],
)
def test_wht_int_path_at_the_int64_boundary(values, int64_path):
    got = wht_int(boolean_group(4), values)
    assert got.dtype == (np.int64 if int64_path else object)
    assert got.tolist() == walsh_direct(values)


def _column_table(data, g, k, dtype, layout):
    """k columns on g in the C-order (N, k) layout or in setstat's stack
    layout, with int64, bigint or float complex entries."""
    if dtype == "int64":
        values = st.integers(-(1 << 40), 1 << 40)
    elif dtype == "object":
        values = st.integers(-(1 << 80), 1 << 80)
    else:
        part = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        values = st.builds(complex, part, part)
    columns = [data.draw(st.lists(values, min_size=g.order, max_size=g.order)) for _ in range(k)]
    kind = {"int64": np.int64, "object": object, "complex128": np.complex128}[dtype]
    table = np.array(columns, dtype=kind).T.copy() if layout == "C" else _stack(g.order, k, kind)
    if layout != "C":
        for j, col in enumerate(columns):
            table[:, j] = col
    return table, columns


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_walsh_butterfly_matches_the_list_butterfly(data):
    g = boolean_group(data.draw(st.integers(1, 10), label="n"))
    layout = data.draw(st.sampled_from(["C", "stack"]), label="layout")
    k = data.draw(st.integers(1, 5), label="k")
    dtype = data.draw(st.sampled_from(["int64", "object", "complex128"]), label="dtype")
    table, columns = _column_table(data, g, k, dtype, layout)
    if dtype == "int64":
        got = wht_int_columns(g, table)
    elif dtype == "object":
        got = harmonic._wht(table)  # wht_int's path past int64, on a stack
    else:
        got = dft_columns(g, table)  # the float path: the same additions, bit for bit
    assert got.dtype == table.dtype
    assert got.flags.c_contiguous == table.flags.c_contiguous
    assert got.flags.f_contiguous == table.flags.f_contiguous
    for j, col in enumerate(columns):
        assert got[:, j].tolist() == walsh_direct(col)


def test_walsh_butterfly_at_the_transform_cap():
    g = boolean_group(16)
    rng = random.Random(16)
    values = [rng.randrange(-1000, 1001) for _ in range(g.order)]
    assert wht_int(g, values).tolist() == walsh_direct(values)


def test_walsh_oracle_is_the_character_sum():
    for n in (1, 3, 5):
        g = boolean_group(n)
        rng = random.Random(n)
        values = _random_values(g, rng, -9, 9)
        direct = [sum(v * (-1) ** bin(x & t).count("1") for x, v in enumerate(values)) for t in range(g.order)]
        assert walsh_direct(values) == direct


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_int_tables_at_the_int64_boundary(data):
    g = data.draw(st.sampled_from([boolean_group(4), make_group((6,))]), label="group")
    # L1 = 2^62 - 1 (int64), 2^62 (object), and past int64 altogether
    l1 = data.draw(st.sampled_from([(1 << 62) - 1, 1 << 62, (1 << 63) + (1 << 61)]), label="l1")
    cuts = sorted(data.draw(st.lists(st.integers(0, l1), min_size=g.order - 1, max_size=g.order - 1)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=g.order, max_size=g.order))
    values = [s * (hi - lo) for s, lo, hi in zip(signs, [0, *cuts], [*cuts, l1])]
    table = FunctionTable(g, values, "int")
    assert table.values.dtype == (np.int64 if l1 < 1 << 62 else object)
    assert table.l1() == l1 and table.values.tolist() == values
    fhat = dft(table)
    if not g.is_boolean_space:
        for a, b in zip(fhat.values.tolist(), dft_direct(g, values)):
            assert abs(a - b) <= 1e-9 * l1
        return
    want = walsh_direct(values)
    assert wht_int(g, values).tolist() == want
    assert fhat.values.tolist() == want
    assert idft(fhat).values.tolist() == values
    eps = data.draw(st.sampled_from([Fraction(1, 16), Fraction(1, 3), Fraction(3, 4)]), label="eps")
    picked = [t for t, w in enumerate(want) if abs(w) * eps.denominator >= eps.numerator * l1]
    assert spectrum(table, eps).members.tolist() == sorted(picked, key=lambda t: (-abs(want[t]), t))


def test_wht_int_is_exact_at_scale():
    # big entries that would lose precision in float64
    g = boolean_group(4)
    values = [3**20 + i for i in range(g.order)]
    spectrum = wht_int(g, values)
    assert spectrum[0] == sum(values)
    back = wht_int(g, spectrum)
    assert back.tolist() == [v * g.order for v in values]


@pytest.mark.parametrize("g", GROUPS, ids=format_group_text)
def test_parseval_energy_identity(g):
    rng = random.Random(g.order * 7)
    values = _random_values(g, rng)
    lhs = g.order * sum(v * v for v in values)
    if g.is_boolean_space:
        assert lhs == sum(w * w for w in wht_int(g, values))
    else:
        fhat = dft(table_from_values(g, values, kind="int"))
        rhs = sum(abs(w) ** 2 for w in fhat.values)
        assert abs(lhs - rhs) <= 1e-9 * lhs if lhs else abs(rhs) < 1e-9


@pytest.mark.parametrize("g", GROUPS, ids=format_group_text)
def test_inversion_roundtrip(g):
    rng = random.Random(g.order + 1)
    values = _random_values(g, rng)
    back = idft(dft(table_from_values(g, values, kind="int")))
    for a, b in zip(back.values, values):
        assert abs(a - b) < 1e-8


def test_indicator_kind_and_support():
    g = boolean_group(3)
    f = indicator(g, [1, 5])
    assert f.kind == "int"
    assert f.support() == [1, 5]
    assert f.l1() == 2 and f.l2_squared() == 2


@pytest.mark.parametrize(
    "values",
    [
        [1 << 31, (1 << 31) - 1],  # max|v| * L1 = 2^63 - 2^31
        [-(1 << 31), 1 << 31],  # max|v| * L1 = 2^63, and so is the sum
        [1 << 31, 1 << 31, 1],  # just above
        [1 << 31] * 8,  # the sum of the squares is 2^65
        [3, -4, 0, 7],
    ],
)
def test_l2_squared_is_exact_on_either_side_of_2_63(values):
    g = boolean_group(3)
    table = FunctionTable(g, values + [0] * (g.order - len(values)), "int")
    assert table.values.dtype == np.int64
    assert table.l2_squared() == sum(v * v for v in values)


@pytest.mark.parametrize(
    "counts",
    [
        [(1 << 31) - 1, 1 << 31],  # max * sum = 2^63 - 2^31: summed in int64
        [1 << 31, 1 << 31],  # max * sum = 2^63, and so is the sum of the squares
        [1 << 32, 1 << 31, 3],  # 2^64 wraps to 0 in int64
        [1 << 31] * 8,
        [0, 5, 0, 7],
        [],
    ],
)
def test_sum_of_squares_takes_python_ints_past_the_bound(counts):
    # past the bound an int64 sum would wrap, so matching the Python-int
    # oracle shows which path ran
    got = sum_of_squares(np.array(counts, dtype=np.int64))
    assert type(got) is int and got == sum(c * c for c in counts)


def test_table_length_guard():
    g = make_group((6,))
    with pytest.raises(ValueError):
        FunctionTable(group=g, values=[0] * 5, kind="int")
    with pytest.raises(ValueError):
        FunctionTable(group=g, values=[0] * 6, kind="rational")


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=8, max_size=8))
@settings(max_examples=50, deadline=None)
def test_wht_involution_property(values):
    g = boolean_group(3)
    twice = wht_int(g, wht_int(g, values))
    assert twice.tolist() == [v * g.order for v in values]


# Prime (Bluestein), twice a prime, a power of two, a product of powers of
# two, a small prime, and mixed radices.
@pytest.mark.parametrize("text", ["Z65521", "Z65498", "Z65536", "Z256xZ256", "Z101", "Z60", "Z4xZ6"])
def test_transform_error_bounds_every_entry(text):
    g = parse_group_text(text)
    rng = random.Random(g.order)
    tables = [indicator(g, rng.sample(range(g.order), g.order // 4))]
    if g.order <= 1024:
        tables.append(table_from_values(g, _random_values(g, rng, -8, 8), kind="int"))
    freqs = range(g.order) if g.order <= 128 else [0, 1, g.order - 1] + rng.sample(range(g.order), 12)
    for f in tables:
        got = dft(f).values
        values = f.values.tolist()
        worst = max(abs(got[t] - dft_entry_fsum(g, values, t)) for t in freqs)
        assert worst < transform_error(f)


@pytest.mark.parametrize("text", ["Z60", "Z4xZ6", "Z101", "Z4096"])
def test_conv_error_bounds_every_entry(text):
    g = parse_group_text(text)
    rng = random.Random(g.order)
    sizes = [(g.order, g.order), (g.order // 2, g.order // 3), (1, g.order // 4)]
    if g.order > 1024:  # the pair oracle is quadratic
        sizes = [(150, 150), (300, 40)]
    for a, b in sizes:
        A = group_set(g, rng.sample(range(g.order), a))
        B = group_set(g, rng.sample(range(g.order), b))
        f, h = A.indicator(), B.indicator()
        z = idft(FunctionTable(g, dft(f).values * dft(h).values, "complex")).values
        worst = max(abs(zx - c) for zx, c in zip(z.tolist(), conv_direct(A, B)))
        assert worst <= conv_error(g, a, b) < 0.5


@pytest.mark.parametrize("text", ["Z60", "Z101", "Z4096", "Z65521"])
def test_conv_error_carries_both_transform_errors(text):
    # the observed errors sit far below the bound, so check its terms: each
    # transform's own error, weighted by the other set's size, over sqrt(N)
    g = parse_group_text(text)
    rng = random.Random(g.order)
    for a, b in [(1, 1), (1, g.order), (g.order // 3, g.order // 7), (g.order, g.order)]:
        f = indicator(g, rng.sample(range(g.order), a))
        h = indicator(g, rng.sample(range(g.order), b))
        floor = (a * transform_error(h) + b * transform_error(f)) / math.sqrt(g.order)
        assert conv_error(g, a, b) >= floor > 0


def test_transform_error_is_zero_only_on_the_exact_walsh_path():
    g = boolean_group(6)
    values = list(range(g.order))
    assert transform_error(table_from_values(g, values, kind="int")) == 0
    assert transform_error(table_from_values(g, values, kind="real")) > 0
    assert transform_error(table_from_values(make_group((64,)), values, kind="int")) > 0
