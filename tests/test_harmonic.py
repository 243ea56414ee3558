from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    conv_errors,
    dft,
    dft_columns,
    idft_columns,
    indicator,
    power_sums,
    transform_cost,
    transform_error,
    wht_int,
    wht_int_columns,
)
from addcomb.spectral import max_dissociated, spectrum

from addcomb.setstat import _table, group_set

from .oracles import conv_direct, dft_direct, dft_entry_fsum, greedy_dissociated_direct, walsh_direct

GROUPS = [make_group(f) for f in [(8,), (2, 2, 2), (12,), (3, 4), (5, 5)]]


def _random_values(g, rng, lo=-6, hi=6):
    return [rng.randrange(lo, hi + 1) for _ in range(g.order)]


@pytest.mark.parametrize("g", GROUPS, ids=format_group_text)
def test_dft_matches_direct_character_sum(g):
    rng = random.Random(20 + g.order)
    values = _random_values(g, rng)
    got = dft(FunctionTable(g, values, "int"))
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
    got = wht_int_columns(g, np.array(columns, dtype=np.int64).T, 9 * g.order)
    assert got.shape == (g.order, 3)
    for col, values in zip(got.T.tolist(), columns):
        assert col == wht_int(g, values).tolist()
    with pytest.raises(GroupMismatchError):
        wht_int_columns(make_group((4, 8)), np.zeros((32, 1), dtype=np.int64), 0)
    with pytest.raises(GroupMismatchError):
        wht_int_columns(g, np.zeros(g.order, dtype=np.int64), 0)
    with pytest.raises(GroupMismatchError):
        wht_int_columns(g, np.zeros((g.order, 1)), 0)


def _at_l1(total: int, n: int = 13) -> list[int]:
    """Nonnegative values on F2^n summing to total, so that the transform
    at 0, the last of a chain of butterfly partial sums, is the L1 norm.
    F2^13 is past harmonic._RADIX4_CELLS: the butterfly runs at the width
    the L1 norm picks, in radix-4 passes after one radix-2 level."""
    values = [total >> n] * (1 << n)
    values[0] += total % (1 << n)
    return values


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
        # the widths' edges: int16 holds 2^15 - 1, int32 2^31 - 1; max|v| * N
        # passes 2^15 in every case, so the exact L1 picks the width
        (_at_l1((1 << 15) - 1), True),
        (_at_l1(1 << 15), True),
        (_at_l1((1 << 31) - 1), True),
        (_at_l1(1 << 31), True),
    ],
)
def test_wht_int_path_at_the_int64_boundary(values, int64_path):
    got = wht_int(boolean_group(len(values).bit_length() - 1), values)
    assert got.dtype == (np.int64 if int64_path else object)
    assert got.tolist() == walsh_direct(values)


# column L1 caps on each side of the butterfly's int16, int32 and int64 widths
_L1_CAPS = ((1 << 15) - 1, 1 << 15, (1 << 31) - 1, 1 << 31, (1 << 62) - 1)


def _column_table(data, g, k, dtype, layout):
    """k columns on g in the C-order (N, k) layout or in setstat's table
    layout, with integer, bigint or float complex entries, and the largest
    column L1 norm.  An integer column takes an L1 cap from _L1_CAPS, so a
    stack mixes widths; a nonnegative one sums to its cap exactly, so its
    transform at 0 reaches it.  The integer table is stored in int8, int16,
    int32 or int64 where its values fit.  Bigint and complex columns spread
    a drawn palette over the group by a seeded generator, so large orders
    cost few draws."""
    rng = np.random.default_rng(data.draw(st.integers(0, (1 << 32) - 1), label="seed"))
    n = g.order
    if dtype == "int":
        columns = []
        for _ in range(k):
            cap = data.draw(st.sampled_from(_L1_CAPS), label="l1 cap")
            step = cap // n
            if data.draw(st.booleans(), label="nonnegative"):
                col = rng.integers(0, step + 1, n)
                col[0] += cap - int(col.sum())
            else:
                col = rng.integers(-step, step + 1, n)
            columns.append(col.tolist())
        peak = max(abs(v) for col in columns for v in col)
        stored = data.draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64]), label="stored")
        kind = stored if peak <= np.iinfo(stored).max else np.int64
    else:
        if dtype == "object":
            values = st.integers(-(1 << 80), 1 << 80)
        else:
            part = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
            values = st.builds(complex, part, part)
        palette = data.draw(st.lists(values, min_size=1, max_size=16), label="palette")
        columns = [[palette[i] for i in rng.integers(0, len(palette), n).tolist()] for _ in range(k)]
        kind = {"object": object, "complex128": np.complex128}[dtype]
    table = np.array(columns, dtype=kind).T.copy() if layout == "C" else _table(n, k, kind)
    if layout != "C":
        for j, col in enumerate(columns):
            table[:, j] = col
    l1 = max(sum(abs(v) for v in col) for col in columns) if dtype == "int" else None
    return table, columns, l1


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_walsh_butterfly_matches_the_list_butterfly(data):
    # orders 11..13 reach harmonic._RADIX4_CELLS cells with k large enough,
    # and the odd ones take the leftover radix-2 level
    g = boolean_group(data.draw(st.integers(1, 10) | st.integers(11, 13), label="n"))
    layout = data.draw(st.sampled_from(["C", "stack"]), label="layout")
    k = data.draw(st.integers(1, 5), label="k")
    dtype = data.draw(st.sampled_from(["int", "object", "complex128"]), label="dtype")
    table, columns, l1 = _column_table(data, g, k, dtype, layout)
    if dtype == "int":
        got = wht_int_columns(g, table, l1)
        assert got.dtype == np.int64
    elif dtype == "object":
        got = harmonic._wht(table)  # wht_int's path past int64, on a stack
        assert got.dtype == object
    else:
        got = dft_columns(g, table)  # the float path: the same additions, bit for bit
        assert got.dtype == np.complex128
    assert got.flags.c_contiguous == table.flags.c_contiguous
    assert got.flags.f_contiguous == table.flags.f_contiguous
    for j, col in enumerate(columns):
        assert got[:, j].tolist() == walsh_direct(col)


@pytest.mark.parametrize("n", [4, 13])  # below and past harmonic._RADIX4_CELLS
@pytest.mark.parametrize("stored", [np.int8, np.int16, np.int32])
def test_walsh_butterfly_widens_a_table_stored_narrower_than_its_sums(stored, n):
    # entries at the stored dtype's extremes: the first level's sums pass
    # them, so the butterfly must add at its own width from the first pass
    g = boolean_group(n)
    top = int(np.iinfo(stored).max)
    table = np.full((2, g.order), top, dtype=stored)
    table[1, 1::2] = -top
    got = wht_int_columns(g, table.T, top * g.order)
    assert got.dtype == np.int64
    for j in range(2):
        assert got[:, j].tolist() == walsh_direct(table[j].tolist())


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
    assert (wht_int(g, fhat.values) // g.order).tolist() == values
    eps = data.draw(st.sampled_from([Fraction(1, 16), Fraction(1, 3), Fraction(3, 4)]), label="eps")
    picked = [t for t, w in enumerate(want) if abs(w) * eps.denominator >= eps.numerator * l1]
    spec = spectrum(table, eps)
    assert spec.members.tolist() == picked
    # heaviest first, ties by index, on exact weights (Python ints past int64)
    heaviest_first = sorted(picked, key=lambda t: (-abs(want[t]), t))
    assert max_dissociated(g, weights=spec.weights).members.tolist() == greedy_dissociated_direct(g, heaviest_first)


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
        fhat = dft(FunctionTable(g, values, "int"))
        rhs = sum(abs(w) ** 2 for w in fhat.values)
        assert abs(lhs - rhs) <= 1e-9 * lhs if lhs else abs(rhs) < 1e-9


@pytest.mark.parametrize("g", GROUPS, ids=format_group_text)
def test_inversion_roundtrip(g):
    rng = random.Random(g.order + 1)
    values = _random_values(g, rng)
    fhat = dft(FunctionTable(g, values, "int")).values
    back = wht_int(g, fhat) // g.order if g.is_boolean_space else idft_columns(g, fhat[:, None])[:, 0]
    for a, b in zip(back, values):
        assert abs(a - b) < 1e-8


def test_indicator_kind_and_support():
    g = boolean_group(3)
    f = indicator(g, [1, 5])
    assert f.kind == "int"
    assert np.flatnonzero(f.values).tolist() == [1, 5]
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
    [got] = power_sums(np.array(counts, dtype=np.int64), 2)
    assert type(got) is int and got == sum(c * c for c in counts)


def _root_below(x: int, k: int) -> int:
    """The largest r >= 0 with r^k < x, for x >= 1."""
    r = int(x ** (1 / k))
    while r**k >= x:
        r -= 1
    while (r + 1) ** k < x:
        r += 1
    return r


@st.composite
def _power_tables(draw):
    """(counts, top): a 1-D array or an (N, m) int64 table of nonnegative
    counts, m = 0 included, whose columns put max^(top - 1) * sum just
    below, at or above 2^63: each column's peak is the largest m0 with
    N m0^top <= 2^63, moved by -1..1, taken by all or by some entries."""
    top = draw(st.integers(2, 6))
    rows = draw(st.integers(0, 6))
    width = None if draw(st.booleans()) else draw(st.integers(0, 4))
    columns = []
    for _ in range(1 if width is None else width):
        peak = _root_below((1 << 63) // max(rows, 1) + 1, top) + draw(st.integers(-1, 1))
        col = [peak] * rows
        if rows and draw(st.booleans()):  # the peak once, other entries below it
            col[1:] = draw(st.lists(st.integers(0, peak), min_size=rows - 1, max_size=rows - 1))
        columns.append(col)
    table = np.array(columns, dtype=np.int64).reshape(len(columns), rows).T
    return (table[:, 0] if width is None else np.ascontiguousarray(table)), top


@given(_power_tables())
@example((np.full(2, 1 << 31, dtype=np.int64), 2))  # max * sum = 2^63 = the sum itself
@example((np.full((1, 1), 1 << 21, dtype=np.int64), 3))  # max^2 * sum = 2^63 = the cube
@example((np.array([[1 << 12, 1 << 12], [1 << 12, 3]], dtype=np.int64), 5))  # one column each side
@example((np.zeros((0, 3), dtype=np.int64), 4))  # an empty table
@settings(max_examples=200, deadline=None)
def test_power_sums_match_python_ints(case):
    # an int64 sum past 2^63 would wrap, so a column summed on the wrong
    # side of the bound misses the oracle
    counts, top = case
    columns = [counts.tolist()] if counts.ndim == 1 else counts.T.tolist()
    want = [[sum(c**k for c in col) for col in columns] for k in range(2, top + 1)]
    got = power_sums(counts, top)
    if counts.ndim == 1:
        got = [[s] for s in got]
    assert got == want
    assert all(type(s) is int for row in got for s in row)


@pytest.mark.parametrize("top", [2, 3, 6])
def test_power_sums_read_an_int64_safe_table_in_place(top):
    # each column has N m^(top - 1) * m < 2^63 <= N m^top * m, so its bound
    # is met only at the exponent top - 1.  Summed in int64 the kernel
    # allocates one product table; a masked copy of the table, or Python
    # ints (some 40 bytes an entry), would take twice that or more.
    rows = 1 << 12
    peak = _root_below((1 << 63) // rows, top)
    assert rows * peak ** (top + 1) >= 1 << 63
    table = np.full((rows, 4), peak, dtype=np.int64)
    tracemalloc.start()
    try:
        sums = power_sums(table, top)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums == [[rows * peak**k] * 4 for k in range(2, top + 1)]
    assert peak_bytes < 1.5 * table.nbytes


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
        tables.append(FunctionTable(g, _random_values(g, rng, -8, 8), "int"))
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
        z = idft_columns(g, (dft(f).values * dft(h).values)[:, None])[:, 0]
        worst = max(abs(zx - c) for zx, c in zip(z.tolist(), conv_direct(A, B)))
        assert worst <= conv_errors(g, [a], [b])[0] < 0.5


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
        assert conv_errors(g, [a], [b])[0] >= floor > 0


def test_transform_error_is_zero_only_on_the_exact_walsh_path():
    g = boolean_group(6)
    values = list(range(g.order))
    assert transform_error(FunctionTable(g, values, "int")) == 0
    assert transform_error(FunctionTable(g, values, "real")) > 0
    assert transform_error(FunctionTable(make_group((64,)), values, "int")) > 0


def test_transform_cost_charges_bluestein_axes():
    # powers of two cost log2 n levels per entry, the Walsh butterfly too
    for text in ("F2^12", "Z4096", "Z64xZ64", "F2^3xZ8"):
        g = parse_group_text(text)
        assert transform_cost(g) == g.order * math.log2(g.order)
    # a prime below pocketfft's Bluestein threshold runs its generic pass;
    # a prime past it runs Bluestein's three transforms of length about 2n,
    # several times the work of the power of two next to it
    assert transform_cost(make_group((47,))) == 47 * (1.1 * 47 / 2)
    for n in (4099, 65521):
        ratio = transform_cost(make_group((n,))) / (n * math.log2(n))
        assert 4 < ratio < 9
