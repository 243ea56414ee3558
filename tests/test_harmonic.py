from __future__ import annotations

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
    _wht_list,
    conv_error,
    dft,
    idft,
    indicator,
    table_from_values,
    transform_error,
    wht_int,
    wht_int_columns,
)
from addcomb.spectral import spectrum

from addcomb.setstat import group_set

from .oracles import conv_direct, dft_direct, dft_entry_fsum

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
def test_wht_int_path_at_the_int64_boundary(monkeypatch, values, int64_path):
    g = boolean_group(4)
    calls = []
    real = harmonic._wht
    monkeypatch.setattr(harmonic, "_wht", lambda arr: calls.append(1) or real(arr))
    assert wht_int(g, values).tolist() == _wht_list(values)
    assert bool(calls) == int64_path


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
    want = _wht_list(values)
    assert wht_int(g, values).tolist() == want
    assert fhat.values.tolist() == want
    assert idft(fhat).values.tolist() == values
    eps = data.draw(st.sampled_from([Fraction(1, 16), Fraction(1, 3), Fraction(3, 4)]), label="eps")
    picked = [t for t, w in enumerate(want) if abs(w) * eps.denominator >= eps.numerator * l1]
    assert spectrum(table, eps).members == tuple(sorted(picked, key=lambda t: (-abs(want[t]), t)))


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
        assert worst <= conv_error(f, h) < 0.5


def test_transform_error_is_zero_only_on_the_exact_walsh_path():
    g = boolean_group(6)
    values = list(range(g.order))
    assert transform_error(table_from_values(g, values, kind="int")) == 0
    assert transform_error(table_from_values(g, values, kind="real")) > 0
    assert transform_error(table_from_values(make_group((64,)), values, kind="int")) > 0
