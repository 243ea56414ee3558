from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb.groups import (
    GroupMismatchError,
    SizeLimitError,
    _coords_of,
    add_index_many,
    boolean_group,
    format_group_text,
    make_group,
    neg_index_many,
    parse_group_text,
    sub_index_many,
    xor_translate_mask,
)

GROUPS = [make_group(f) for f in [(24,), (2, 2, 2), (4, 6), (101,), (3, 5, 2)]]


@pytest.mark.parametrize("g", GROUPS, ids=format_group_text)
def test_index_roundtrip(g):
    seen = set()
    for i in range(g.order):
        coords = g.unindex(i)
        assert g.index(coords) == i
        assert all(0 <= c < f for c, f in zip(coords, g.factors))
        seen.add(coords)
    assert len(seen) == g.order


@pytest.mark.parametrize("g", GROUPS, ids=format_group_text)
def test_group_axioms_on_indices(g):
    n = g.order
    zero = g.index(g.zero())
    assert zero == 0
    for i in range(0, n, max(1, n // 11)):
        for j in range(0, n, max(1, n // 7)):
            s = g.add_index(i, j)
            assert g.add_index(j, i) == s
            assert g.sub_index(s, j) == i
        assert g.add_index(i, g.neg_index(i)) == 0


def test_parse_format_roundtrip():
    for text in ["Z24", "F2^8", "Z4xZ6", "Z101", "F2^2xZ3"]:
        g = parse_group_text(text)
        assert parse_group_text(format_group_text(g)).factors == g.factors
    assert parse_group_text("F2^3").is_boolean_space
    assert not parse_group_text("Z2xZ3").is_boolean_space
    assert parse_group_text("Z2").is_boolean_space


def test_parse_rejects_garbage():
    for bad in ["", "Q8", "Z", "Zx", "F2^0", "Z4**2"]:
        with pytest.raises(ValueError):
            parse_group_text(bad)


def test_trivial_factor_rejected():
    with pytest.raises(ValueError):
        make_group((1, 4))
    with pytest.raises(ValueError):
        make_group((0,))


def test_order_cap():
    with pytest.raises(SizeLimitError):
        make_group((1 << 25,))


def test_mismatch_guard():
    g, h = make_group((6,)), make_group((2, 3))
    with pytest.raises(GroupMismatchError):
        g._check(h.element((1, 1)))


@pytest.mark.parametrize("g", GROUPS, ids=format_group_text)
def test_vectorized_index_ops_match_scalar(g):
    idx = np.arange(g.order, dtype=np.int64)
    j = g.order // 3
    added = add_index_many(g, idx, j)
    subbed = sub_index_many(g, idx, j)
    negged = neg_index_many(g, idx)
    for i in range(g.order):
        assert added[i] == g.add_index(i, j)
        assert subbed[i] == g.sub_index(i, j)
        assert negged[i] == g.neg_index(i)


@given(st.lists(st.integers(2, 9), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_vectorized_index_ops_match_coordinates_for_every_shift(factors):
    # every shift j, so each coordinate wraps for some indices and not others;
    # the reference adds coordinates from mixed-radix division
    g = make_group(factors)
    mods = np.array(g.factors)
    strides = np.array(g.strides)
    idx = np.arange(g.order, dtype=np.int64)
    coords = _coords_of(g, idx)
    assert np.array_equal(neg_index_many(g, idx), (-coords % mods) @ strides)
    for j in range(g.order):
        assert np.array_equal(add_index_many(g, idx, j), ((coords + coords[j]) % mods) @ strides)
        assert np.array_equal(sub_index_many(g, idx, j), ((coords - coords[j]) % mods) @ strides)


@pytest.mark.parametrize("factors", [(1 << 21,), (3, 1024, 700)])
def test_add_and_sub_many_on_large_groups(factors):
    g = make_group(factors)
    rng = np.random.default_rng(g.rank)
    idx = rng.integers(0, g.order, size=200)
    for j in (1, g.order // 3, g.order - 1):
        added = add_index_many(g, idx, j)
        subbed = sub_index_many(g, idx, j)
        for i, a, s in zip(idx.tolist(), added.tolist(), subbed.tolist()):
            assert a == g.add_index(i, j)
            assert s == g.sub_index(i, j)


@pytest.mark.parametrize("g", GROUPS, ids=format_group_text)
def test_coords_table_matches_unindex(g):
    table = _coords_of(g, np.arange(g.order))
    assert table.shape == (g.order, g.rank)
    for i in range(g.order):
        assert tuple(int(c) for c in table[i]) == g.unindex(i)


def test_char_phase_is_bilinear_pairing():
    g = make_group((4, 6))
    for t in range(0, g.order, 5):
        tc = g.unindex(t)
        for x in range(0, g.order, 3):
            for y in range(0, g.order, 7):
                xc, yc = g.unindex(x), g.unindex(y)
                lhs = g.char_phase(tc, g.add(xc, yc)) % 1
                rhs = (g.char_phase(tc, xc) + g.char_phase(tc, yc)) % 1
                assert lhs == rhs
                assert isinstance(lhs, Fraction)


def test_char_eval_unit_modulus():
    g = make_group((3, 5))
    for t in range(g.order):
        for x in range(0, g.order, 2):
            z = g.char_eval(g.unindex(t), g.unindex(x))
            assert abs(abs(z) - 1.0) < 1e-12


@given(st.integers(min_value=1, max_value=10), st.data())
@settings(max_examples=60, deadline=None)
def test_xor_translate_mask_permutes_membership(n, data):
    g = boolean_group(n)
    members = data.draw(
        st.sets(st.integers(min_value=0, max_value=g.order - 1), max_size=g.order)
    )
    shift = data.draw(st.integers(min_value=0, max_value=g.order - 1))
    mask = 0
    for i in members:
        mask |= 1 << i
    shifted = xor_translate_mask(mask, shift, n)
    expected = {i ^ shift for i in members}
    assert shifted == sum(1 << i for i in expected)


def test_bohr_norm_symmetry():
    g = make_group((12,))
    t = g.unindex(1)
    for x in range(12):
        nx = g.neg_index(x)
        assert g.bohr_norm(t, g.unindex(x)) == g.bohr_norm(t, g.unindex(nx))
        assert 0 <= g.bohr_norm(t, g.unindex(x)) <= Fraction(1, 2)
