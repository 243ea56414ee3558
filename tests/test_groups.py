from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb.groups import (
    GroupMismatchError,
    SizeLimitError,
    add_index_many,
    format_group_text,
    make_group,
    neg_index_many,
    parse_group_text,
    sub_index_many,
)

from .oracles import coords_direct

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
    zero = g.index((0,) * g.rank)
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
    g = make_group((6,))
    with pytest.raises(GroupMismatchError):
        g.index((1, 1))  # an element of Z2 x Z3: the same order in another form


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
    # the reference adds the coordinates that unindex gives
    g = make_group(factors)
    mods = np.array(g.factors)
    strides = np.array(g.strides)
    idx = np.arange(g.order, dtype=np.int64)
    coords = coords_direct(g, idx)
    assert np.array_equal(neg_index_many(g, idx), (-coords % mods) @ strides)
    for j in range(g.order):
        assert np.array_equal(add_index_many(g, idx, j), ((coords + coords[j]) % mods) @ strides)
        assert np.array_equal(sub_index_many(g, idx, j), ((coords - coords[j]) % mods) @ strides)


@pytest.mark.parametrize("g", GROUPS + [make_group((2,) * 5)], ids=format_group_text)
def test_index_ops_broadcast_over_an_array_of_shifts(g):
    # a column of elements against a row of shifts: the table of y + x and y - x
    ys = np.arange(g.order, dtype=np.int64)[:, None]
    xs = np.arange(0, g.order, 3, dtype=np.int64)
    added = add_index_many(g, ys, xs)
    subbed = sub_index_many(g, ys, xs)
    assert added.shape == subbed.shape == (g.order, len(xs))
    for col, x in enumerate(xs.tolist()):
        assert added[:, col].tolist() == [g.add_index(y, x) for y in range(g.order)]
        assert subbed[:, col].tolist() == [g.sub_index(y, x) for y in range(g.order)]
    assert sub_index_many(g, ys, xs[:0]).shape == (g.order, 0)


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
