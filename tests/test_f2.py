from __future__ import annotations

import functools
import operator
import random
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb.f2 import (
    echelon_basis,
    nullspace_basis,
    reduce_in_basis,
    subspace_elements,
)
from addcomb.groups import boolean_group
from addcomb.spectral import max_dissociated

from .oracles import f2_rank


def _independent_subset(n, vectors, *, weights=None):
    """The dissociated witness of F2^n: a basis of the span of the vectors,
    picked greedily in the order given (or heaviest first), exactly."""
    witness = max_dissociated(boolean_group(n), vectors, weights=weights)
    assert witness.mode == "exact"
    assert np.flatnonzero(witness.span_mask).tolist() == sorted(_span_by_enumeration(witness.members.tolist()))
    return witness.members.tolist()


def _span_by_enumeration(basis):
    out = {0}
    for b in basis:
        out |= {x ^ b for x in out}
    return out


def test_echelon_basis_spans_the_same_set():
    rng = random.Random(7)
    for _ in range(30):
        vectors = [rng.randrange(1, 256) for _ in range(rng.randrange(1, 6))]
        basis = echelon_basis(vectors)
        assert _span_by_enumeration(basis) == _span_by_enumeration(vectors)
        # echelon form: strictly decreasing leading bits
        tops = [v.bit_length() for v in basis]
        assert tops == sorted(tops, reverse=True)
        assert len(set(tops)) == len(tops)


def test_rank_matches_span_size():
    rng = random.Random(8)
    for _ in range(40):
        vectors = [rng.randrange(0, 128) for _ in range(rng.randrange(0, 6))]
        assert 2 ** f2_rank(vectors) == len(_span_by_enumeration(vectors))


def test_reduce_in_basis_rest_is_canonical_coset_form():
    basis = echelon_basis([0b1100, 0b0011])
    seen = {}
    for v in range(16):
        r = reduce_in_basis(basis, v)[1]
        assert reduce_in_basis(basis, v ^ r)[1] == 0
        coset = frozenset(v ^ s for s in _span_by_enumeration(basis))
        if coset in seen:
            assert seen[coset] == r
        else:
            seen[coset] = r
    assert len(seen) == 4


def test_in_span_brute():
    basis = echelon_basis([0b101, 0b010])
    span = _span_by_enumeration(basis)
    for v in range(8):
        assert (reduce_in_basis(basis, v)[1] == 0) == (v in span)


def test_independent_subset_preserves_span_and_order():
    vectors = [0b011, 0b101, 0b110, 0b111]  # last two dependent on first two
    picked = _independent_subset(3, vectors)
    assert len(picked) == f2_rank(vectors) == 3
    assert _span_by_enumeration(picked) == _span_by_enumeration(vectors)
    for v in picked:
        assert v in vectors


@given(st.integers(1, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_independent_subset_picks_exactly_what_leaves_the_earlier_span(n, data):
    # lists several times longer than n run far past full rank
    vectors = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=3 * n, max_size=6 * n))
    picked = _independent_subset(n, vectors)
    chosen = []
    for v in vectors:
        if v not in _span_by_enumeration(chosen):
            assert picked[len(chosen)] == v
            chosen.append(v)
    assert picked == chosen


def test_nullspace_is_the_orthogonal_complement():
    rng = random.Random(9)
    n = 8
    for _ in range(25):
        vectors = [rng.randrange(0, 1 << n) for _ in range(rng.randrange(0, 5))]
        null = nullspace_basis(vectors, n)
        assert f2_rank(vectors) + f2_rank(null) == n
        for w in null:
            for v in vectors:
                assert bin(v & w).count("1") % 2 == 0


def test_subspace_elements_terminates_and_is_complete():
    # regression: extending a list while lazily iterating it never ends
    basis = echelon_basis([0b1000, 0b0100, 0b0010, 0b0001])
    elems = subspace_elements(basis).tolist()
    assert sorted(elems) == list(range(16))
    assert subspace_elements([]).tolist() == [0]
    got = subspace_elements(echelon_basis([0b1010, 0b0101])).tolist()
    assert sorted(got) == sorted(_span_by_enumeration([0b1010, 0b0101]))
    assert len(got) == len(set(got)) == 4


def test_subspace_elements_are_indexed_by_coordinates():
    # entry c is the combination of the basis vectors picked by the bits of c
    rng = random.Random(17)
    for _ in range(30):
        basis = echelon_basis(rng.randrange(1, 1 << 12) for _ in range(rng.randrange(0, 7)))
        elems = subspace_elements(basis).tolist()
        expected = []
        for c in range(1 << len(basis)):
            x = 0
            for i, b in enumerate(basis):
                if c >> i & 1:
                    x ^= b
            expected.append(x)
        assert elems == expected


def test_coset_label_constant_on_cosets_distinct_across():
    basis = echelon_basis([0b0110, 0b1001])
    labels = {}
    for v in range(16):
        lab = reduce_in_basis(basis, v)[1]
        for s in _span_by_enumeration(basis):
            assert reduce_in_basis(basis, v ^ s)[1] == lab
        labels.setdefault(lab, set()).add(v)
    assert len(labels) == 4
    assert all(len(c) == 4 for c in labels.values())


@given(
    st.lists(st.integers(min_value=0, max_value=1023), min_size=0, max_size=6),
    st.integers(min_value=0, max_value=1023),
    st.integers(min_value=0, max_value=1023),
)
@settings(max_examples=80, deadline=None)
def test_reduce_in_basis_rest_respects_addition(vectors, v, w):
    basis = echelon_basis(vectors)
    rv, rw = reduce_in_basis(basis, v)[1], reduce_in_basis(basis, w)[1]
    assert reduce_in_basis(basis, v ^ w)[1] == reduce_in_basis(basis, rv ^ rw)[1]


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1), max_size=8),
    st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1), max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_reduce_in_basis_on_an_array_matches_each_entry(vectors, values):
    basis = echelon_basis(vectors)
    coords, rest = reduce_in_basis(basis, np.array(values, dtype=np.int64))
    assert coords.dtype == rest.dtype == np.int64
    pairs = [reduce_in_basis(basis, v) for v in values]
    assert coords.tolist() == [c for c, _ in pairs]
    assert rest.tolist() == [r for _, r in pairs]
    pivots = sum(1 << (row.bit_length() - 1) for row in basis)
    for v, (c, r) in zip(values, pairs):
        picked = [row for i, row in enumerate(basis) if c >> i & 1]
        assert c < 1 << len(basis) and r & pivots == 0
        assert functools.reduce(operator.xor, picked, r) == v


def test_independent_subset_of_large_generating_family():
    vectors = list(range(1, 64))
    picked = _independent_subset(6, vectors)
    assert len(picked) == 6
    assert f2_rank(picked) == 6
    for size in range(2, 4):
        for combo in combinations(picked, size):
            acc = 0
            for v in combo:
                acc ^= v
            assert acc != 0


def test_independent_subset_on_a_full_group_spectrum():
    # The shape a spectrum of phi_k takes on F2^16 around a planted
    # subspace V of dimension 4: its 2^12 annihilator characters first,
    # then the rest of the group, with zeros and repeats mixed in.
    n = 16
    rng = random.Random(16)
    basis = [rng.randrange(1, 1 << n) for _ in range(4)]
    annihilator = [t for t in range(1 << n) if all(bin(t & v).count("1") % 2 == 0 for v in basis)]
    assert len(annihilator) == 1 << 12
    rest = sorted(set(range(1 << n)) - set(annihilator))
    rng.shuffle(annihilator)
    rng.shuffle(rest)
    vectors = annihilator + rest
    for _ in range(200):
        vectors.insert(rng.randrange(len(vectors) + 1), rng.choice([0, rng.choice(vectors)]))
    chosen, span = [], {0}
    for v in vectors:
        if v not in span:
            chosen.append(v)
            span |= {x ^ v for x in span}
    picked = _independent_subset(n, vectors)
    assert picked == chosen and len(picked) == n
    assert set(picked[:12]) <= set(annihilator) and not set(picked[12:]) & set(annihilator)
    assert _span_by_enumeration(picked[:12]) == set(annihilator)
    # the same shape as a weight table: the annihilator heavier, ties by index
    weights = np.ones(1 << n, dtype=np.int64)
    weights[annihilator] = 2
    chosen, span = [], {0}
    for v in sorted(range(1 << n), key=lambda t: (-weights[t], t)):
        if v not in span:
            chosen.append(v)
            span |= {x ^ v for x in span}
    picked = _independent_subset(n, None, weights=weights)
    assert picked == chosen and _span_by_enumeration(picked[:12]) == set(annihilator)
