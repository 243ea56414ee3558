from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb.bohr import (
    _counter,
    check_size_bounds,
    dilate,
    find_regular_radius,
    intersect,
    make_bohr_spec,
    materialize,
    regularity_test,
    size_profile,
)
from addcomb.f2 import nullspace_basis, subspace_elements
from addcomb.groups import boolean_group, make_group

from .oracles import bohr_members_direct


def test_frozen_halfwidth_example():
    g = make_group((101,))
    b = materialize(g, make_bohr_spec(g, [1], Fraction(1, 4)))
    # min(x, 101-x) < 101/4, so x in {0..25} or {76..100}
    assert len(b) == 51
    assert b.density == Fraction(51, 101)
    assert set(b.members.members) == set(range(26)) | set(range(76, 101))


@pytest.mark.parametrize("factors", [(101,), (60,), (4, 6)])
def test_membership_matches_definition(factors):
    g = make_group(factors)
    rng = random.Random(g.order)
    for _ in range(8):
        d = rng.randrange(1, 4)
        gamma = rng.sample(range(1, g.order), d)
        eps = [Fraction(rng.randrange(1, 9), 16) for _ in range(d)]
        b = materialize(g, make_bohr_spec(g, gamma, eps))
        assert set(b.members.members) == bohr_members_direct(g, gamma, eps)


def test_boolean_small_radius_is_the_orthogonal_complement():
    g = boolean_group(6)
    gamma = [0b000011, 0b010101]
    b = materialize(g, make_bohr_spec(g, gamma, Fraction(1, 3)))
    perp = set(subspace_elements(nullspace_basis(gamma, 6)))
    assert set(b.members.members) == perp


def test_identity_and_symmetry_always_present():
    g = make_group((2520,))
    b = materialize(g, make_bohr_spec(g, [1, 7], [Fraction(1, 8), Fraction(1, 5)]))
    assert 0 in b.members.index_set
    assert b.members.neg().index_set == b.members.index_set
    assert set(b.members.members) == bohr_members_direct(g, [1, 7], [Fraction(1, 8), Fraction(1, 5)])


def test_spec_validation():
    g = make_group((30,))
    with pytest.raises(ValueError):
        make_bohr_spec(g, [1], Fraction(0))
    with pytest.raises(ValueError):
        make_bohr_spec(g, [1], Fraction(3, 2))
    with pytest.raises(ValueError):
        make_bohr_spec(g, [40], Fraction(1, 4))
    with pytest.raises(ValueError):
        make_bohr_spec(g, [1, 2], [Fraction(1, 4)])


def test_dilate_scales_radii_and_checks_overflow():
    g = make_group((101,))
    spec = make_bohr_spec(g, [3], Fraction(1, 4))
    half = dilate(spec, Fraction(1, 2))
    assert half.eps == (Fraction(1, 8),)
    with pytest.raises(ValueError):
        dilate(spec, Fraction(5))
    with pytest.raises(ValueError):
        dilate(spec, Fraction(-1, 2))


def test_size_profile_matches_materialize_counts():
    g = make_group((252,))
    spec = make_bohr_spec(g, [1, 5], [Fraction(1, 4), Fraction(1, 3)])
    rhos = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    sizes = size_profile(g, spec, rhos)
    for rho, size in zip(rhos, sizes):
        assert size == len(materialize(g, dilate(spec, rho)))
    assert sizes == sorted(sizes)


def test_intersect_is_memberwise_intersection():
    g = make_group((60,))
    s1 = make_bohr_spec(g, [1], Fraction(1, 4))
    s2 = make_bohr_spec(g, [7], Fraction(1, 5))
    both = intersect(s1, s2)
    m1 = set(materialize(g, s1).members.members)
    m2 = set(materialize(g, s2).members.members)
    assert set(materialize(g, both).members.members) == m1 & m2


def test_intersect_rejects_mismatched_groups():
    s1 = make_bohr_spec(make_group((10,)), [1], Fraction(1, 4))
    s2 = make_bohr_spec(make_group((12,)), [1], Fraction(1, 4))
    with pytest.raises(ValueError):
        intersect(s1, s2)


def test_size_bounds_reports_pass_on_random_specs():
    g = make_group((101,))
    rng = random.Random(11)
    for _ in range(10):
        d = rng.randrange(1, 3)
        gamma = rng.sample(range(1, 101), d)
        eps = [Fraction(rng.randrange(1, 8), 16) for _ in range(d)]
        b = materialize(g, make_bohr_spec(g, gamma, eps))
        other = materialize(g, make_bohr_spec(g, [rng.randrange(1, 101)], Fraction(1, 4)))
        for rec in check_size_bounds(b, others=[other]):
            assert rec.ok


def test_find_regular_radius_yields_regular_verdict():
    g = make_group((101,))
    spec = find_regular_radius(g, [1, 12], [Fraction(1, 4), Fraction(1, 6)])
    b = materialize(g, spec)
    verdict = regularity_test(b)
    assert verdict.regular
    # the search dilates down from the requested radii
    assert spec.eps[0] <= Fraction(1, 4) and spec.eps[1] <= Fraction(1, 6)


def test_regularity_verdict_fields():
    g = make_group((101,))
    b = materialize(g, make_bohr_spec(g, [1], Fraction(1, 4)))
    verdict = regularity_test(b)
    assert verdict.base_size == 51
    assert verdict.sizes
    assert all(size > 0 for _, size in verdict.sizes)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_dilation_monotonicity_property(data):
    g = make_group((60,))
    d = data.draw(st.integers(min_value=1, max_value=2))
    gamma = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=59), min_size=d, max_size=d, unique=True
        )
    )
    num = data.draw(st.integers(min_value=1, max_value=7))
    spec = make_bohr_spec(g, gamma, Fraction(num, 8))
    rho1 = Fraction(data.draw(st.integers(min_value=1, max_value=7)), 8)
    rho2 = Fraction(data.draw(st.integers(min_value=1, max_value=8)), 8)
    lo, hi = min(rho1, rho2), max(rho1, rho2)
    sizes = size_profile(g, spec, [lo, hi])
    assert sizes[0] <= sizes[1]


EXACTNESS_GROUPS = [make_group(f) for f in [(24,), (60,), (97,), (120,), (128,), (4, 6), (6, 10), (3, 4, 5)]]


def _wide_fraction(draw, bits: int = 100) -> Fraction:
    """A value in (0, 1] with a denominator of about `bits` bits."""
    den = draw(st.integers(min_value=1 << (bits - 1), max_value=1 << bits)) | 1
    return Fraction(draw(st.integers(min_value=1, max_value=den)), den)


def _boundary_fraction(draw, n: int) -> Fraction:
    """A phase boundary k/(2N) in (0, 1]."""
    return Fraction(draw(st.integers(min_value=1, max_value=2 * n)), 2 * n)


def _assert_counter_exact(g, gamma, eps, rhos):
    spec = make_bohr_spec(g, gamma, eps)
    counter, scale = _counter(spec)
    for rho in rhos:
        want = bohr_members_direct(g, gamma, [rho * e for e in eps])
        assert counter.count(rho * scale) == len(want)
        assert counter.member_indices(rho * scale).tolist() == sorted(want)
    assert size_profile(g, spec, rhos) == [
        len(bohr_members_direct(g, gamma, [rho * e for e in eps])) for rho in rhos
    ]
    b = materialize(g, spec)
    assert set(b.members.members) == bohr_members_direct(g, gamma, eps)
    verdict = regularity_test(b)
    assert verdict.base_size == len(b)
    for eta, size in verdict.sizes:
        assert size == len(bohr_members_direct(g, gamma, [(1 + eta) * e for e in eps]))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_counter_exact_on_wide_denominators(data):
    g = data.draw(st.sampled_from(EXACTNESS_GROUPS), label="group")
    d = data.draw(st.integers(min_value=1, max_value=3), label="d")
    gamma = data.draw(st.lists(st.integers(0, g.order - 1), min_size=d, max_size=d), label="gamma")
    eps = [_wide_fraction(data.draw) for _ in range(d)]
    rhos = [_wide_fraction(data.draw) for _ in range(3)]
    _assert_counter_exact(g, gamma, eps, rhos)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_counter_exact_on_phase_boundaries(data):
    g = data.draw(st.sampled_from(EXACTNESS_GROUPS), label="group")
    n = g.order
    d = data.draw(st.integers(min_value=1, max_value=3), label="d")
    gamma = data.draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d), label="gamma")
    eps = [_boundary_fraction(data.draw, n) for _ in range(d)]
    # rho * eps_0 = k/N is the phase norm ||gamma_0 . x|| of the points with
    # v_0(x) = k, so the cut often falls exactly on attained values
    rhos = [Fraction(data.draw(st.integers(1, n // 2)), n) / eps[0] for _ in range(3)]
    rhos = [rho for rho in rhos if all(rho * e <= 1 for e in eps)] or [Fraction(1)]
    _assert_counter_exact(g, gamma, eps, rhos)


def test_counter_exact_off_the_float_range():
    """Radius shapes and dilations past the double range use the integer scan."""
    g = make_group((4, 6))
    gamma = [5, 13]
    eps = [Fraction(1, 3), Fraction(1, 2**1100)]
    _assert_counter_exact(g, gamma, eps, [Fraction(1), Fraction(1, 2)])
    eps = [Fraction(1, 3), Fraction(2, 5)]
    _assert_counter_exact(g, gamma, eps, [Fraction(1, 2**1100), Fraction(3, 4)])


def test_counter_exact_where_the_float_key_misrounds():
    # k * fl(1/24) < fl(k/24) for k = 5, 7, 10: the float key of a point on
    # the cut lands below the rounded cut, and only the band recheck keeps
    # the strict inequality
    g = make_group((24,))
    for k in (5, 7, 10):
        assert k * (1 / 24) < k / 24
        _assert_counter_exact(g, [1], [Fraction(1, 2)], [Fraction(k, 12)])


def test_materialize_on_large_groups():
    # ||x / N|| < 2^-18 on Z_(2^21) keeps min(x, N - x) < 8
    g = make_group((1 << 21,))
    b = materialize(g, make_bohr_spec(g, [1], Fraction(1, 1 << 18)))
    assert set(b.members.members) == set(range(8)) | set(range(g.order - 7, g.order))
    # on Z_2048 x Z_1024 the character (1, 0) constrains coordinate 0 alone
    g = make_group((2048, 1024))
    b = materialize(g, make_bohr_spec(g, [g.index((1, 0))], Fraction(5, 2048)))
    assert len(b) == 9 * 1024
    assert {g.unindex(x)[0] for x in b.members.members} == set(range(5)) | set(range(2044, 2048))
