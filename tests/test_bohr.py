from __future__ import annotations

import functools
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb import bohr
from addcomb.bohr import (
    RegularRadiusError,
    _counter,
    _scan,
    dilate,
    find_regular_radius,
    intersect,
    make_bohr_spec,
    materialize,
    regularity_test,
    size_bound_stack,
    size_profile,
)
from addcomb.f2 import nullspace_basis, subspace_elements
from addcomb.groups import boolean_group, make_group
from addcomb.report import CheckFailure
from addcomb.setstat import column_blocks

from .oracles import (
    bohr_members_direct,
    bohr_members_int_direct,
    phases_direct,
    regular_radius_direct,
    regularity_grid_direct,
)


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
    assert 0 in set(b.members.members.tolist())
    assert set(b.members.neg().members.tolist()) == set(b.members.members.tolist())
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


def test_size_profile_of_no_factors_is_empty():
    g = make_group((60,))
    assert size_profile(g, make_bohr_spec(g, [1, 7], [Fraction(1, 4), Fraction(1, 2)]), []) == []


def test_size_profile_names_a_bad_factor():
    g = make_group((60,))
    spec = make_bohr_spec(g, [1, 7], [Fraction(1, 4), Fraction(1, 2)])
    with pytest.raises(ValueError, match="^dilation factor must be positive$"):
        size_profile(g, spec, [Fraction(1, 2), Fraction(0)])
    # 5/2 is the first factor that pushes the radius 1/2 past 1
    with pytest.raises(ValueError, match="^radius overflow at dilation 5/2$"):
        size_profile(g, spec, [Fraction(1), Fraction(2), Fraction(5, 2), Fraction(4)])


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
        b = make_bohr_spec(g, gamma, eps)
        other = make_bohr_spec(g, [rng.randrange(1, 101)], Fraction(1, 4))
        for rec in size_bound_stack(g, [[b, other]]):
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


def _keyed(spec) -> bool:
    """Whether the shared counter of spec keeps a key table."""
    return _counter(spec)[0].keys is not None


def _equal(eps) -> bool:
    return len(set(eps)) <= 1


def _assert_counter_exact(g, gamma, eps, rhos):
    spec = make_bohr_spec(g, gamma, eps)
    counter, scale = _counter(spec)
    # one batch: the query sigma = rho * eps_0 of every rho, then sigma = 2^70,
    # whose cut lies far past every key
    sigmas = [rho * scale for rho in rhos] + [Fraction(2**70)]
    wants = [sorted(bohr_members_direct(g, gamma, [sigma / scale * e for e in eps])) for sigma in sigmas]
    den = math.lcm(*(sigma.denominator for sigma in sigmas))
    nums = [sigma.numerator * (den // sigma.denominator) for sigma in sigmas]
    assert counter.counts(nums, den) == [len(want) for want in wants]
    for sigma, want in zip(sigmas, wants):
        assert counter.member_indices(sigma.numerator, sigma.denominator).tolist() == want
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


def _small_fraction(draw, n: int) -> Fraction:
    """A value in (0, 1] with a denominator of at most 4N."""
    den = draw(st.integers(min_value=1, max_value=4 * n))
    return Fraction(draw(st.integers(min_value=1, max_value=den)), den)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_counter_int64_key_exact_on_small_denominators(data):
    g = data.draw(st.sampled_from(EXACTNESS_GROUPS), label="group")
    n = g.order
    d = data.draw(st.integers(min_value=1, max_value=3), label="d")
    gamma = data.draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d), label="gamma")
    eps = [_small_fraction(data.draw, n) for _ in range(d)]
    # sigma = k/N puts the cut of character 0 on the points with v_0 = k;
    # the other dilations mostly put it between two phases
    rhos = [Fraction(data.draw(st.integers(1, n // 2)), n) / eps[0] for _ in range(2)]
    rhos += [_small_fraction(data.draw, n) for _ in range(2)]
    rhos = [rho for rho in rhos if all(rho * e <= 1 for e in eps)] or [Fraction(1)]
    assert _keyed(make_bohr_spec(g, gamma, eps)) is _equal(eps)
    _assert_counter_exact(g, gamma, eps, rhos)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_equal_radii_counts_and_members_on_the_keys(data):
    # one radius for every character keeps the key table; sigma = k/N puts
    # the cut ceil(sigma N) = k exactly on the keys max_j v_j = k, and
    # k = N/2 + 1 or more past every key
    g = data.draw(st.sampled_from(BLOCK_GROUPS), label="group")
    n = g.order
    d = data.draw(st.integers(min_value=0, max_value=4), label="d")
    gamma = data.draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d), label="gamma")
    spec = make_bohr_spec(g, gamma, Fraction(1))
    counter, scale = _counter(spec)
    assert scale == 1 and counter.keys is not None
    ks = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=6), label="k")
    wants = [sorted(bohr_members_direct(g, gamma, [Fraction(k, n)] * d)) for k in ks]
    assert counter.counts(ks, n) == [len(want) for want in wants]
    for k, want in zip(ks, wants):
        assert counter.member_indices(k, n).tolist() == want
    assert size_profile(g, spec, [Fraction(k, n) for k in ks]) == [len(want) for want in wants]


def test_equal_radii_count_without_a_sort():
    # the table is a histogram of the keys: building it, counting a batch
    # and listing members call no sort and no binary search
    g = make_group((4, 6, 8))
    gamma = (5, 77, 130)

    def refuse(*args, **kwargs):
        raise AssertionError("sorted")

    with (
        mock.patch.object(np, "argsort", refuse),
        mock.patch.object(np, "sort", refuse),
        mock.patch.object(np, "searchsorted", refuse),
    ):
        counter = bohr._ExactCounter(g, gamma, (Fraction(1),) * 3)
        sizes = counter.counts([1, 3, 7, 100], 24)
        members = [counter.member_indices(num, 24).tolist() for num in (1, 3, 7, 100)]
    wants = [sorted(bohr_members_direct(g, gamma, [Fraction(num, 24)] * 3)) for num in (1, 3, 7, 100)]
    assert sizes == [len(want) for want in wants]
    assert members == wants


# against a radius 1/2 on Z128: shape factor 2^-55 or 2^55, whose weighted
# key N 2^55 would reach 2^62
_AT_BOUND = Fraction(1, 2**56)
# shape factor 1/(2^55 - 1) or 2^55 - 1, a weighted key just below 2^62
_BELOW_BOUND = Fraction(1, 2**56 - 2)


@pytest.mark.parametrize(
    "gamma, eps, keyed",
    [
        ([1, 64], [Fraction(1, 2), _BELOW_BOUND], False),
        ([1, 64], [Fraction(1, 2), _AT_BOUND], False),
        ([64, 1], [_BELOW_BOUND, Fraction(1, 2)], False),
        ([64, 1], [_AT_BOUND, Fraction(1, 2)], False),
        ([1, 64], [Fraction(1, 2), Fraction(1, 2)], True),
        ([64, 1], [_AT_BOUND, _AT_BOUND], True),
    ],
)
def test_counter_keeps_a_table_for_equal_radii_only(gamma, eps, keyed):
    """Equal radii keep the key table; any other shape, however far apart
    its radii, takes the integer scan."""
    g = make_group((128,))
    counter, scale = _counter(make_bohr_spec(g, gamma, eps))
    assert (counter.keys is not None) is keyed
    _assert_counter_exact(g, gamma, eps, [Fraction(1), Fraction(1, 3), Fraction(3, 4)])
    # a cut far past every key: every element passes, on either path
    sizes = counter.counts([scale.numerator, 2**70 * scale.denominator], scale.denominator)
    assert sizes == [len(bohr_members_direct(g, gamma, eps)), g.order]


def test_keyless_radius_search_counts_each_candidate_in_one_pass(monkeypatch):
    # a shape of unequal radii: each candidate radius makes one
    # _member_rows call per chunk, with a row for each of its 21 queries
    g = make_group((128,))
    gamma, eps = [1, 64], [Fraction(1, 2), _AT_BOUND]
    assert not _keyed(make_bohr_spec(g, gamma, eps))
    monkeypatch.setattr(bohr, "_CHUNK", 32)
    monkeypatch.setattr(bohr, "_RADIUS_ROUNDS", (3,))
    with (
        mock.patch.object(bohr, "_member_rows", wraps=bohr._member_rows) as rows,
        mock.patch.object(bohr, "_grid_counts", wraps=bohr._grid_counts) as grids,
    ):
        try:
            find_regular_radius(g, gamma, eps)
        except RegularRadiusError:
            pass
    assert grids.call_count >= 1
    assert rows.call_count == 4 * grids.call_count
    assert all(call.args[2].shape == (21, 2) for call in rows.call_args_list)


def _assert_regularity_matches_oracle(g, gamma, eps, rounds):
    """find_regular_radius on the sweep schedule rounds picks the oracle's
    rho (or both find none), and regularity_test of the Bohr set asked for
    and of the one found gives the oracle's verdict, worst margin and (eta,
    size) pairs."""
    spec = make_bohr_spec(g, gamma, eps)
    rho = regular_radius_direct(g, gamma, eps, rounds)
    try:
        with mock.patch.object(bohr, "_RADIUS_ROUNDS", rounds):
            found = find_regular_radius(g, gamma, eps)
    except RegularRadiusError:
        assert rho is None
        found = spec
    else:
        assert found.eps == tuple(rho * e for e in spec.eps)
    for s in (spec, found):
        regular, worst, sizes = regularity_grid_direct(g, s.gamma, s.eps)
        verdict = regularity_test(materialize(g, s))
        assert (verdict.regular, verdict.worst_margin, list(verdict.sizes)) == (regular, float(worst), sizes)
        assert verdict.base_size == len(bohr_members_direct(g, s.gamma, s.eps))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_regularity_grid_matches_the_fraction_oracle(data):
    g = data.draw(st.sampled_from(EXACTNESS_GROUPS[:6]), label="group")
    d = data.draw(st.integers(min_value=1, max_value=3), label="d")
    gamma = data.draw(st.lists(st.integers(0, g.order - 1), min_size=d, max_size=d), label="gamma")
    eps = [_small_fraction(data.draw, g.order) for _ in range(d)]
    rounds = data.draw(st.sampled_from([(256,), (3, 12), (1,)]), label="rounds")
    assert _keyed(make_bohr_spec(g, gamma, eps)) is _equal(eps)
    _assert_regularity_matches_oracle(g, gamma, eps, rounds)


@pytest.mark.parametrize(
    "gamma, eps",
    [
        ([1, 64], [Fraction(1, 2), _BELOW_BOUND]),
        ([64, 1], [_BELOW_BOUND, Fraction(1, 2)]),
        ([1, 64], [Fraction(1, 2), _AT_BOUND]),
        ([3, 5], [Fraction(1, 3), Fraction(1, 2**70)]),
    ],
)
def test_regularity_grid_on_both_sides_of_the_key_bound(gamma, eps):
    # the scanned shapes of test_counter_keeps_a_table_for_equal_radii_only,
    # and one whose radii lie 2^70 apart, whose Bohr sets hold the identity
    # alone
    g = make_group((128,))
    _assert_regularity_matches_oracle(g, gamma, eps, (256,))
    _assert_regularity_matches_oracle(g, gamma, eps, (3, 12))


def test_regularity_grid_on_an_irregular_set_and_an_exhausted_sweep():
    # on Z60, B(1, 1/60) = {0} grows to {0, 1, 59} at any larger radius, and
    # B(1, 2001/120000) = {0, 1, 59} shrinks to {0} at any radius below
    # 1/60: both fail the grid, on the upper and on the lower side.  At
    # eps = 1/(60 rho) the one candidate rho of the sweep (1,) lands on
    # 1/60 again, so the sweep finds none
    g = make_group((60,))
    rho = Fraction(round(2**-0.5 * 2**30), 2**30)
    for eps in (Fraction(1, 60), Fraction(2001, 120000)):
        assert not regularity_test(materialize(g, make_bohr_spec(g, [1], eps))).regular
    with pytest.raises(RegularRadiusError), mock.patch.object(bohr, "_RADIUS_ROUNDS", (1,)):
        find_regular_radius(g, [1], [Fraction(1, 60) / rho])
    for eps in (Fraction(1, 60), Fraction(2001, 120000), Fraction(1, 60) / rho):
        _assert_regularity_matches_oracle(g, [1], [eps], (1,))


def test_an_exhausted_radius_sweep_raises_a_failed_record():
    # the sweep of the test above: its one candidate is B(1, 1/60) = {0}
    g = make_group((60,))
    rho = Fraction(round(2**-0.5 * 2**30), 2**30)
    with pytest.raises(CheckFailure) as exc, mock.patch.object(bohr, "_RADIUS_ROUNDS", (1,)):
        find_regular_radius(g, [1], [Fraction(1, 60) / rho])
    assert isinstance(exc.value, RegularRadiusError) and exc.value.trace is None
    record = exc.value.record
    # the best candidate's worst grid margin, ten times the oracle's margin, against 1
    _, worst, _ = regularity_grid_direct(g, [1], [Fraction(1, 60)])
    assert (record.ref, record.ok, record.lhs, record.rhs) == ("bohr:regular_radius", False, str(10 * worst), "1")
    assert exc.value.sizes == [(rho, 1)]
    assert str(exc.value).startswith("no regular radius found in (eps/2, eps)")


def test_counter_exact_off_the_float_range():
    """A radius shape past the double range uses the integer scan, as any
    shape of unequal radii does; a dilation past the double range is one
    more cut on the scan."""
    g = make_group((4, 6))
    gamma = [5, 13]
    eps = [Fraction(1, 3), Fraction(1, 2**1100)]
    _assert_counter_exact(g, gamma, eps, [Fraction(1), Fraction(1, 2)])
    eps = [Fraction(1, 3), Fraction(2, 5)]
    _assert_counter_exact(g, gamma, eps, [Fraction(1, 2**1100), Fraction(3, 4)])


def test_counter_exact_where_the_float_key_misrounds():
    # k * fl(1/24) < fl(k/24) for k = 5, 7, 10: a rounded float key of a
    # point on the cut would land below the rounded cut; the integer key of
    # that point equals its cut, and the strict inequality excludes it
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


def _assert_stack_matches(g, instances):
    """size_bound_stack against the definition: every set, wedge and
    half-radius set it counts has the size bohr_members_direct gives, and
    each instance's three records compare the sides that these sizes give,
    instance after instance."""
    rows = []
    for sets in instances:
        rows += [*sets, functools.reduce(intersect, sets), *(dilate(s, Fraction(1, 2)) for s in sets)]
    sizes, identity, symmetric = _scan(g, rows)
    assert sizes.tolist() == [len(bohr_members_direct(g, s.gamma, s.eps)) for s in rows]
    assert identity.all() and symmetric.all()
    n = g.order
    expected = []
    for sets in instances:
        b = sets[0]
        size = len(bohr_members_direct(g, b.gamma, b.eps))
        halves = [len(bohr_members_direct(g, s.gamma, [e / 2 for e in s.eps])) for s in sets]
        wedge = len(set.intersection(*(bohr_members_direct(g, s.gamma, s.eps) for s in sets)))
        num = math.prod(e.numerator for e in b.eps)
        den = math.prod(e.denominator for e in b.eps)
        expected += [
            ("bohr:size_lower", 2 * size * den, n * num),
            ("bohr:size_halving", size, 8 ** (b.d + 1) * halves[0]),
            ("bohr:size_intersection", wedge * n ** (len(sets) - 1), math.prod(halves)),
        ]
    records = size_bound_stack(g, instances)
    assert [(r.ref, int(r.lhs), int(r.rhs)) for r in records] == expected
    assert all(r.ok for r in records)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_size_bound_stack_counts_match_the_definition(data):
    g = data.draw(st.sampled_from(EXACTNESS_GROUPS), label="group")
    n = g.order
    char = st.integers(min_value=0, max_value=n - 1)

    def spec(d):
        gamma = data.draw(st.lists(char, min_size=d, max_size=d), label="gamma")
        return make_bohr_spec(g, gamma, [_small_fraction(data.draw, n) for _ in range(d)])

    count = data.draw(st.integers(min_value=1, max_value=3), label="instances")
    instances = [
        [spec(data.draw(st.integers(1, 3))) for _ in range(data.draw(st.integers(1, 3)))]
        for _ in range(count)
    ]
    _assert_stack_matches(g, instances)


def test_size_bound_stack_past_the_key_bound():
    # the radius shape of the first set keeps no key table (see
    # test_counter_keeps_a_table_for_equal_radii_only); the stack counts it
    # on the same integer test
    g = make_group((128,))
    b = make_bohr_spec(g, [1, 64], [Fraction(1, 2), _AT_BOUND])
    assert not _keyed(b)
    other = make_bohr_spec(g, [3], Fraction(1, 4))
    _assert_stack_matches(g, [[b, other], [other, b]])


def test_size_bound_stack_requires_what_the_one_instance_calls_require(monkeypatch):
    # per instance: each set's floor, then the floor, the cap, the wedge's
    # floor and the entropy record reach require, in this order, so the
    # first that fails raises its CheckFailure
    g = make_group((60,))
    instances = [
        [make_bohr_spec(g, [1], Fraction(1, 4)), make_bohr_spec(g, [7], Fraction(1, 3))],
        [make_bohr_spec(g, [2, 9], [Fraction(1, 2), Fraction(3, 8)]), make_bohr_spec(g, [5], Fraction(1, 4))],
    ]
    required = []
    real = bohr.require

    def recording(rec):
        required.append(rec)
        return real(rec)

    monkeypatch.setattr(bohr, "require", recording)
    size_bound_stack(g, instances)
    per_instance = ["bohr:size_lower"] * 3 + ["bohr:size_halving", "bohr:size_lower", "bohr:size_intersection"]
    assert [rec.ref for rec in required] == per_instance * 2
    real_le = bohr.record_le
    monkeypatch.setattr(bohr, "record_le", lambda *a, **k: replace(real_le(*a, **k), ok=False))
    with pytest.raises(CheckFailure) as failed:
        size_bound_stack(g, instances)
    assert failed.value.record == replace(required[3], ok=False)


# Z97 pads its top digit, Z3xZ5xZ7 keeps its lower axes whole and pads its
# top digit, and Z2xZ4xZ8 splits every axis of length 4 or more
BLOCK_GROUPS = EXACTNESS_GROUPS + [make_group(f) for f in [(2, 4, 8), (3, 5, 7)]]


def _assert_blocks_exact(g, specs, rhos, oracle=bohr_members_direct):
    """Every count path against the oracle: counts, member_indices and
    size_profile of each spec's counter at the dilations rhos, and _scan's
    sizes, identity and symmetry flags on the specs and their half-radius
    dilates."""
    for spec in specs:
        counter, scale = _counter(spec)
        wants = [oracle(g, spec.gamma, [rho * e for e in spec.eps]) for rho in rhos]
        sigmas = [rho * scale for rho in rhos]
        den = math.lcm(*(sigma.denominator for sigma in sigmas))
        nums = [sigma.numerator * (den // sigma.denominator) for sigma in sigmas]
        assert counter.counts(nums, den) == [len(want) for want in wants]
        for sigma, want in zip(sigmas, wants):
            assert counter.member_indices(sigma.numerator, sigma.denominator).tolist() == sorted(want)
        assert size_profile(g, spec, rhos) == [len(want) for want in wants]
    rows = [*specs, *(dilate(s, Fraction(1, 2)) for s in specs)]
    sizes, identity, symmetric = _scan(g, rows)
    assert sizes.tolist() == [len(oracle(g, s.gamma, s.eps)) for s in rows]
    assert identity.all() and symmetric.all()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_phase_blocks_exact_at_every_block_size(data):
    # blocks of 1, 7 and 32 elements split the digit rows of every group
    # here, and at 200 the keys of Z24 are built two characters to a batch;
    # the keyed shapes take one radius, the keyless ones put one radius 2^70
    # times below the others
    g = data.draw(st.sampled_from(BLOCK_GROUPS), label="group")
    n = g.order
    keyless = data.draw(st.booleans(), label="keyless")
    specs = []
    for _ in range(data.draw(st.integers(1, 2), label="specs")):
        d = data.draw(st.integers(2 if keyless else 1, 3), label="d")
        gamma = data.draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d), label="gamma")
        if keyless:
            eps = [_small_fraction(data.draw, n) for _ in range(d - 1)] + [Fraction(1, 2**70)]
        else:
            eps = [_small_fraction(data.draw, n)] * d
        specs.append(make_bohr_spec(g, gamma, eps))
    rhos = [Fraction(1), Fraction(1, 2), _small_fraction(data.draw, n)]
    for chunk in (1, 7, 32, 200):
        with mock.patch.object(bohr, "_CHUNK", chunk):
            bohr._phase_table.cache_clear()
            assert all(_keyed(s) is not keyless for s in specs)
            _assert_blocks_exact(g, specs, rhos)
    bohr._phase_table.cache_clear()


def test_phase_blocks_exact_past_one_block():
    # Z3xZ59049 spans more than one block at the default block size: rows
    # of 768 indices, 85 rows to a block, and a padded top digit
    g = make_group((3, 59049))
    assert g.order > bohr._CHUNK
    keyed = make_bohr_spec(g, [g.index((1, 7)), g.index((2, 30000))], Fraction(3, 7))
    keyless = make_bohr_spec(g, [g.index((0, 1)), g.index((1, 0))], [Fraction(1, 40), Fraction(1, 2**70)])
    assert _keyed(keyed) and not _keyed(keyless)
    _assert_blocks_exact(g, [keyed, keyless], [Fraction(1), Fraction(1, 3)], oracle=bohr_members_int_direct)


# one digit (Z2), digits of span 2 only (F2^6), a padded top digit (Z101),
# a product, and a group past one block at the default block size
PHASE_GROUPS = [make_group(f) for f in [(2,), (2,) * 6, (101,), (2, 4, 8)]]
BIG_PHASE_GROUP = make_group((3, 59049))


def _assert_phase_blocks_match_oracle(g, gamma):
    """Every (start, v) of _phase_blocks at every batch from 1 to d: the
    blocks of each batch of characters run over the whole group in order,
    each nonempty, and together equal phases_direct on those characters."""
    want = phases_direct(g, gamma)
    weights, d = bohr._weights(g, gamma), len(gamma)
    for batch in range(1, max(d, 1) + 1):
        runs, at = [], g.order
        for start, v in bohr._phase_blocks(g, weights, batch):
            if at == g.order:  # the first block of the next batch of characters
                runs.append([])
                at = 0
            assert start == at and v.shape[1] > 0 and v.dtype == np.int32
            runs[-1].append(v.copy())  # the next block overwrites v
            at += v.shape[1]
        assert at == g.order and len(runs) == max(-(-d // batch), 1)
        for j, run in zip(range(0, d or 1, batch), runs):
            np.testing.assert_array_equal(np.concatenate(run, axis=1), want[j : j + batch])


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_phase_blocks_match_the_phase_oracle(data):
    # blocks of 1, 7 and 32 elements and the default split the digits into
    # row and lead tables every way these groups allow
    g = data.draw(st.sampled_from(PHASE_GROUPS), label="group")
    d = data.draw(st.integers(0, 4), label="d")
    gamma = data.draw(st.lists(st.integers(0, g.order - 1), min_size=d, max_size=d), label="gamma")
    for chunk in (1, 7, 32, bohr._CHUNK):
        with mock.patch.object(bohr, "_CHUNK", chunk):
            _assert_phase_blocks_match_oracle(g, gamma)


@pytest.mark.parametrize("chunk, d", [(1, 1), (7, 2), (32, 4), (bohr._CHUNK, 4)])
def test_phase_blocks_match_the_phase_oracle_past_one_block(chunk, d):
    # Z3xZ59049 keeps its axis of length 3 whole and pads its top digit; at
    # the default size its rows of 768 indices make 3 blocks.  At the small
    # sizes a block is one row of 1 or 3 elements, 177147 or 59049 blocks
    # per batch, so they take fewer characters
    g = BIG_PHASE_GROUP
    gamma = [g.index((1, 7)), g.index((2, 30000)), g.index((0, 1)), g.index((1, 0))][:d]
    with mock.patch.object(bohr, "_CHUNK", chunk):
        _assert_phase_blocks_match_oracle(g, gamma)


def _rolled_phase_blocks(shift):
    """A mutant _phase_blocks whose block columns are rolled by shift, so
    column x of a block holds the phases of another element of it."""
    real = bohr._phase_blocks

    def rolled(g, weights, batch):
        for start, v in real(g, weights, batch):
            yield start, np.roll(v, shift, axis=1)

    return rolled


# Z101 is one block; Z3xZ59049 spans three, and its first block negates
# into the last one
@pytest.mark.parametrize(
    "factors, gamma, eps", [((101,), [(1,)], Fraction(1, 4)), ((3, 59049), [(0, 2)], Fraction(3, 10))]
)
@pytest.mark.parametrize("shift", [1, -1])
def test_symmetry_check_catches_phases_read_at_the_wrong_element(factors, gamma, eps, shift):
    g = make_group(factors)
    spec = make_bohr_spec(g, [g.index(t) for t in gamma], eps)
    sizes, identity, symmetric = _scan(g, [spec])
    assert identity.all() and symmetric.all()
    assert all(record.ok for record in size_bound_stack(g, [[spec]]))
    with mock.patch.object(bohr, "_phase_blocks", _rolled_phase_blocks(shift)):
        # a roll permutes each block, so the sizes cannot show it
        rolled_sizes, identity, symmetric = _scan(g, [spec])
        assert rolled_sizes.tolist() == sizes.tolist()
        assert identity.all() and not symmetric.any()
        with pytest.raises(AssertionError, match="not symmetric"):
            size_bound_stack(g, [[spec]])


@pytest.mark.parametrize("factors, count", [((1024,), 120), ((3, 59049), 3)])
def test_size_bound_stack_makes_one_phase_pass_per_block(factors, count):
    g = make_group(factors)
    rng = random.Random(count)
    instances = [
        [make_bohr_spec(g, [rng.randrange(1, g.order)], Fraction(1, rng.randrange(2, 6))) for _ in range(2)]
        for _ in range(count)
    ]
    blocks = len(list(column_blocks(count, g.order, 5)))
    assert blocks == 3
    real, calls = bohr._phase_blocks, []

    def counted(g, weights, batch):
        calls.append(len(weights))
        yield from real(g, weights, batch)

    with mock.patch.object(bohr, "_phase_blocks", counted):
        records = size_bound_stack(g, instances)
    assert len(records) == 3 * count and all(record.ok for record in records)
    assert len(calls) == blocks


@pytest.mark.parametrize("d", [1, 4, 16])
def test_equal_radii_build_makes_one_phase_pass(d):
    # the digit tables are built once per counter: one _phase_blocks call,
    # which raises the keys one character at a time from order _CHUNK / 4 on
    g = make_group((32768,))
    rng = random.Random(d)
    gamma = tuple(rng.randrange(1, g.order) for _ in range(d))
    real, calls = bohr._phase_blocks, []

    def counted(g, weights, batch):
        calls.append((len(weights), batch))
        yield from real(g, weights, batch)

    with mock.patch.object(bohr, "_phase_blocks", counted):
        counter = bohr._ExactCounter(g, gamma, (Fraction(1),) * d)
    assert calls == [(d, 1)]
    np.testing.assert_array_equal(counter.keys, phases_direct(g, gamma).max(axis=0))


def _refusing_where(ufunc):
    def call(*args, **kwargs):
        if "where" in kwargs:
            raise AssertionError(f"np.{ufunc.__name__} with a masked store")
        return ufunc(*args, **kwargs)

    return call


class _NumpyWithoutMaskedStores:
    """numpy as bohr sees it, but np.add and np.subtract refuse where=."""

    add = staticmethod(_refusing_where(np.add))
    subtract = staticmethod(_refusing_where(np.subtract))

    def __getattr__(self, name):
        return getattr(np, name)


# Z4096 takes two digits, Z128xZ128 four and Z3xZ59049 three, so the row
# or lead of each is an outer sum of two digit tables or more
@pytest.mark.parametrize("factors", [(4096,), (128, 128), (3, 59049)])
def test_keys_and_scan_take_no_masked_store(factors, monkeypatch):
    g = make_group(factors)
    rng = random.Random(g.order)
    gamma = [rng.randrange(1, g.order) for _ in range(6)]
    spec = make_bohr_spec(g, gamma, Fraction(1, 3))
    want = phases_direct(g, gamma)
    monkeypatch.setattr(bohr, "np", _NumpyWithoutMaskedStores())
    np.testing.assert_array_equal(bohr._keys(g, bohr._weights(g, gamma)), want.max(axis=0))
    sizes, identity, symmetric = _scan(g, [spec])
    assert sizes.tolist() == [int((3 * want.max(axis=0) < g.order).sum())]
    assert identity.all() and symmetric.all()


def test_counter_build_memory_does_not_grow_with_d():
    # from order _CHUNK / 4 on, the keys are raised one character at a time:
    # the build holds the int32 keys and the int32 phase blocks of one
    # character, then the int32 histogram, counted and summed in place,
    # whatever d is.  At order 2^15 the phase blocks span the group and the
    # build peaks near 14.9 bytes per element at d = 16; at 2^20 they span
    # _CHUNK elements, and the keys and the histogram peak near 6.1 bytes
    # per element.  Each bound is that peak plus at most 0.65 bytes per element
    rng = random.Random(5)
    for order, bound in ((32768, 15.5), (1 << 20, 6.5)):
        g = make_group((order,))
        peaks = []
        for d in (4, 16):
            gamma = tuple(rng.randrange(1, g.order) for _ in range(d))
            tracemalloc.start()
            try:
                bohr._ExactCounter(g, gamma, (Fraction(1),) * d)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= bound * g.order
        assert peaks[1] <= peaks[0] + g.order
