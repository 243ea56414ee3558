from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addcomb import setstat
from addcomb.groups import (
    MAX_TRANSFORM_ORDER,
    GroupMismatchError,
    boolean_group,
    format_group_text,
    make_group,
    parse_group_text,
)
from addcomb.harmonic import dft
from addcomb.setstat import (
    GroupSet,
    check_energy_difference_bound,
    check_generalized_triangle,
    check_katz_koester,
    conv_columns,
    conv_counts,
    corr_counts,
    difference_set,
    doubling_constant,
    energy,
    energy_difference_bounds,
    full_set,
    group_set,
    higher_energies,
    higher_energy,
    katz_koester_rows,
    katz_koester_stack,
    peak_coefficient,
    profile,
    slice_set,
    sumset,
    sumset_size,
    sumsets,
)

from .oracles import (
    conv_direct,
    corr_direct,
    dft_direct,
    difference_direct,
    energy_direct,
    higher_energy_direct,
    katz_koester_direct,
    neg_direct,
    peak_direct,
    slice_direct,
    sorted_set,
    sumset_direct,
    translate_direct,
)

GROUPS = [make_group(f) for f in [(18,), (2, 2, 2, 2), (3, 8)]]


def _random_set(g, rng, lo=2, hi=None):
    hi = hi or max(3, g.order // 2)
    return group_set(g, rng.sample(range(g.order), rng.randrange(lo, hi)))


def test_group_set_sorts_and_dedupes():
    g = make_group((10,))
    A = group_set(g, [7, 1, 7, 3])
    assert A.members.tolist() == [1, 3, 7]
    assert len(A) == 3
    assert [i in A for i in range(10)] == [i in {1, 3, 7} for i in range(10)]


# each group with a twin of the same order that is another group
_TWINS = [
    (make_group((18,)), make_group((2, 9))),
    (boolean_group(4), make_group((16,))),
    (make_group((3, 8)), make_group((24,))),
    (make_group((7,)), make_group((7,))),
]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_set_invariants_against_the_sorted_set_oracle(data):
    g, twin = data.draw(st.sampled_from(_TWINS), label="group")
    indices = st.lists(st.integers(0, g.order - 1), max_size=16)
    xs, ys = data.draw(indices, label="xs"), data.draw(indices, label="ys")
    x = data.draw(st.integers(0, g.order - 1), label="x")
    A, B = group_set(g, xs), group_set(g, ys)
    a = sorted_set(xs)
    assert A.members.tolist() == a and A.members.dtype == np.int64
    # members is read-only, and so is every array built on it
    assert not A.members.flags.writeable
    if a:
        with pytest.raises(ValueError):
            A.members[0] = 0
        # construction rejects unsorted, repeated, negative and >= N members
        bad = [a + a[-1:], [-1] + a, a + [g.order]]
        if len(a) > 1:
            bad.append(a[::-1])
        for members in bad:
            with pytest.raises(GroupMismatchError):
                GroupSet(g, np.array(members, dtype=np.int64))
            with pytest.raises(GroupMismatchError):
                GroupSet(g, tuple(members))
    # one set, built by five paths, is one value
    same = [
        GroupSet(g, tuple(a)),
        GroupSet(g, np.array(a, dtype=np.int64)),
        group_set(g, reversed(xs)),
        A.translate(0),
        A.neg().neg(),
    ]
    for S in same:
        assert S == A and hash(S) == hash(A) and hash(S.members) == hash(A.members)
    # the same indices on another group are another set
    if twin != g:
        assert GroupSet(twin, A.members) != A
    assert A.translate(x).members.tolist() == translate_direct(A, x)
    assert A.neg().members.tolist() == neg_direct(A)
    assert sumset(A, B).members.tolist() == sorted(sumset_direct(A, B))
    assert slice_set(A, x).members.tolist() == slice_direct(A, x)
    for S in (A.translate(x), A.neg(), sumset(A, B), slice_set(A, x)):
        assert S.members.dtype == np.int64 and not S.members.flags.writeable
    assert [i in A for i in range(g.order)] == [i in set(a) for i in range(g.order)]


def test_translate_and_neg():
    g = make_group((12,))
    A = group_set(g, [0, 1, 5])
    assert A.translate(3).members.tolist() == [3, 4, 8]
    assert A.neg().members.tolist() == [0, 7, 11]
    gb = boolean_group(3)
    B = group_set(gb, [1, 6])
    assert B.neg().members.tolist() == B.members.tolist()


@pytest.mark.parametrize("g", GROUPS, ids=format_group_text)
def test_corr_counts_matches_double_loop(g):
    rng = random.Random(g.order)
    for _ in range(6):
        A = _random_set(g, rng)
        B = _random_set(g, rng)
        got = corr_counts(A, B)
        want = corr_direct(A, B)
        assert [int(v) for v in got] == want


def test_corr_counts_identity_slices():
    g = boolean_group(4)
    rng = random.Random(3)
    A = _random_set(g, rng)
    got = corr_counts(A, A)
    assert int(got[0]) == len(A)
    for x in range(g.order):
        assert int(got[x]) == len(slice_set(A, x))


@pytest.mark.parametrize("g", GROUPS, ids=format_group_text)
def test_sumset_difference_match_brute(g):
    rng = random.Random(g.order + 5)
    A, B = _random_set(g, rng), _random_set(g, rng)
    assert set(sumset(A, B).members) == sumset_direct(A, B)
    assert set(difference_set(A, B).members) == difference_direct(A, B)


def test_mismatched_groups_rejected():
    A = group_set(make_group((6,)), [1])
    B = group_set(make_group((2, 3)), [1])
    with pytest.raises(GroupMismatchError):
        sumset(A, B)


@pytest.mark.parametrize("g", GROUPS, ids=format_group_text)
def test_energy_matches_quadruple_count(g):
    rng = random.Random(g.order + 9)
    A, B = _random_set(g, rng), _random_set(g, rng)
    assert energy(A, B) == energy_direct(A, B)
    assert energy(A, A) == higher_energy(A, 2)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_higher_energy_matches_brute(k):
    g = make_group((15,))
    rng = random.Random(k)
    A = _random_set(g, rng)
    assert higher_energy(A, k) == higher_energy_direct(A, k)


def test_energy_extremes():
    g = make_group((11,))
    A = full_set(g)
    # full group: (A o A)(x) = N everywhere
    assert higher_energy(A, 2) == g.order**3
    single = group_set(g, [4])
    assert higher_energy(single, 2) == 1


def test_doubling_constant_values():
    g = boolean_group(4)
    H = group_set(g, range(4))  # span of first two coordinates
    assert doubling_constant(H) == 1
    single = group_set(g, [9])
    assert doubling_constant(single) == 1


@pytest.mark.parametrize("g", GROUPS, ids=format_group_text)
def test_peak_coefficient_matches_direct_transform(g):
    rng = random.Random(g.order + 13)
    A = _random_set(g, rng)
    peak = peak_coefficient(A)
    want = peak_direct(A)
    # the direct sum carries its own float error, far below 1e-9
    assert peak.lo - 1e-9 <= want <= peak.hi + 1e-9
    assert peak.hi - peak.lo < 1e-6 * (1 + want)
    assert 1 <= peak.arg < g.order
    if g.is_boolean_space:
        assert isinstance(peak.lo, int) and peak.lo == peak.hi


def test_peak_tie_breaks_to_smallest_index():
    g = boolean_group(4)
    H = group_set(g, range(4))  # perp is spanned by indices 4 and 8
    peak = peak_coefficient(H)
    assert peak.lo == peak.hi == len(H) ** 2
    assert peak.arg == 4


def test_peak_of_subgroup_is_its_square():
    g = make_group((12,))
    H = group_set(g, [0, 4, 8])
    peak = peak_coefficient(H)
    # the enclosure is clipped at |H|^2, which the peak attains
    assert 9.0 - 1e-9 < peak.lo <= peak.hi == 9
    assert peak.arg in (3, 6, 9)


def test_generalized_triangle_subgroup_equality():
    g = boolean_group(4)
    H = list(range(4))
    rep = check_generalized_triangle(g, [(h,) for h in H], [(h,) for h in H], H, H)
    assert rep.holds and rep.lhs == rep.rhs == len(H) ** 3
    assert rep.margin == 1


def test_generalized_triangle_random_instances():
    g = make_group((15,))
    rng = random.Random(77)
    for _ in range(25):
        W = [(rng.randrange(15),) for _ in range(rng.randrange(1, 4))]
        Y = [(rng.randrange(15),) for _ in range(rng.randrange(1, 4))]
        X = rng.sample(range(15), rng.randrange(1, 4))
        Z = rng.sample(range(15), rng.randrange(1, 4))
        assert check_generalized_triangle(g, W, Y, X, Z).holds


def test_generalized_triangle_pairs():
    g = make_group((7,))
    W = [(1, 2), (3, 4)]
    Y = [(0, 5)]
    rep = check_generalized_triangle(g, W, Y, [0, 1], [2, 6])
    assert rep.holds


def test_energy_difference_bound_margin_at_least_one():
    g = make_group((24,))
    rng = random.Random(5)
    for _ in range(20):
        A, B = _random_set(g, rng), _random_set(g, rng)
        rep = check_energy_difference_bound(A, B, k=2 + rng.randrange(2))
        assert rep.holds and rep.margin >= 1


def test_katz_koester_inclusion_everywhere():
    g = make_group((30,))
    rng = random.Random(6)
    A, B = _random_set(g, rng), _random_set(g, rng)
    for x in difference_set(A, A).members:
        assert check_katz_koester(A, B, x).ok


KK_GROUPS = [make_group(f) for f in [(7,), (30,), (4, 6), (2, 3, 3), (2,) * 5]]


def _rows_against_oracle(A, B, sums=None, xs_per_block=None):
    """katz_koester_rows with blocks of `xs_per_block` displacements (the
    default block size when None), after checking every row, sizes and
    verdict, against katz_koester_direct.  `sums` replaces A + B on the
    right-hand side of both."""
    budget = xs_per_block * A.group.order if xs_per_block else setstat._KK_BLOCK_ELEMENTS
    with mock.patch.object(setstat, "_KK_BLOCK_ELEMENTS", budget):
        if sums is None:
            rows = katz_koester_rows(A, B)
        else:
            # the displacements are given, so the patched sumsets only
            # reaches the right-hand side
            xs = sorted(difference_direct(A, A))
            with mock.patch.object(setstat, "sumsets", lambda pairs: [sums] * len(pairs)):
                rows = katz_koester_rows(A, B, xs)
    assert rows.xs.tolist() == sorted(difference_direct(A, A))
    got = list(zip(rows.left.tolist(), rows.right.tolist(), rows.holds.tolist()))
    assert got == [katz_koester_direct(A, B, x, sums) for x in rows.xs.tolist()]
    return rows


def _kk_pair(data, g):
    subsets = st.sets(st.integers(0, g.order - 1), min_size=1)
    return group_set(g, data.draw(subsets)), group_set(g, data.draw(subsets))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_katz_koester_rows_match_direct_oracle(data):
    g = data.draw(st.sampled_from(KK_GROUPS), label="group")
    A, B = _kk_pair(data, g)
    # None keeps the default, which holds every displacement in one block
    xs_per_block = data.draw(st.sampled_from([None, 1, 2]), label="displacements per block")
    rows = _rows_against_oracle(A, B, xs_per_block=xs_per_block)
    assert rows.holds.all()


@pytest.mark.parametrize("g", KK_GROUPS, ids=format_group_text)
def test_katz_koester_rows_on_singleton_and_full_sets(g):
    rng = random.Random(g.order)
    G = full_set(g)
    B = _random_set(g, rng)
    single = _rows_against_oracle(group_set(g, [rng.randrange(g.order)]), B)
    assert single.xs.tolist() == [0]
    assert single.left.tolist() == single.right.tolist() == [len(B)]
    full = _rows_against_oracle(G, B, xs_per_block=2)
    assert full.xs.tolist() == list(range(g.order))
    assert full.left.tolist() == full.right.tolist() == [g.order] * g.order


@pytest.mark.parametrize("g", KK_GROUPS, ids=format_group_text)
def test_katz_koester_rows_span_several_blocks(g):
    rng = random.Random(7 * g.order)
    A, B = _random_set(g, rng), _random_set(g, rng)
    assert len(difference_direct(A, A)) > 1
    _rows_against_oracle(A, B, xs_per_block=1)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_katz_koester_rows_fail_where_oracle_fails_on_a_thinned_sumset(data):
    # drop one member s of A + B from the right-hand side: every x with s in
    # B + A_x or s + x in B + A_x now fails, x = 0 among them (A_0 = A)
    g = data.draw(st.sampled_from(KK_GROUPS), label="group")
    A, B = _kk_pair(data, g)
    S = sumset_direct(A, B)
    drop = data.draw(st.sampled_from(sorted(S)), label="dropped")
    thinned = group_set(g, S - {drop})
    xs_per_block = data.draw(st.sampled_from([None, 1, 3]), label="displacements per block")
    # the helper has matched every verdict with the oracle's, so both fail
    # at exactly the same displacements
    rows = _rows_against_oracle(A, B, thinned, xs_per_block=xs_per_block)
    assert 0 in rows.xs[~rows.holds].tolist()


def test_katz_koester_rows_reject_foreign_sets_and_displacements():
    g = make_group((6,))
    A = group_set(g, [0, 1])
    with pytest.raises(GroupMismatchError):
        katz_koester_rows(A, group_set(make_group((2, 3)), [1]))
    with pytest.raises(ValueError):
        katz_koester_rows(A, A, [6])


def test_profile_consistency_checks_pass():
    g = boolean_group(4)
    rng = random.Random(10)
    A = _random_set(g, rng)
    prof = profile(A, energy_orders=(2, 3))
    assert all(r.ok for r in prof.checks)
    assert prof.size == len(A)
    assert prof.energy == higher_energy(A, 2)
    assert prof.higher[3] == higher_energy(A, 3)
    assert prof.doubling == Fraction(prof.diff_size, prof.size)


def test_profile_rejects_empty():
    g = make_group((5,))
    with pytest.raises(ValueError):
        profile(group_set(g, []))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_energy_log_convexity_property(data):
    g = make_group((16,))
    size = data.draw(st.integers(min_value=2, max_value=10))
    members = data.draw(
        st.sets(st.integers(min_value=0, max_value=15), min_size=size, max_size=size)
    )
    A = group_set(g, members)
    e = {k: higher_energy(A, k) for k in (2, 3, 4)}
    assert e[2] * e[4] >= e[3] ** 2


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_corr_total_mass_property(data):
    g = boolean_group(4)
    members = data.draw(
        st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=16)
    )
    A = group_set(g, members)
    counts = corr_counts(A, A)
    assert sum(int(v) for v in counts) == len(A) ** 2


_CACHE_GROUPS = [
    make_group(f)
    for f in [(2,), (2, 2, 2), (2, 2, 2, 2, 2), (7,), (12,), (20,), (3, 4), (2, 3, 3)]
]


@st.composite
def _sets_on_cache_groups(draw):
    g = draw(st.sampled_from(_CACHE_GROUPS))
    shape = draw(st.sampled_from(["empty", "singleton", "full", "random"]))
    if shape == "empty":
        members = []
    elif shape == "singleton":
        members = [draw(st.integers(0, g.order - 1))]
    elif shape == "full":
        members = range(g.order)
    else:
        members = draw(st.sets(st.integers(0, g.order - 1), min_size=1, max_size=g.order))
    return group_set(g, members)


@given(_sets_on_cache_groups())
@settings(max_examples=60, deadline=None)
def test_cached_statistics_match_oracles(A):
    g = A.group
    assert A.autocorr.tolist() == corr_direct(A, A)
    assert A.autocorr is A.autocorr and not A.autocorr.flags.writeable
    assert A.diff_size == len(difference_direct(A, A))
    assert A.sum_size == sumset_size(A, A) == len(sumset_direct(A, A))
    B = group_set(g, A.members[::2])
    assert sumset_size(A, B) == len(sumset_direct(A, B))
    # k = 64 makes c^k pass 2^63 for every value c >= 2 of A o A
    for k in (2, 3, 64):
        assert higher_energy(A, k) == higher_energy_direct(A, k)
    if len(A) == 0:
        with pytest.raises(ValueError):
            A.peak
        return
    peak = A.peak
    want = peak_direct(A)
    assert peak.lo - 1e-9 <= want <= peak.hi + 1e-9
    assert peak.hi - peak.lo <= 1e-6 * max(1.0, want)
    assert 1 <= peak.arg < g.order
    if g.is_boolean_space:
        assert isinstance(peak.lo, int) and peak.lo == peak.hi
        squares = [round(abs(v) ** 2) for v in dft_direct(g, A.indicator().values)]
        assert peak.arg == 1 + squares[1:].index(peak.lo)


# Z5xZ20 takes |A| * |B| past 4096, where sumset once switched from a
# scalar pair loop to conv_counts.  From Z101 on both conv_counts paths
# run: Z101 is a prime axis of length >= 50, where pocketfft may take
# Bluestein's algorithm.
_KERNEL_GROUPS = [boolean_group(n) for n in range(1, 7)] + [
    make_group(f) for f in [(7,), (30,), (3, 4), (2, 3, 3), (5, 20), (101,), (4096,), (4, 6, 8, 16)]
]


def _threshold(g):
    """The largest smaller-set size for which conv_counts keeps the direct loop."""
    return setstat._FFT_COST * g.order.bit_length()


def _kernel_set(draw, g):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if g.order > 1024:
        # the pair oracles are quadratic: sizes around the cost threshold
        return group_set(g, rng.sample(range(g.order), draw(st.integers(0, 3 * _threshold(g)))))
    shape = draw(st.sampled_from(["empty", "singleton", "full", "random"]))
    if shape == "empty":
        return group_set(g, [])
    if shape == "singleton":
        return group_set(g, [draw(st.integers(0, g.order - 1))])
    if shape == "full":
        return full_set(g)
    density = draw(st.sampled_from([0.1, 0.5, 0.9]))
    return group_set(g, [i for i in range(g.order) if rng.random() < density])


@st.composite
def _kernel_pairs(draw):
    g = draw(st.sampled_from(_KERNEL_GROUPS))
    return _kernel_set(draw, g), _kernel_set(draw, g), draw(st.integers(0, g.order - 1))


_Z5XZ20, _Z101, _Z4096, _Z4X6X8X16 = _KERNEL_GROUPS[-4:]


def _threshold_pair(g, above):
    """Two spread-out sets whose smaller one sits at the cost threshold, or
    one member above it."""
    k = _threshold(g) + above
    return group_set(g, range(0, g.order, g.order // k)[:k]), group_set(g, range(1, g.order, g.order // (k + 9)))


@given(_kernel_pairs())
@example((group_set(_Z5XZ20, range(64)), group_set(_Z5XZ20, range(36, 100)), 21))
@example((group_set(_Z5XZ20, range(65)), group_set(_Z5XZ20, range(36, 100)), 21))
@example((full_set(_Z5XZ20), full_set(_Z5XZ20), 99))
@example((*_threshold_pair(_Z101, 0), 3))
@example((*_threshold_pair(_Z101, 1), 3))
@example((full_set(_Z101), full_set(_Z101), 50))
@example((*_threshold_pair(_Z4096, 0), 17))
@example((*_threshold_pair(_Z4096, 1), 17))
@example((*_threshold_pair(_Z4X6X8X16, 0), 5))
@example((*_threshold_pair(_Z4X6X8X16, 1), 5))
@settings(max_examples=150, deadline=None)
def test_pair_counting_kernel_matches_oracles(case):
    A, B, x = case
    g = A.group
    assert conv_counts(A, B).tolist() == conv_direct(A, B)
    assert corr_counts(A, B).tolist() == corr_direct(A, B)
    assert set(sumset(A, B).members) == sumset_direct(A, B)
    assert set(difference_set(A, B).members) == difference_direct(A, B)
    want = set(A.members) & {g.add_index(a, x) for a in A.members}
    assert set(slice_set(A, x).members) == want


@pytest.mark.parametrize("g", [_Z101, _Z4096, _Z4X6X8X16], ids=format_group_text)
def test_conv_counts_transforms_only_above_the_cost_threshold(g):
    for above, calls in ((0, 0), (1, 1)):
        A, B = _threshold_pair(g, above)
        with mock.patch.object(setstat, "idft_columns", wraps=setstat.idft_columns) as spy:
            assert conv_counts(A, B).tolist() == conv_direct(A, B)
        assert spy.call_count == calls


def test_conv_counts_falls_back_to_the_direct_loop_when_the_bound_fails():
    g = _Z4096
    rng = random.Random(4)
    A, B = (group_set(g, rng.sample(range(g.order), 300)) for _ in range(2))
    with mock.patch.object(setstat, "conv_error", return_value=1.0), \
            mock.patch.object(setstat, "idft_columns", wraps=setstat.idft_columns) as spy:
        got = conv_counts(A, B)
    assert spy.call_count == 0
    assert got.tolist() == conv_direct(A, B)


def test_neg_conjugates_the_transform_so_each_set_transforms_once(monkeypatch):
    g = _Z4096
    calls = []

    def counting_dft(f):
        calls.append(f)
        return dft(f)

    monkeypatch.setattr(setstat, "dft", counting_dft)
    rng = random.Random(5)
    for first in ("autocorr", "sum_size"):
        calls.clear()
        A = group_set(g, rng.sample(range(g.order), 500))
        getattr(A, first)
        A.autocorr, A.sum_size
        assert len(calls) == 1
        minus = A.neg()
        assert minus.neg() is A
        assert np.array_equal(minus.transform, np.conj(A.transform))
        assert minus.autocorr is A.autocorr
        assert len(calls) == 1
        assert A.autocorr.tolist() == corr_direct(A, A)
        assert A.sum_size == len(sumset_direct(A, A))


@pytest.mark.parametrize("text", ["Z65521", "Z256xZ256"])
def test_full_set_convolution_at_the_order_cap(text):
    g = parse_group_text(text)
    F = full_set(g)
    with mock.patch.object(setstat, "idft_columns", wraps=setstat.idft_columns) as spy:
        counts = conv_counts(F, F)
    assert spy.call_count == 1
    assert (counts == g.order).all()


def test_subgroup_autocorrelation_at_the_order_cap():
    g = make_group((65536,))
    A = group_set(g, range(0, g.order, 16))
    counts = corr_counts(A, A)
    want = np.zeros(g.order, dtype=np.int64)
    want[A.members] = len(A)
    assert np.array_equal(counts, want)


def test_conv_counts_loops_directly_above_the_transform_cap():
    g = make_group((131072,))
    assert g.order > MAX_TRANSFORM_ORDER
    rng = random.Random(6)
    A, B = (group_set(g, rng.sample(range(g.order), 300)) for _ in range(2))
    with mock.patch.object(setstat, "idft_columns", wraps=setstat.idft_columns) as spy:
        got = conv_counts(A, B)
    assert spy.call_count == 0
    assert got.tolist() == conv_direct(A, B)


# -- stacked kernels -------------------------------------------------------------

_COLUMN_GROUPS = [parse_group_text(t) for t in ("F2^5", "Z24", "Z4xZ6", "Z101")]


@st.composite
def _column_stacks(draw, nonempty=False):
    """A group, a stack of 0..6 pairs of sets on it (empty, singleton, full
    and random sets), and the columns a block holds (None: the default,
    which holds them all)."""
    g = draw(st.sampled_from(_COLUMN_GROUPS), label="group")
    pairs = []
    for _ in range(draw(st.integers(1 if nonempty else 0, 6), label="columns")):
        A, B = _kernel_set(draw, g), _kernel_set(draw, g)
        pairs.append((A or full_set(g), B or full_set(g)) if nonempty else (A, B))
    return g, pairs, draw(st.sampled_from([None, 1, 2]), label="columns per block")


def _blocks_of(g, per_block):
    budget = per_block * g.order if per_block else setstat._KK_BLOCK_ELEMENTS
    return mock.patch.object(setstat, "_KK_BLOCK_ELEMENTS", budget)


def _columns(table):
    return [table[:, j].tolist() for j in range(table.shape[1])]


@given(_column_stacks())
@settings(max_examples=80, deadline=None)
def test_conv_columns_and_sumsets_match_oracles(case):
    g, pairs, per_block = case
    counts = conv_columns(g, pairs)
    assert counts.shape == (g.order, len(pairs)) and counts.dtype == np.int64
    assert _columns(counts) == [conv_direct(A, B) for A, B in pairs]
    assert _columns(conv_columns(g, [(A.neg(), B) for A, B in pairs])) == [corr_direct(A, B) for A, B in pairs]
    with _blocks_of(g, per_block):
        sums = sumsets(pairs)
    assert [set(S.members) for S in sums] == [sumset_direct(A, B) for A, B in pairs]


@given(_column_stacks())
@settings(max_examples=60, deadline=None)
def test_conv_columns_fall_back_to_the_loop_per_column(case):
    # the bound fails on every column whose first set has odd size: those
    # columns loop, the others share one inverse transform
    g, pairs, _ = case
    real = setstat.conv_error
    with mock.patch.object(setstat, "conv_error", side_effect=lambda g, a, b: 1.0 if a % 2 else real(g, a, b)), \
            mock.patch.object(setstat, "idft_columns", wraps=setstat.idft_columns) as spy:
        counts = conv_columns(g, pairs)
    assert _columns(counts) == [conv_direct(A, B) for A, B in pairs]
    if not g.is_boolean_space:
        exact = sum(1 for A, B in pairs if len(A) and len(B) and len(A) % 2 == 0)
        assert spy.call_count == (exact > 0)
        assert [call.args[1].shape[1] for call in spy.call_args_list] == ([exact] if exact else [])


def test_conv_columns_reject_foreign_sets():
    g = make_group((6,))
    with pytest.raises(GroupMismatchError):
        conv_columns(g, [(group_set(g, [1]), group_set(make_group((2, 3)), [1]))])
    with pytest.raises(GroupMismatchError):
        sumsets([(group_set(g, [1]), group_set(g, [2])), (group_set(make_group((7,)), [1]),) * 2])


@given(_column_stacks(nonempty=True), st.lists(st.sampled_from([2, 3]), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_energy_difference_bounds_match_oracles(case, ks):
    g, pairs, per_block = case
    ks = ks[: len(pairs)]
    with _blocks_of(g, per_block):
        reports = energy_difference_bounds(pairs, ks)
    assert len(reports) == len(pairs)
    for (A, B), k, rep in zip(pairs, ks, reports):
        assert rep.k == k
        assert rep.e_k_b == higher_energy_direct(B, k)
        assert rep.e_a_s == energy_direct(A, group_set(g, sumset_direct(A, B)))
        assert rep.diff_size == len(difference_direct(A, A))
        assert rep.lhs == rep.e_k_b * rep.e_a_s**k * rep.diff_size
        assert rep.rhs == len(A) ** (2 * k + 2) * len(B) ** (2 * k)
        assert rep.holds and rep.margin == Fraction(rep.lhs, rep.rhs)


@given(_column_stacks())
@settings(max_examples=40, deadline=None)
def test_higher_energies_match_oracle(case):
    g, pairs, per_block = case
    sets = [A for A, _ in pairs]
    with _blocks_of(g, per_block):
        got = higher_energies(sets, 6)
    assert got == [{k: higher_energy_direct(A, k) for k in range(2, 7)} for A in sets]


def test_higher_energies_sum_past_int64_exactly():
    # |A| = 2^11 puts |A|^7 past 2^63, so the full set's column is summed in
    # Python ints; the singleton's stays in int64
    g = boolean_group(11)
    big, small = full_set(g), group_set(g, [5])
    got = higher_energies([big, small], 6)
    assert got == [{k: g.order * g.order**k for k in range(2, 7)}, {k: 1 for k in range(2, 7)}]
    assert got[0] == {k: higher_energy(big, k) for k in range(2, 7)}


@given(_column_stacks())
@settings(max_examples=40, deadline=None)
def test_katz_koester_stack_matches_direct_oracle(case):
    g, pairs, per_block = case
    if g.order > 30:
        pairs = [(A, B) for A, B in pairs if len(A) * len(B) <= 400]
    with _blocks_of(g, per_block):
        rows = katz_koester_stack(pairs)
    assert len(rows) == len(pairs)
    for (A, B), r in zip(pairs, rows):
        assert r.xs.tolist() == sorted(difference_direct(A, A))
        got = list(zip(r.left.tolist(), r.right.tolist(), r.holds.tolist()))
        assert got == [katz_koester_direct(A, B, x) for x in r.xs.tolist()]
