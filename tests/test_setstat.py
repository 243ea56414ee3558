from __future__ import annotations

import contextlib
import math
import random
import weakref
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
    SizeLimitError,
    boolean_group,
    format_group_text,
    make_group,
    parse_group_text,
)
from addcomb.harmonic import _error_scale, magnitudes, power_sums, transform_cost, transform_error
from addcomb.setstat import (
    GroupSet,
    SetStack,
    conv_counts,
    corr_columns,
    corr_counts,
    energy_difference_bounds,
    group_set,
    higher_energies,
    higher_energy,
    katz_koester_stack,
    peak_coefficient,
    profile,
    sumset,
    sumset_size,
    triangle_stack,
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
    triangle_direct,
    translate_direct,
)

GROUPS = [make_group(f) for f in [(18,), (2, 2, 2, 2), (3, 8)]]


def _full(g):
    return GroupSet(g, np.arange(g.order, dtype=np.int64))


def _random_set(g, rng, lo=2, hi=None):
    hi = hi or max(3, g.order // 2)
    return group_set(g, rng.sample(range(g.order), rng.randrange(lo, hi)))


def test_group_set_sorts_and_dedupes():
    g = make_group((10,))
    A = group_set(g, [7, 1, 7, 3])
    assert A.members.tolist() == [1, 3, 7]
    assert len(A) == 3
    assert [i in A for i in range(10)] == [i in {1, 3, 7} for i in range(10)]


@pytest.mark.parametrize(
    "members, want",
    [([], []), (iter([]), []), (np.array([], dtype=np.int32), []), ([4, 4, 4], [4]),
     ((9, 0, 9, 0, 5), [0, 5, 9]), (np.array([3, 1, 3], dtype=np.uint8), [1, 3])],
    ids=["empty", "empty-iterator", "empty-int32", "one-repeated", "tuple", "uint8"],
)
def test_group_set_keeps_int64_members_on_every_input(members, want):
    A = group_set(make_group((10,)), members)
    assert A.members.dtype == np.int64
    assert A.members.tolist() == want


@pytest.mark.parametrize(
    "members",
    [[-1, 2], [3, -1], [1.5], [2.0, 1.0], [1, 2.5], [float("nan")], [1 << 63], [1 << 64], [-1, 1 << 63], [10]],
    ids=["negative", "negative-last", "float", "integral-floats", "mixed-float", "nan", "2^63", "2^64",
         "negative-and-2^63", "past-the-order"],
)
def test_group_set_refuses_what_is_no_element_index(members):
    with pytest.raises(GroupMismatchError, match="strictly sorted integer element indices in range"):
        group_set(make_group((10,)), members)


@pytest.mark.parametrize(
    "members",
    [[(0, 1), (1, 0)], [[1, 2], [3, 4]], np.array([[0, 1], [1, 0]]), np.arange(6).reshape(2, 3), [(0, 1), 2]],
    ids=["coordinate-tuples", "nested-lists", "2-d-array", "2-d-arange", "ragged"],
)
def test_group_set_refuses_nested_input(members):
    # coordinate tuples are no element indices: read flat, [(0, 1), (1, 0)] was the set {0, 1}
    with pytest.raises(GroupMismatchError, match="flat sequence of element indices"):
        group_set(make_group((2, 2)), members)


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
        sumset(A, group_set(g, [0])),
        A.neg().neg(),
    ]
    for S in same:
        assert S == A and hash(S) == hash(A) and hash(S.members) == hash(A.members)
    # the same indices on another group are another set
    if twin != g:
        assert GroupSet(twin, A.members) != A
    # A + x is the sumset with {x}; |A intersect (A + x)| is A o A at x
    assert sumset(A, group_set(g, [x])).members.tolist() == translate_direct(A, x)
    assert A.neg().members.tolist() == neg_direct(A)
    assert sumset(A, B).members.tolist() == sorted(sumset_direct(A, B))
    assert int(A.autocorr[x]) == len(slice_direct(A, x))
    for S in (sumset(A, group_set(g, [x])), A.neg(), sumset(A, B)):
        assert S.members.dtype == np.int64 and not S.members.flags.writeable
    assert [i in A for i in range(g.order)] == [i in set(a) for i in range(g.order)]


def test_translate_and_neg():
    g = make_group((12,))
    A = group_set(g, [0, 1, 5])
    assert sumset(A, group_set(g, [3])).members.tolist() == [3, 4, 8]
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
        assert int(got[x]) == len(slice_direct(A, x))


@pytest.mark.parametrize("g", GROUPS, ids=format_group_text)
def test_sumset_difference_match_brute(g):
    rng = random.Random(g.order + 5)
    A, B = _random_set(g, rng), _random_set(g, rng)
    assert set(sumset(A, B).members) == sumset_direct(A, B)
    # A - B is the support of B o A, #{(b, a) : a - b = x}
    assert set(np.flatnonzero(corr_counts(B, A)).tolist()) == difference_direct(A, B)


def test_mismatched_groups_rejected():
    A = group_set(make_group((6,)), [1])
    B = group_set(make_group((2, 3)), [1])
    with pytest.raises(GroupMismatchError):
        sumset(A, B)


@pytest.mark.parametrize("g", GROUPS, ids=format_group_text)
def test_energy_matches_quadruple_count(g):
    rng = random.Random(g.order + 9)
    A, B = _random_set(g, rng), _random_set(g, rng)
    # E(A, B) is the sum of squares of B o A, E_k(A) the k-th power sum of A o A
    assert power_sums(corr_counts(B, A), 2) == [energy_direct(A, B)]
    assert power_sums(corr_counts(A, A), 4) == [higher_energy(A, k) for k in (2, 3, 4)]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_higher_energy_matches_brute(k):
    g = make_group((15,))
    rng = random.Random(k)
    A = _random_set(g, rng)
    assert higher_energy(A, k) == higher_energy_direct(A, k)


def test_energy_extremes():
    g = make_group((11,))
    A = _full(g)
    # full group: (A o A)(x) = N everywhere
    assert higher_energy(A, 2) == g.order**3
    single = group_set(g, [4])
    assert higher_energy(single, 2) == 1


def test_doubling_constant_values():
    g = boolean_group(4)
    H = group_set(g, range(4))  # span of first two coordinates
    # K[A] = |A - A| / |A|, as profile reports it
    assert profile(H).doubling == Fraction(H.diff_size, len(H)) == 1
    single = group_set(g, [9])
    assert profile(single).doubling == Fraction(single.diff_size, len(single)) == 1


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


@pytest.mark.parametrize("text", ["Z4096", "Z4xZ6xZ8xZ16", "Z65521", "F2^12"])
def test_peak_error_is_the_indicators_transform_error(text):
    # peak_coefficient takes the error as scale * sqrt(|A|), without the
    # N-entry indicator; it is transform_error's double, and the enclosure
    # is the one that error gives
    g = parse_group_text(text)
    rng = random.Random(g.order)
    for size in (1, 37, g.order // 16):
        A = group_set(g, rng.sample(range(g.order), size))
        err = transform_error(A.indicator())
        assert err == (0 if g.is_boolean_space else _error_scale(g) * math.sqrt(size))
        peak = peak_coefficient(A)
        top = Fraction(magnitudes(A.transform)[peak.arg].item())
        assert peak.lo == setstat._outward(max(top - Fraction(err), 0) ** 2, -math.inf)
        assert peak.hi == setstat._outward(min((top + Fraction(err)) ** 2, size**2), math.inf)


@pytest.mark.parametrize("g", GROUPS, ids=format_group_text)
def test_energy_hist_counts_each_value_of_the_autocorrelation(g):
    rng = random.Random(g.order + 3)
    for A in (_random_set(g, rng), group_set(g, []), _full(g)):
        values = corr_direct(A, A)
        want = sorted((c, values.count(c)) for c in set(values) if c > 0)
        assert list(A.energy_hist) == want


def _stack_of(g, sets):
    """The sets, each a GroupSet or element indices, as one SetStack on g."""
    sets = [X if isinstance(X, GroupSet) else group_set(g, X) for X in sets]
    members = np.concatenate([X.members for X in sets] + [np.empty(0, dtype=np.int64)])
    return SetStack(g, members, np.cumsum([0] + [len(X) for X in sets]))


def _triangle(g, Ws, Ys, Xs, Zs):
    """triangle_stack with the X and Z families as stacks on g."""
    return triangle_stack(Ws, Ys, _stack_of(g, Xs), _stack_of(g, Zs))


def test_generalized_triangle_subgroup_equality():
    g = boolean_group(4)
    H = list(range(4))
    lhs, rhs = _triangle(g, [[(h,) for h in H]], [[(h,) for h in H]], [H], [H])
    assert lhs.tolist() == rhs.tolist() == [len(H) ** 3]


def test_generalized_triangle_random_instances():
    g = make_group((15,))
    rng = random.Random(77)
    for _ in range(25):
        W = [(rng.randrange(15),) for _ in range(rng.randrange(1, 4))]
        Y = [(rng.randrange(15),) for _ in range(rng.randrange(1, 4))]
        X = rng.sample(range(15), rng.randrange(1, 4))
        Z = rng.sample(range(15), rng.randrange(1, 4))
        lhs, rhs = _triangle(g, [W], [Y], [X], [Z])
        assert lhs[0] <= rhs[0]


def test_generalized_triangle_pairs():
    g = make_group((7,))
    W = [(1, 2), (3, 4)]
    Y = [(0, 5)]
    lhs, rhs = _triangle(g, [W], [Y], [[0, 1]], [[2, 6]])
    assert lhs[0] <= rhs[0]


# Z_(2^21): a row of (W, Y, Z) - diag(X) with pairs lies in G^5, and a code
# packing it base N would need 105 bits
TRIANGLE_GROUPS = [make_group((15,)), boolean_group(5), make_group((4, 6)), make_group((1 << 21,))]


@st.composite
def _triangle_instance(draw, n: int, k1: int, k2: int):
    index = st.integers(min_value=0, max_value=n - 1)
    # drawn with repeats: the sides count distinct members
    family = lambda k: st.lists(st.tuples(*[index] * k), min_size=1, max_size=4)
    plain = st.lists(index, min_size=1, max_size=4)
    return draw(family(k1)), draw(family(k2)), draw(plain), draw(plain)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_triangle_stack_matches_direct_count(data):
    g = data.draw(st.sampled_from(TRIANGLE_GROUPS), label="group")
    k1 = data.draw(st.integers(min_value=1, max_value=2), label="k1")
    k2 = data.draw(st.integers(min_value=1, max_value=2), label="k2")
    instance = _triangle_instance(g.order, k1, k2)
    instances = data.draw(st.lists(instance, min_size=1, max_size=5), label="instances")
    form = data.draw(st.sampled_from(["tuples", "arrays", "stacks"]), label="form")
    if form == "arrays":  # every family as an int64 array, one row per tuple
        families = [[np.array(fam, dtype=np.int64) for fam in inst] for inst in instances]
    else:
        families = instances
    Ws, Ys, Xs, Zs = zip(*families)
    if form == "stacks" and k1 == k2 == 1:  # W and Y as stacks of sets, the 1-tuples' members
        Ws, Ys = ([group_set(g, (t for (t,) in fam)) for fam in F] for F in (Ws, Ys))
        Ws, Ys = _stack_of(g, Ws), _stack_of(g, Ys)
    lhs, rhs = _triangle(g, Ws, Ys, Xs, Zs)
    assert [(int(l), int(r)) for l, r in zip(lhs, rhs)] == [triangle_direct(g, *inst) for inst in instances]


def test_triangle_stack_keeps_coordinates_a_packed_code_would_drop():
    # base 2^21, coordinate 0 of a 5-coordinate row is worth 2^84: these two
    # rows differ there alone
    g = make_group((1 << 21,))
    lhs, rhs = _triangle(g, [[(0, 5), (1, 5)]], [[(2, 3)]], [[0]], [[4]])
    assert (lhs.tolist(), rhs.tolist()) == ([2], [2])
    assert triangle_direct(g, [(0, 5), (1, 5)], [(2, 3)], [0], [4]) == (2, 2)


def test_triangle_stack_of_no_instances_and_bad_families():
    g = make_group((15,))
    lhs, rhs = _triangle(g, [], [], [], [])
    assert lhs.size == rhs.size == 0
    for W, Y, X, Z in [
        ([(1,)], [], [0], [0]),
        ([(1,), (1, 2)], [(1,)], [0], [0]),
        ([(1, 2, 3)], [(1,)], [0], [0]),
        ([(1,)], [(1,)], [15], [0]),
    ]:
        with pytest.raises(ValueError):
            _triangle(g, [W], [Y], [X], [Z])
    with pytest.raises(ValueError):
        _triangle(g, [[(1,)]], [], [[0]], [[0]])
    one = np.array([[1]])
    for W, Y in [
        (np.array([1]), one),  # not a table of tuples
        (np.array([[1, 2, 3]]), one),
        (one, np.array([[15]])),
    ]:
        with pytest.raises(ValueError):
            _triangle(g, [W], [Y], [[0]], [[0]])
    with pytest.raises(ValueError, match="ragged"):  # one length within a family
        _triangle(g, [[(1,), (1, 2)]], [[(1,)]], [[0]], [[0]])
    with pytest.raises(ValueError, match="ragged"):  # one length across the stack
        _triangle(g, [one, np.array([[1, 2]])], [one, one], [[0], [0]], [[0], [0]])
    with pytest.raises(GroupMismatchError):  # X and Z live on one group
        triangle_stack([[(1,)]], [[(1,)]], _stack_of(g, [[0]]), _stack_of(make_group((3, 5)), [[0]]))
    with pytest.raises(GroupMismatchError):  # so does a W or Y stack
        _triangle(g, _stack_of(make_group((3, 5)), [[1]]), [[(1,)]], [[0]], [[0]])
    # the caps count distinct members
    g = make_group((2048,))
    lhs, rhs = _triangle(g, [[(1,)] * 1001], [[(1,)]], [[0]], [[0] * 1001])
    assert lhs[0] <= rhs[0]
    with pytest.raises(SizeLimitError):
        _triangle(g, [[(1,)]], [[(1,)]], [[0]], [range(1001)])


def test_energy_difference_bound_margin_at_least_one():
    g = make_group((24,))
    rng = random.Random(5)
    for _ in range(20):
        A, B = _random_set(g, rng), _random_set(g, rng)
        [rep] = energy_difference_bounds(A.stack(), B.stack(), [2 + rng.randrange(2)])
        assert rep.holds and rep.margin >= 1


def test_katz_koester_inclusion_everywhere():
    g = make_group((30,))
    rng = random.Random(6)
    A, B = _random_set(g, rng), _random_set(g, rng)
    [rows] = katz_koester_stack(A.stack(), B.stack())
    assert rows.xs.tolist() == np.flatnonzero(A.autocorr).tolist()
    assert rows.holds.all()


KK_GROUPS = [make_group(f) for f in [(7,), (30,), (4, 6), (2, 3, 3), (2,) * 5]]
# katz_koester_stack sizes a displacement block as this many columns of the
# group apiece (column_blocks' per_item), since a displacement holds complex
# transform columns
_KK_PER_X = 4


def _rows_against_oracle(A, B, sums=None, xs_per_block=None):
    """The rows of the one-pair stack katz_koester_stack(A, B), with
    blocks of `xs_per_block` displacements (the default block size when
    None), after checking every row, sizes and verdict, against
    katz_koester_direct.  `sums`, a subset of A + B, replaces A + B on the
    right-hand side of both."""
    budget = xs_per_block * _KK_PER_X * A.group.order if xs_per_block else setstat._BLOCK_ELEMENTS
    with mock.patch.object(setstat, "_BLOCK_ELEMENTS", budget):
        if sums is None:
            [rows] = katz_koester_stack(A.stack(), B.stack())
        else:
            # A - A comes from the reflected columns of the stack of pair
            # counts, so thinning the others reaches the right-hand side
            # only; the call with no reflected column counts B + A_x, the
            # left-hand side, and is left as it is
            real = setstat._columns
            kept = np.isin(np.arange(A.group.order), sums.members)[:, None]

            def thinned(pool, hats, left, right, reflect):
                counts = real(pool, hats, left, right, reflect)
                if reflect.any():
                    counts[:, ~reflect] *= kept
                return counts

            with mock.patch.object(setstat, "_columns", thinned):
                [rows] = katz_koester_stack(A.stack(), B.stack())
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
    G = _full(g)
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


@pytest.mark.parametrize("g", [g for g in KK_GROUPS if not g.is_boolean_space], ids=format_group_text)
@pytest.mark.parametrize("xs_per_block", [None, 1])
def test_katz_koester_rows_loop_where_the_bound_fails_on_b_plus_a_x(g, xs_per_block):
    # the first conv_errors call decides A - A and A + B; every later one
    # decides B + A_x columns, and fails those whose A_x has odd size, so
    # each of those columns counts by pairs and the others by one inverse DFT
    rng = random.Random(3 * g.order)
    A, B = (group_set(g, rng.sample(range(g.order), g.order // 2)) for _ in "AB")
    real, calls = setstat.conv_errors, []

    def errors(g, a, b):
        calls.append(len(a))
        return real(g, a, b) if len(calls) == 1 else np.where(a % 2, 1.0, real(g, a, b))

    with mock.patch.object(setstat, "conv_errors", side_effect=errors), \
            mock.patch.object(setstat, "_conv_loop", wraps=setstat._conv_loop) as loop:
        rows = _rows_against_oracle(A, B, xs_per_block=xs_per_block)
    odd = [x for x in rows.xs.tolist() if len(slice_direct(A, x)) % 2]
    assert odd and len(odd) < len(rows.xs)
    assert loop.call_count == len(odd) and len(calls) > 1


def test_katz_koester_rows_reject_foreign_sets():
    g = make_group((6,))
    A = group_set(g, [0, 1])
    with pytest.raises(GroupMismatchError):
        katz_koester_stack(A.stack(), group_set(make_group((2, 3)), [1]).stack())


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


def _pair_path_size(g, todo):
    """The largest k for which conv_counts counts two k-member sets by
    pairs when `todo` transforms of their sources are not yet kept."""
    budget = (1 + todo) * transform_cost(g)
    k = math.isqrt(int(budget / setstat._PAIR_COST))
    while setstat._PAIR_COST * (k + 1) ** 2 <= budget:
        k += 1
    while setstat._PAIR_COST * k * k > budget:
        k -= 1
    return k


def _kernel_set(draw, g):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if g.order > 1024:
        # the pair oracles are quadratic: sizes around the cost rule's
        # crossovers, with no transform kept (first call) and both kept
        return group_set(g, rng.sample(range(g.order), draw(st.integers(0, 3 * _pair_path_size(g, 2) // 2))))
    shape = draw(st.sampled_from(["empty", "singleton", "full", "random"]))
    if shape == "empty":
        return group_set(g, [])
    if shape == "singleton":
        return group_set(g, [draw(st.integers(0, g.order - 1))])
    if shape == "full":
        return _full(g)
    density = draw(st.sampled_from([0.1, 0.5, 0.9]))
    return group_set(g, [i for i in range(g.order) if rng.random() < density])


@st.composite
def _kernel_pairs(draw):
    g = draw(st.sampled_from(_KERNEL_GROUPS))
    return _kernel_set(draw, g), _kernel_set(draw, g), draw(st.integers(0, g.order - 1))


_Z5XZ20, _Z101, _Z4096, _Z4X6X8X16 = _KERNEL_GROUPS[-4:]
_Z65521 = make_group((65521,))


def _rule_pair(g, todo, above):
    """Two spread-out sets of k members each, k the largest size the cost
    rule counts by pairs with `todo` transforms not kept, plus `above`."""
    k = _pair_path_size(g, todo) + above
    step = g.order // k
    return group_set(g, range(0, g.order, step)[:k]), group_set(g, range(1, g.order, step)[:k])


@given(_kernel_pairs())
@example((group_set(_Z5XZ20, range(64)), group_set(_Z5XZ20, range(36, 100)), 21))
@example((group_set(_Z5XZ20, range(65)), group_set(_Z5XZ20, range(36, 100)), 21))
@example((_full(_Z5XZ20), _full(_Z5XZ20), 99))
@example((*_rule_pair(_Z101, 2, 0), 3))
@example((*_rule_pair(_Z101, 2, 1), 3))
@example((_full(_Z101), _full(_Z101), 50))
@example((*_rule_pair(_Z4096, 2, 0), 17))
@example((*_rule_pair(_Z4096, 2, 1), 17))
@example((*_rule_pair(_Z4X6X8X16, 2, 0), 5))
@example((*_rule_pair(_Z4X6X8X16, 2, 1), 5))
@settings(max_examples=150, deadline=None)
def test_pair_counting_kernel_matches_oracles(case):
    A, B, x = case
    g = A.group
    assert conv_counts(A, B).tolist() == conv_direct(A, B)
    assert corr_counts(A, B).tolist() == corr_direct(A, B)
    assert set(sumset(A, B).members) == sumset_direct(A, B)
    assert set(np.flatnonzero(corr_counts(B, A)).tolist()) == difference_direct(A, B)
    want = set(A.members) & {g.add_index(a, x) for a in A.members}
    assert int(A.autocorr[x]) == len(want)


def _transform_spies():
    """Spies on every transform conv_counts can call: the stacked Walsh
    transform, the forward DFT and the inverse DFT."""
    return [mock.patch.object(setstat, name, wraps=getattr(setstat, name))
            for name in ("wht_int_columns", "dft_columns", "idft_columns")]


@pytest.mark.parametrize("g", [boolean_group(10), _Z101, _Z4096, _Z4X6X8X16], ids=format_group_text)
def test_conv_counts_transforms_only_above_the_cost_rule(g):
    # with no transform kept, the transform path computes both sets' and
    # takes one inverse; with both kept, only the inverse
    for todo in (2, 0):
        for above in (0, 1):
            A, B = _rule_pair(g, todo, above)
            if todo == 0:
                A.transform, B.transform
            with contextlib.ExitStack() as stack:
                wht, dft, idft = (stack.enter_context(spy) for spy in _transform_spies())
                assert conv_counts(A, B).tolist() == conv_direct(A, B)
            forward = todo * above
            if g.is_boolean_space:
                assert (wht.call_count, dft.call_count, idft.call_count) == (forward + above, 0, 0)
            else:
                assert (wht.call_count, dft.call_count, idft.call_count) == (0, forward, above)


@pytest.mark.parametrize("size", [64, 256])
def test_conv_counts_takes_pairs_on_a_bluestein_order(size):
    # Z65521 is prime: its transforms run Bluestein's algorithm, several
    # times the work of a power-of-two order, and the cost rule charges it
    rng = random.Random(size)
    A, B = (group_set(_Z65521, rng.sample(range(_Z65521.order), size)) for _ in range(2))
    assert setstat._PAIR_COST * size * size < transform_cost(_Z65521)
    with contextlib.ExitStack() as stack:
        spies = [stack.enter_context(spy) for spy in _transform_spies()]
        assert conv_counts(A, B).tolist() == conv_direct(A, B)
    assert [spy.call_count for spy in spies] == [0, 0, 0]


@pytest.mark.parametrize("g, sizes, block", [
    (_Z65521, (520, 510), None),
    (boolean_group(10), (90, 40), 300),
    (_Z4X6X8X16, (70, 33), 100),
], ids=["Z65521", "F2^10", "Z4xZ6xZ8xZ16"])
def test_pair_path_spans_row_blocks(g, sizes, block):
    # the table of pair sums is cut into row blocks of at most
    # _BLOCK_ELEMENTS cells (the default on Z65521, a few rows elsewhere)
    rng = random.Random(sum(sizes))
    A, B = (group_set(g, rng.sample(range(g.order), k)) for k in sizes)
    budget = block or setstat._BLOCK_ELEMENTS
    assert len(A) * len(B) > budget
    with mock.patch.object(setstat, "_BLOCK_ELEMENTS", budget), contextlib.ExitStack() as stack:
        spies = [stack.enter_context(spy) for spy in _transform_spies()]
        assert conv_counts(A, B).tolist() == conv_direct(A, B)
        assert corr_counts(A, B).tolist() == corr_direct(A, B)
    assert [spy.call_count for spy in spies] == [0, 0, 0]


def test_conv_counts_falls_back_to_the_direct_loop_when_the_bound_fails():
    g = _Z4096
    rng = random.Random(4)
    A, B = (group_set(g, rng.sample(range(g.order), 300)) for _ in range(2))
    with mock.patch.object(setstat, "conv_errors", side_effect=lambda g, a, b: np.ones(len(a))), \
            mock.patch.object(setstat, "idft_columns", wraps=setstat.idft_columns) as spy:
        got = conv_counts(A, B)
    assert spy.call_count == 0
    assert got.tolist() == conv_direct(A, B)


def test_neg_conjugates_the_transform_so_each_set_transforms_once(monkeypatch):
    g = _Z4096
    calls = []  # one entry per column the stacked kernel transforms
    real = setstat.dft_columns

    def counting_dft_columns(g, table):
        calls.extend(range(table.shape[1]))
        return real(g, table)

    monkeypatch.setattr(setstat, "dft_columns", counting_dft_columns)
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
        assert minus.members.tolist() == neg_direct(A)
        # A keeps no reference to -A: a dropped -A dies at once, no cycle
        dropped = weakref.ref(minus)
        del minus
        assert dropped() is None


def test_corr_counts_reflects_a_and_builds_no_negated_set():
    # corr_counts(A, B) reads -A off A: the transform path (A, B) multiplies
    # A's kept transform reflected, the pair path (A, C) negates A's members
    # in the loop, and neither builds -A as a set
    g = _Z4096
    rng = random.Random(6)
    A, B, C = (group_set(g, rng.sample(range(g.order), k)) for k in (400, 300, 3))
    want_b, want_c = corr_direct(A, B), corr_direct(A, C)
    built = []
    post_init = GroupSet.__post_init__
    with mock.patch.object(GroupSet, "__post_init__", lambda S: built.append(S) or post_init(S)), \
            mock.patch.object(setstat, "neg_index_many", wraps=setstat.neg_index_many) as neg, \
            mock.patch.object(setstat, "dft_columns", wraps=setstat.dft_columns) as dft:
        for _ in range(3):
            assert corr_counts(A, B).tolist() == want_b
        assert neg.call_count == 0
        for _ in range(3):
            assert corr_counts(A, C).tolist() == want_c
    assert built == []
    assert neg.call_count == 3  # A's members, once per pair-path call
    assert dft.call_count == 2  # A's transform and B's, each once


@pytest.mark.parametrize("text", ["Z65521", "Z256xZ256"])
def test_full_set_convolution_at_the_order_cap(text):
    g = parse_group_text(text)
    F = _full(g)
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
    and random sets, so the stacks are ragged), and the columns a block
    holds (None: the default, which holds them all)."""
    g = draw(st.sampled_from(_COLUMN_GROUPS), label="group")
    pairs = []
    for _ in range(draw(st.integers(1 if nonempty else 0, 6), label="columns")):
        A, B = _kernel_set(draw, g), _kernel_set(draw, g)
        pairs.append((A or _full(g), B or _full(g)) if nonempty else (A, B))
    return g, pairs, draw(st.sampled_from([None, 1, 2]), label="columns per block")


def _stacks(g, pairs):
    """The first and the second sets of the pairs, as two stacks on g."""
    return _stack_of(g, [A for A, _ in pairs]), _stack_of(g, [B for _, B in pairs])


def _conv_table(As, Bs):
    """The pair counts a + b of every pair (As[j], Bs[j]), no A reflected,
    as one setstat._columns table on one stacked transform of the sets (of
    As alone when Bs is As)."""
    j = np.arange(len(As))
    pool, right = (As, j) if As is Bs else (setstat._join(As.group, [As, Bs]), j + len(As))
    return setstat._columns(pool, setstat._hats(pool), j, right, np.zeros(len(As), dtype=bool))


def _sumsets(As, Bs):
    """A + B of every pair, as a stack: the supports of _conv_table."""
    return setstat._support_stack(As.group, _conv_table(As, Bs))


def _blocks_of(g, per_block):
    budget = per_block * g.order if per_block else setstat._BLOCK_ELEMENTS
    return mock.patch.object(setstat, "_BLOCK_ELEMENTS", budget)


def _columns(table):
    return [table[:, j].tolist() for j in range(table.shape[1])]


def _sets(stack):
    return [set(members.tolist()) for members in stack]


# a stack of ragged sizes, empty sets among them, on each group
_RAGGED = [
    (g, [(0, 3), (1, 0), (0, 0), (5, g.order), (g.order, 1), (2, 7)])
    for g in _COLUMN_GROUPS + [boolean_group(10), make_group((131072,))]
]


def _ragged_pairs(g, sizes):
    rng = random.Random(g.order)
    return [tuple(group_set(g, rng.sample(range(g.order), k)) for k in pair) for pair in sizes]


def test_set_stack_checks_every_set_once():
    g = make_group((10,))
    S = SetStack(g, np.array([1, 4, 9, 0, 2, 5], dtype=np.int64), np.array([0, 3, 3, 6]))
    assert len(S) == 3 and S.sizes.tolist() == [3, 0, 3]
    assert [m.tolist() for m in S] == [[1, 4, 9], [], [0, 2, 5]]
    assert S.starts.tolist() == [0, 3, 3, 6] and not S.starts.flags.writeable
    assert not S.members.flags.writeable and S.members.dtype == np.int64
    assert _sets(S[::2]) == [{1, 4, 9}, {0, 2, 5}] and _sets(S[1:]) == [set(), {0, 2, 5}]
    assert S[-1].tolist() == [0, 2, 5]
    with pytest.raises(IndexError):
        S[3]
    for members, starts in [
        ([1, 4, 3, 0], [0, 3, 4]),  # unsorted within a set
        ([1, 4, 4, 0], [0, 3, 4]),  # a repeat within a set
        ([1, 4, 10, 0], [0, 3, 4]),  # out of range
        ([-1, 4, 9, 0], [0, 3, 4]),
        (np.array([1.0, 4.0]), [0, 2]),  # a float dtype
        (np.array([True]), [0, 1]),
        ([1, 4, 9, 0], [0, 3, 5]),  # starts past the members
        ([1, 4, 9, 0], [1, 3, 4]),
        ([1, 4, 9, 0], [0, 3, 2, 4]),
        ([1, 4, 9, 0], [0.0, 3.0, 4.0]),
        ([1, 4], [[0, 2]]),
    ]:
        with pytest.raises(GroupMismatchError):
            SetStack(g, np.array(members), np.array(starts))
    # GroupSet refuses what a stack refuses
    for members in (np.array([1.0, 2.0]), np.array([True]), [1.5], [2, 1], [3, 3], [10]):
        with pytest.raises(GroupMismatchError):
            GroupSet(g, members)
    assert len(GroupSet(g, [])) == 0 and len(SetStack(g, [], [0])) == 0


def test_one_set_stack_is_a_view():
    g = make_group((10,))
    A = group_set(g, [2, 3, 7])
    one = A.stack()
    assert np.shares_memory(one.members, A.members) and one.starts.tolist() == [0, 3]
    assert _sets(one) == [{2, 3, 7}] and one.group == g


@given(_column_stacks())
@settings(max_examples=80, deadline=None)
def test_conv_columns_and_sumsets_match_oracles(case):
    g, pairs, per_block = case
    As, Bs = _stacks(g, pairs)
    counts = _conv_table(As, Bs)
    assert counts.shape == (g.order, len(pairs)) and counts.dtype == np.int64
    assert _columns(counts) == [conv_direct(A, B) for A, B in pairs]
    negs = _stack_of(g, [A.neg() for A, _ in pairs])
    assert _columns(_conv_table(negs, Bs)) == [corr_direct(A, B) for A, B in pairs]
    assert _columns(corr_columns(As, Bs)) == [corr_direct(A, B) for A, B in pairs]
    assert _columns(corr_columns(As, As)) == [corr_direct(A, A) for A, _ in pairs]
    with _blocks_of(g, per_block):
        sums = _sumsets(As, Bs)
    assert isinstance(sums, SetStack) and sums.group == g
    assert _sets(sums) == [sumset_direct(A, B) for A, B in pairs]


@pytest.mark.parametrize("g, sizes", _RAGGED, ids=[format_group_text(g) for g, _ in _RAGGED])
def test_count_kernels_on_ragged_stacks_with_empty_sets(g, sizes):
    pairs = _ragged_pairs(g, sizes)
    As, Bs = _stacks(g, pairs)
    assert As.sizes.tolist() == [a for a, _ in sizes] and Bs.sizes.tolist() == [b for _, b in sizes]
    if g.order > 1024:  # the quadratic oracles, on the sets they can afford
        small = [j for j, (a, b) in enumerate(sizes) if a * b <= 1024]
        conv, corr = _conv_table(As, Bs), corr_columns(As, Bs)
        assert [conv[:, j].tolist() for j in small] == [conv_direct(*pairs[j]) for j in small]
        assert [corr[:, j].tolist() for j in small] == [corr_direct(*pairs[j]) for j in small]
        return
    with _blocks_of(g, 2):
        assert _columns(_conv_table(As, Bs)) == [conv_direct(A, B) for A, B in pairs]
        assert _columns(corr_columns(As, Bs)) == [corr_direct(A, B) for A, B in pairs]
        assert _sets(_sumsets(As, Bs)) == [sumset_direct(A, B) for A, B in pairs]
        got = higher_energies(As, 4)
    assert got == [{k: higher_energy_direct(A, k) for k in range(2, 5)} for A, _ in pairs]


@given(_column_stacks())
@settings(max_examples=60, deadline=None)
def test_conv_columns_fall_back_to_the_loop_per_column(case):
    # the bound fails on every column whose first set has odd size: those
    # columns loop, the others share one inverse transform
    g, pairs, _ = case
    real = setstat.conv_errors
    with mock.patch.object(setstat, "conv_errors", side_effect=lambda g, a, b: np.where(a % 2, 1.0, real(g, a, b))), \
            mock.patch.object(setstat, "idft_columns", wraps=setstat.idft_columns) as spy:
        counts = _conv_table(*_stacks(g, pairs))
    assert _columns(counts) == [conv_direct(A, B) for A, B in pairs]
    if not g.is_boolean_space:
        exact = sum(1 for A, B in pairs if len(A) and len(B) and len(A) % 2 == 0)
        assert spy.call_count == (exact > 0)
        assert [call.args[1].shape[1] for call in spy.call_args_list] == ([exact] if exact else [])


@given(_column_stacks())
@settings(max_examples=60, deadline=None)
def test_corr_columns_build_a_negation_only_for_loop_columns(case):
    # as above, the columns whose first set has odd size loop; a reflected
    # column reads conj(A_hat), so only a looping column negates its A
    g, pairs, _ = case
    real_errors = setstat.conv_errors
    odd_fails = lambda g, a, b: np.where(a % 2, 1.0, real_errors(g, a, b))
    with mock.patch.object(setstat, "conv_errors", side_effect=odd_fails), \
            mock.patch.object(setstat, "neg_index_many", wraps=setstat.neg_index_many) as neg:
        counts = corr_columns(*_stacks(g, pairs))
    assert _columns(counts) == [corr_direct(A, B) for A, B in pairs]
    looped = [] if g.is_boolean_space else [A for A, B in pairs if len(A) % 2 and len(B)]
    assert [call.args[1].tolist() for call in neg.call_args_list] == [A.members.tolist() for A in looped]


def test_corr_columns_loop_directly_above_the_transform_cap():
    g = make_group((131072,))
    assert g.order > MAX_TRANSFORM_ORDER
    rng = random.Random(8)
    pairs = [tuple(group_set(g, rng.sample(range(g.order), k)) for k in sizes) for sizes in ((40, 60), (1, 30), (0, 5))]
    with mock.patch.object(setstat, "idft_columns", wraps=setstat.idft_columns) as idft, \
            mock.patch.object(setstat, "dft_columns", wraps=setstat.dft_columns) as dft:
        counts = corr_columns(*_stacks(g, pairs))
    assert idft.call_count == dft.call_count == 0
    assert _columns(counts) == [corr_direct(A, B) for A, B in pairs]


def test_conv_columns_reject_foreign_sets():
    g = make_group((6,))
    with pytest.raises(GroupMismatchError):
        corr_columns(_stack_of(g, [[1]]), _stack_of(make_group((2, 3)), [[1]]))
    with pytest.raises(ValueError):  # one B per A
        corr_columns(_stack_of(g, [[1], [2]]), _stack_of(g, [[1]]))


@given(_column_stacks(nonempty=True), st.lists(st.sampled_from([2, 3]), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_energy_difference_bounds_match_oracles(case, ks):
    g, pairs, per_block = case
    ks = ks[: len(pairs)]
    with _blocks_of(g, per_block):
        reports = energy_difference_bounds(*_stacks(g, pairs), ks)
    assert len(reports) == len(pairs)
    for (A, B), k, rep in zip(pairs, ks, reports):
        assert rep.k == k
        assert rep.e_k_b == higher_energy_direct(B, k)
        assert rep.e_a_s == energy_direct(A, group_set(g, sumset_direct(A, B)))
        assert rep.diff_size == len(difference_direct(A, A))
        assert rep.lhs == rep.e_k_b * rep.e_a_s**k * rep.diff_size
        assert rep.rhs == len(A) ** (2 * k + 2) * len(B) ** (2 * k)
        assert rep.holds and rep.margin == Fraction(rep.lhs, rep.rhs)


def test_energy_difference_bounds_transform_each_set_once(monkeypatch):
    # one block: one transform of the A's and the B's together, one of the sums
    g = make_group((24,))
    rng = random.Random(9)
    pairs = [tuple(group_set(g, rng.sample(range(24), rng.randrange(1, 12))) for _ in "AB") for _ in range(5)]
    widths = []
    real = setstat.dft_columns
    monkeypatch.setattr(setstat, "dft_columns", lambda g, table: widths.append(table.shape[1]) or real(g, table))
    energy_difference_bounds(*_stacks(g, pairs), [2] * 5)
    assert widths == [10, 5]
    with pytest.raises(ValueError):
        energy_difference_bounds(_stack_of(g, [[]]), _stack_of(g, [[1]]), [2])


def test_a_stack_paired_with_itself_is_transformed_once(monkeypatch):
    g = make_group((24,))
    S = _stack_of(g, [[1, 2, 3], [4, 5], [0, 7, 9]])
    widths = []
    real = setstat.dft_columns
    monkeypatch.setattr(setstat, "dft_columns", lambda g, table: widths.append(table.shape[1]) or real(g, table))
    assert _sets(_sumsets(S, S)) == [sumset_direct(*(group_set(g, m),) * 2) for m in S]
    corr_columns(S, S)
    higher_energies(S, 3)
    assert widths == [3, 3, 3]


@given(_column_stacks())
@settings(max_examples=40, deadline=None)
def test_higher_energies_match_oracle(case):
    g, pairs, per_block = case
    sets = [A for A, _ in pairs]
    with _blocks_of(g, per_block):
        got = higher_energies(_stack_of(g, sets), 6)
    assert got == [{k: higher_energy_direct(A, k) for k in range(2, 7)} for A in sets]


def test_higher_energies_sum_past_int64_exactly():
    # |A| = 2^11 puts |A|^7 past 2^63, so the full set's column is summed in
    # Python ints; the singleton's stays in int64
    g = boolean_group(11)
    big, small = _full(g), group_set(g, [5])
    got = higher_energies(_stack_of(g, [big, small]), 6)
    assert got == [{k: g.order * g.order**k for k in range(2, 7)}, {k: 1 for k in range(2, 7)}]
    assert got[0] == {k: higher_energy(big, k) for k in range(2, 7)}


@given(_column_stacks())
@settings(max_examples=40, deadline=None)
def test_katz_koester_stack_matches_direct_oracle(case):
    g, pairs, per_block = case
    if g.order > 30:
        pairs = [(A, B) for A, B in pairs if len(A) * len(B) <= 400]
    # per_block pairs per block, then (all the pairs in one block) per_block
    # displacements per block, so blocks cross from one pair to the next
    for scale in (1, _KK_PER_X) if per_block else (1,):
        with _blocks_of(g, per_block and scale * per_block):
            rows = katz_koester_stack(*_stacks(g, pairs))
        _check_kk_rows(pairs, rows)


@pytest.mark.parametrize("xs_per_block", [2, 3])
def test_katz_koester_stack_blocks_cross_pairs(xs_per_block):
    # |A - A| = 3, 3, 5, 1: blocks of 2 or 3 displacements start inside a
    # pair and end in a later one
    g = make_group((24,))
    pairs = [(group_set(g, a), group_set(g, b))
             for a, b in [([0, 1], [2, 5]), ([3, 7], [0]), ([0, 1, 2], [1, 4, 9]), ([5], [0, 23])]]
    with _blocks_of(g, xs_per_block * _KK_PER_X):
        rows = katz_koester_stack(*_stacks(g, pairs))
    assert [len(r.xs) for r in rows] == [3, 3, 5, 1]
    _check_kk_rows(pairs, rows)


def _check_kk_rows(pairs, rows):
    assert len(rows) == len(pairs)
    for (A, B), r in zip(pairs, rows):
        assert r.xs.tolist() == sorted(difference_direct(A, A))
        got = list(zip(r.left.tolist(), r.right.tolist(), r.holds.tolist()))
        assert got == [katz_koester_direct(A, B, x) for x in r.xs.tolist()]
