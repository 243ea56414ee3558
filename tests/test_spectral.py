from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb import spectral
from addcomb.groups import boolean_group, make_group
from addcomb.harmonic import FunctionTable, dft, indicator, magnitudes
from addcomb.setstat import group_set, read_only
from addcomb.spectral import (
    CHANG_AUDIT_CONSTANT,
    Spectrum,
    chang_bound,
    max_dissociated,
    spectrum,
)

from .oracles import dissociated_direct, greedy_dissociated_direct, span_direct, vanishing_signed_sums


def _keeps_all(g, lam):
    """Whether the witness of lam, candidates in the order given, keeps every
    member: for distinct nonzero lam, exactly when lam is dissociated, as the
    greedy keeps each member outside the span of those before it.  On the
    way, the witness is drawn from lam and its span holds every member of
    lam, as it is maximal."""
    witness = max_dissociated(g, lam)
    assert set(witness.members.tolist()) <= set(lam)
    assert witness.span_mask[np.array(lam, dtype=np.int64)].all()
    return len(witness) == len(lam)


def test_dissociated_small_cases():
    g = make_group((10,))
    g20 = make_group((20,))
    cases = [
        (g, [1, 2, 3], False),  # 1 + 2 - 3 = 0
        (g20, [1, 2, 5], True),
        (g20, [], True),
        (g20, [0], False),
        (g20, [7, 13], False),  # 7 + 13 = 0 mod 20
    ]
    for grp, lam, want in cases:
        assert dissociated_direct(grp, lam) == want
        assert _keeps_all(grp, lam) == want


def test_dissociated_matches_brute_enumeration():
    g = make_group((24,))
    rng = random.Random(41)
    for _ in range(40):
        lam = rng.sample(range(1, 24), rng.randrange(1, 5))
        assert _keeps_all(g, lam) == dissociated_direct(g, lam)


def test_max_dissociated_in_an_interval():
    g = make_group((100,))
    witness = max_dissociated(g, list(range(1, 9)))
    assert witness.mode == "greedy"
    # 4 = log2(8) + 1 is the ceiling for {1..8}: any 5th element is a
    # {0,1}-combination of {1,2,4,8} shifted by signs
    assert witness.members.tolist() == [1, 2, 4, 8]
    assert dissociated_direct(g, witness.members)


def test_max_dissociated_boolean_is_rank():
    g = boolean_group(6)
    cands = [0b000011, 0b000101, 0b000110, 0b111000, 0b100000]
    witness = max_dissociated(g, cands)
    assert witness.mode == "exact"
    assert len(witness) == 4
    # the witness keeps the span mask its search grew by XOR
    assert np.flatnonzero(witness.span_mask).tolist() == sorted(span_direct(g, witness.members))
    assert set(witness.span.members.tolist()) == span_direct(g, witness.members)


def test_max_dissociated_weights_steer_greedy_order():
    g = make_group((50,))
    witness = max_dissociated(g, [25, 24, *range(1, 24)])
    assert witness.mode == "greedy"
    assert witness.members[0] == 25
    assert dissociated_direct(g, witness.members)
    with pytest.raises(ValueError, match="weight table has shape"):
        max_dissociated(g, weights=np.zeros(49))


def _assert_span_is_direct(g, witness, lam):
    """The span the witness grew is span_direct of its members, and holds
    every candidate of lam, as the witness is maximal."""
    reach = span_direct(g, witness.members)
    assert witness.span.members.tolist() == sorted(reach)
    assert set(lam) <= reach


def test_span_frozen_examples():
    g7 = make_group((7,))
    assert set(max_dissociated(g7, [1]).span.members) == {0, 1, 6}
    g20 = make_group((20,))
    got = max_dissociated(g20, [1, 3])
    assert got.members.tolist() == [1, 3]
    assert set(got.span.members) == {0, 1, 19, 3, 17, 4, 16, 2, 18}
    assert len(got.span) == 9


def test_span_matches_brute():
    rng = random.Random(42)
    for factors in [(30,), (4, 6)]:
        g = make_group(factors)
        for _ in range(15):
            lam = rng.sample(range(1, g.order), rng.randrange(1, 4))
            _assert_span_is_direct(g, max_dissociated(g, lam), lam)


def test_span_boolean_is_linear_span():
    g = boolean_group(5)
    got = max_dissociated(g, [0b00011, 0b00101])
    assert set(got.span.members) == {0, 3, 5, 6}


def test_spectrum_exact_on_boolean_int_tables():
    g = boolean_group(4)
    H = group_set(g, range(4))
    f = indicator(g, H.members)
    spec = spectrum(f, Fraction(1, 2))
    # indicator of a subgroup: fhat = |H| on the perp, 0 elsewhere
    assert set(spec.members) == {0, 4, 8, 12}
    assert magnitudes(dft(f).values)[spec.members].tolist() == [4, 4, 4, 4]
    # |fhat| = 3, 1, 1, 1 against eps * L1 = 3/2 and 1: the cut is ceil(eps * L1)
    f = indicator(boolean_group(2), [0, 1, 2])
    assert spectrum(f, Fraction(1, 2)).members.tolist() == [0]
    assert spectrum(f, Fraction(1, 3)).members.tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "g, support",
    [(boolean_group(3), [0, 1, 2, 3]), (boolean_group(6), [0, 1, 2, 3, 5, 8, 13, 21]),
     (make_group((40,)), [0, 1, 2, 3, 20, 21]), (make_group((64,)), [0, 1, 2, 3, 32, 33]),
     (make_group((6, 8)), [0, 1, 2, 9])],
    ids=["F2^3", "F2^6", "Z40", "Z64", "Z6xZ8"],
)
def test_spectrum_witness_picks_heaviest_first_ties_by_index(g, support):
    f = indicator(g, support)
    spec = spectrum(f, Fraction(1, 4))
    mags = magnitudes(dft(f).values)
    assert spec.members.tolist() == [t for t in range(g.order) if spec.weights[t] >= 0]  # ascending, unsorted by weight
    assert spec.weights[spec.members].tolist() == mags[spec.members].tolist()
    heaviest_first = sorted(spec.members.tolist(), key=lambda t: (-mags[t], t))
    witness = max_dissociated(g, weights=spec.weights)
    assert witness.members.tolist() == max_dissociated(g, heaviest_first).members.tolist()
    # one argmax per pick: the greedy walks the spectrum heaviest first, ties by index
    assert witness.mode == ("exact" if g.is_boolean_space else "greedy")
    assert witness.members.tolist() == greedy_dissociated_direct(g, heaviest_first)


def test_spectrum_general_group_includes_borderline():
    g = make_group((12,))
    f = FunctionTable(g, [1] * 3 + [0] * 9, "int")
    spec = spectrum(f, Fraction(1, 3))
    assert 0 in spec.members


def test_spectrum_keeps_a_coefficient_at_the_cut_that_computes_below_it():
    # on Z48, fhat(12) is a Gaussian integer of modulus exactly 1 = eps * |A|,
    # which the float transform gives as 0.9999999999999999: only the proven
    # transform error keeps 12 in Spec_eps
    A = group_set(make_group((48,)), [0, 6, 13, 20, 25, 26, 33, 40, 42, 43, 47])
    f = A.indicator()
    assert magnitudes(dft(f).values)[12] < 1
    assert 12 in spectrum(f, Fraction(1, 11)).members


def test_at_least_steps_a_float_cut_up_to_the_exact_one():
    # float(1/3) lies below 1/3, so it must not pass the cut 1/3
    third = Fraction(1, 3)
    assert float(third) < third
    assert spectral._at_least(np.array([float(third)]), third).tolist() == [False]
    assert spectral._at_least(np.array([math.nextafter(float(third), 1)]), third).tolist() == [True]


def test_spectrum_threshold_validation():
    g = make_group((6,))
    f = FunctionTable(g, [1, 0, 0, 0, 0, 0], "int")
    with pytest.raises(ValueError):
        spectrum(f, Fraction(3, 2))
    with pytest.raises(ValueError):
        spectrum(FunctionTable(g, [0] * 6, "int"), Fraction(1, 2))


def test_spectrum_membership_against_direct_transform():
    g = make_group((21,))
    rng = random.Random(43)
    values = [rng.randrange(-3, 4) for _ in range(21)]
    f = FunctionTable(g, values, "int")
    eps = Fraction(1, 3)
    spec = spectrum(f, eps)
    from .oracles import dft_direct

    fhat = dft_direct(g, values)
    l1 = sum(abs(v) for v in values)
    for t in range(21):
        mag = abs(fhat[t])
        if mag > float(eps) * l1 + 1e-6:
            assert t in spec.members
        if mag < float(eps) * l1 - 1e-6:
            assert t not in spec.members


def test_chang_bound_audit_on_subgroup_indicator():
    g = boolean_group(6)
    H = group_set(g, range(8))
    f = indicator(g, H.members)
    spec = spectrum(f, Fraction(1, 2))
    rep = chang_bound(f, spec, max_dissociated(g, spec.members))
    assert rep.ok is True
    assert rep.dim <= rep.bound
    assert rep.spectrum_size == 8


def test_chang_bound_reads_membership_off_the_weight_table():
    g = make_group((60,))
    f = indicator(g, [0, 1, 2, 3, 20, 21, 40])
    spec = spectrum(f, Fraction(1, 4))
    witness = max_dissociated(g, weights=spec.weights)
    assert chang_bound(f, spec, witness).dim == len(witness)
    # a member of weight exactly 0 is still in the spectrum
    weights = np.array(spec.weights)
    weights[witness.members[-1]] = 0
    tied = Spectrum(g, spec.eps, spec.members, read_only(weights.copy()))
    assert chang_bound(f, tied, witness).dim == len(witness)
    weights[witness.members[-1]] = -1
    with pytest.raises(ValueError, match="not drawn from"):
        chang_bound(f, Spectrum(g, spec.eps, spec.members, read_only(weights)), witness)


def test_chang_bound_reuses_a_matching_spectrum_and_witness():
    g = make_group((60,))
    f = indicator(g, [0, 1, 2, 3, 20, 21, 40])
    eps = Fraction(1, 4)
    spec = spectrum(f, eps)
    witness = max_dissociated(g, list(spec.members))
    rep = chang_bound(f, spec, witness)
    assert (rep.eps, rep.spectrum_size, rep.dim, rep.witness_mode) == (eps, len(spec), len(witness), witness.mode)
    ratio = float(f.l2_squared()) * g.order / float(f.l1()) ** 2
    assert rep.c_chang == CHANG_AUDIT_CONSTANT
    assert rep.bound == float(CHANG_AUDIT_CONSTANT) * float(eps) ** -2 * math.log(ratio)
    assert rep.ok is (rep.dim <= max(1.0, rep.bound))
    outside = next(t for t in range(1, g.order) if t not in spec.members)
    stray = max_dissociated(g, [outside])
    with pytest.raises(ValueError, match="not drawn from"):
        chang_bound(f, spec, stray)
    other = max_dissociated(make_group((61,)), list(spec.members))
    with pytest.raises(ValueError, match="not drawn from"):
        chang_bound(f, spec, other)
    elsewhere = spectrum(indicator(make_group((61,)), [0, 1, 2]), eps)
    with pytest.raises(ValueError, match="not Spec_eps"):
        chang_bound(f, elsewhere, witness)


GENERAL_GROUPS = [make_group(f) for f in [(97,), (128,), (6, 10), (4, 4, 5)]]


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_greedy_witness_is_dissociated_and_spans_every_candidate(data):
    g = data.draw(st.sampled_from(GENERAL_GROUPS), label="group")
    cands = data.draw(
        st.lists(st.integers(1, g.order - 1), min_size=25, max_size=40, unique=True), label="cands"
    )
    weights = {c: data.draw(st.floats(0, 1), label="weight") for c in cands[::3]}
    witness = max_dissociated(g, sorted(cands, key=lambda c: (-weights.get(c, 0.0), c)))
    assert witness.mode == "greedy"
    assert set(witness.members) <= set(cands)
    assert dissociated_direct(g, witness.members)
    reach = span_direct(g, witness.members)
    assert all(c in reach for c in cands)
    # greedy keeps the heaviest candidate, ties broken by index
    assert witness.members[0] == min(cands, key=lambda c: (-weights.get(c, 0.0), c))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_span_matches_brute_property(data):
    g = data.draw(st.sampled_from(GENERAL_GROUPS), label="group")
    lam = data.draw(st.lists(st.integers(0, g.order - 1), max_size=8, unique=True), label="lam")
    witness = max_dissociated(g, lam)
    _assert_span_is_direct(g, witness, lam)
    assert (len(witness) == len(lam)) == dissociated_direct(g, lam)


def _powers(base: int, k: int) -> list[int]:
    return [base**i for i in range(k)]


@pytest.mark.parametrize("k", [13, 16, 20])
def test_meet_in_the_middle_on_known_dissociated_sets(k):
    # distinct powers of 2 have no vanishing signed sum below 2^k
    g = make_group((1 << k,))
    lam = _powers(2, k)
    witness = max_dissociated(g, lam)
    assert witness.members.tolist() == lam
    # signed binary sums of 2^0..2^(k-1) reach every residue mod 2^k
    assert witness.span_mask.all()
    # the sum of the first and the last power adds a relation across both halves
    assert not _keeps_all(g, lam[:-1] + [lam[0] + lam[-2]])


def test_meet_in_the_middle_on_a_product_group():
    g = make_group((3**7, 3**7))
    # balanced ternary: powers of 3 in one coordinate never cancel below 3^7
    lam = [g.index((3**i, 0)) for i in range(7)] + [g.index((0, 3**i)) for i in range(7)]
    witness = max_dissociated(g, lam)
    assert witness.members.tolist() == lam
    # balanced ternary reaches every residue mod 3^7 in each coordinate, so
    # the 3^14 signed sums fill the 3^14 elements, no two of them equal
    assert witness.span_mask.all()
    # (1, 0) + (0, 3^5) + (0, 1) - (1, 3^5 + 1) = 0
    assert not _keeps_all(g, lam[:-1] + [g.index((1, 3**5 + 1))])


@pytest.mark.parametrize("factors, k", [((1 << 21,), 13), ((1 << 21,), 14), ((1024, 2048), 13)])
def test_meet_in_the_middle_matches_full_enumeration(factors, k):
    g = make_group(factors)
    rng = random.Random(k * g.order)
    verdicts = set()
    for _ in range(6):
        lam = rng.sample(range(1, g.order), k)
        want = vanishing_signed_sums(g, lam) == 1
        assert _keeps_all(g, lam) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_is_dissociated_past_twenty_characters():
    # 2^0..2^20 in Z_{2^22}: every nonzero signed sum has size below 2^21
    g = make_group((1 << 22,))
    lam = _powers(2, 21)
    witness = max_dissociated(g, lam)
    assert witness.members.tolist() == lam
    # every signed sum lies strictly between -2^21 and 2^21, and reaches
    # every integer there: all of the group but 2^21
    assert np.flatnonzero(~witness.span_mask).tolist() == [1 << 21]
    assert not _keeps_all(g, lam[:-1] + [lam[3] + lam[17]])


def test_span_of_thirteen_characters_matches_brute():
    g = make_group((101,))
    lam = [1, 3, 7, 12, 20, 33, 41, 50, 58, 66, 77, 89, 95]
    witness = max_dissociated(g, lam)
    assert witness.members.tolist() == greedy_dissociated_direct(g, lam)
    assert dissociated_direct(g, witness.members)
    _assert_span_is_direct(g, witness, lam)


SMALL_GROUPS = [boolean_group(5), make_group((4, 6)), make_group((2, 3, 3))]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_is_dissociated_matches_brute_property(data):
    g = data.draw(st.sampled_from(SMALL_GROUPS), label="group")
    lam = data.draw(st.lists(st.integers(0, g.order - 1), max_size=6, unique=True), label="lam")
    assert _keeps_all(g, lam) == dissociated_direct(g, lam)
    if lam:  # a repeat is the relation x - x = 0
        assert not _keeps_all(g, lam + lam[-1:])


def test_max_dissociated_on_2_groups_ignores_zeros_and_repeats():
    g = boolean_group(10)
    rng = random.Random(10)
    for _ in range(20):
        cands = rng.sample(range(1, g.order), rng.randrange(1, 40))
        noisy = []
        for c in cands:  # zeros anywhere, each repeat after its first place
            noisy.append(c)
            noisy.extend(rng.choice([0, rng.choice(noisy)]) for _ in range(rng.randrange(3)))
        clean = max_dissociated(g, cands)
        got = max_dissociated(g, noisy)
        assert (got.members.tolist(), got.mode) == (clean.members.tolist(), clean.mode)
        # on a 2-group the members are independent iff their span has 2^k members
        reach = span_direct(g, clean.members)
        assert clean.mode == "exact" and len(reach) == 1 << len(clean)
        assert np.flatnonzero(clean.span_mask).tolist() == sorted(reach)


# cyclic, rank 2, and rank 3 and 4 with a factor-2 axis
GREEDY_GROUPS = [make_group(f) for f in [(97,), (128,), (6, 10), (2, 5, 6), (2, 3, 4, 5)]]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_max_dissociated_picks_what_a_sequential_greedy_picks(data):
    g = data.draw(st.sampled_from(GREEDY_GROUPS), label="group")
    size = data.draw(st.integers(1, 40), label="distinct")
    pool = data.draw(st.lists(st.integers(1, g.order - 1), min_size=size, max_size=size, unique=True), label="pool")
    extra = data.draw(st.lists(st.sampled_from([0, *pool]), max_size=2 * size), label="repeats and zeros")
    cands = data.draw(st.permutations(pool + extra), label="cands")
    witness = max_dissociated(g, cands)
    assert witness.mode == "greedy"
    assert witness.members.tolist() == greedy_dissociated_direct(g, cands)
    # the span the search grew is the witness's span
    assert set(witness.span.members.tolist()) == span_direct(g, witness.members)


@pytest.mark.parametrize("factors", [(4096,), (2, 32, 64)])
def test_greedy_scan_on_a_long_candidate_list(factors):
    g = make_group(factors)
    rng = random.Random(g.order + len(factors))
    pool = rng.sample(range(1, g.order), 700)
    cands = pool + [rng.choice(pool) for _ in range(400)] + [0] * 20
    rng.shuffle(cands)
    witness = max_dissociated(g, np.array(cands))
    assert witness.mode == "greedy"
    assert witness.members.tolist() == greedy_dissociated_direct(g, cands)
    assert set(witness.span.members.tolist()) == span_direct(g, witness.members)


def test_each_pick_grows_the_span_once(monkeypatch):
    # 24 random candidates of Z_4096: one span pass per member picked, and
    # none for a candidate left out
    g = make_group((4096,))
    cands = random.Random(4096).sample(range(1, g.order), 24)
    calls, grow = [], spectral._grow

    def counted(*args):
        calls.append(args[2])
        return grow(*args)

    monkeypatch.setattr(spectral, "_grow", counted)
    witness = max_dissociated(g, cands)
    assert calls == witness.members.tolist() == greedy_dissociated_direct(g, cands)


def test_few_distinct_candidates_in_a_long_list_give_their_own_witness():
    g = make_group((4096,))
    rng = random.Random(24)
    distinct = rng.sample(range(1, g.order), 18)
    raw = distinct + [rng.choice([0, *distinct]) for _ in range(2000)]
    witness = max_dissociated(g, raw)
    assert witness.members.tolist() == max_dissociated(g, distinct).members.tolist()
    assert witness.members.tolist() == greedy_dissociated_direct(g, distinct)
    assert dissociated_direct(g, witness.members)
    assert set(witness.span.members.tolist()) == span_direct(g, witness.members)


EDGE_GROUPS = [make_group(f) for f in [(65536,), (4, 6, 8, 16), (2, 4, 8)]]


@pytest.mark.parametrize("g", EDGE_GROUPS, ids=lambda g: "x".join(f"Z{n}" for n in g.factors))
def test_span_kernel_at_the_edges(g):
    rng = random.Random(g.order)
    lams = [rng.sample(range(1, g.order), k) for k in range(1, 8)]
    # members that leave some axes alone, and an element of order 2
    axis_units = [g.index(tuple(int(j == i) for j in range(g.rank))) for i in range(g.rank)]
    half = g.index(tuple(n // 2 for n in g.factors))
    lams += [axis_units, [half, *axis_units[:1]], [axis_units[-1], half]]
    for lam in lams:
        witness = max_dissociated(g, lam)
        _assert_span_is_direct(g, witness, lam)
        assert (len(witness) == len(lam)) == dissociated_direct(g, lam)


# cyclic, a product with a factor-2 axis, and 2-groups
WEIGHTED_GROUPS = [make_group(f) for f in [(97,), (128,), (4, 6, 5), (2, 3, 4, 5)]]
WEIGHTED_GROUPS += [boolean_group(n) for n in (5, 7)]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_witness_of_a_weight_table_is_the_heaviest_first_greedy(data):
    g = data.draw(st.sampled_from(WEIGHTED_GROUPS), label="group")
    size = data.draw(st.sampled_from([1, 4, 6, 12, 24, 25, 40, g.order]), label="candidates")
    cands = data.draw(st.permutations(range(g.order)), label="order")[: min(size, g.order)]
    # few distinct weights, so ties are forced; int64 weights on 2-groups, doubles elsewhere
    levels = [0, 1, 2] if g.is_boolean_space else [0.0, 0.5, 1.0, 2.5]
    weights = np.full(g.order, -1, dtype=np.int64 if g.is_boolean_space else np.float64)
    for t in cands:
        weights[t] = data.draw(st.sampled_from(levels), label="weight")
    heaviest_first = sorted(cands, key=lambda t: (-weights[t], t))
    witness = max_dissociated(g, weights=weights)
    # one argmax per pick: the first candidate outside the span in (-weight, index) order
    assert witness.mode == ("exact" if g.is_boolean_space else "greedy")
    assert witness.members.tolist() == greedy_dissociated_direct(g, heaviest_first)
    # the table and the sequence in (-weight, index) order are the same input
    seq = max_dissociated(g, heaviest_first)
    assert (seq.members.tolist(), seq.mode) == (witness.members.tolist(), witness.mode)
    assert np.flatnonzero(witness.span_mask).tolist() == sorted(span_direct(g, witness.members))
    assert weights[witness.members].min(initial=0) >= 0
