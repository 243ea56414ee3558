from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb.groups import boolean_group, make_group
from addcomb.harmonic import indicator, table_from_values
from addcomb.setstat import group_set
from addcomb.spectral import (
    chang_bound,
    is_dissociated,
    max_dissociated,
    span,
    spectrum,
)

from .oracles import dissociated_direct, span_direct, vanishing_signed_sums


def test_dissociated_small_cases():
    g = make_group((10,))
    assert not is_dissociated(g, [1, 2, 3])  # 1 + 2 - 3 = 0
    g20 = make_group((20,))
    assert is_dissociated(g20, [1, 2, 5])
    assert is_dissociated(g20, [])
    assert not is_dissociated(g20, [0])
    assert not is_dissociated(g20, [7, 13])  # 7 + 13 = 0 mod 20


def test_dissociated_matches_brute_enumeration():
    g = make_group((24,))
    rng = random.Random(41)
    for _ in range(40):
        lam = rng.sample(range(1, 24), rng.randrange(1, 5))
        assert is_dissociated(g, lam) == dissociated_direct(g, lam)


def test_max_dissociated_in_an_interval():
    g = make_group((100,))
    witness = max_dissociated(g, list(range(1, 9)))
    assert witness.mode == "exact"
    # 4 = log2(8) + 1 is the ceiling for {1..8}: any 5th element is a
    # {0,1}-combination of {1,2,4,8} shifted by signs
    assert len(witness) == 4
    assert is_dissociated(g, witness.members)


def test_max_dissociated_boolean_is_rank():
    g = boolean_group(6)
    cands = [0b000011, 0b000101, 0b000110, 0b111000, 0b100000]
    witness = max_dissociated(g, cands)
    assert witness.mode == "exact"
    assert len(witness) == 4


def test_max_dissociated_weights_steer_greedy_order():
    g = make_group((50,))
    witness = max_dissociated(g, [25, 24, *range(1, 24)])
    assert witness.mode == "greedy"
    assert witness.members[0] == 25
    assert is_dissociated(g, witness.members)


def test_span_frozen_examples():
    g7 = make_group((7,))
    assert set(span(g7, [1]).members) == {0, 1, 6}
    g20 = make_group((20,))
    got = span(g20, [1, 3])
    assert set(got.members) == {0, 1, 19, 3, 17, 4, 16, 2, 18}
    assert len(got) == 9


def test_span_matches_brute():
    rng = random.Random(42)
    for factors in [(30,), (4, 6)]:
        g = make_group(factors)
        for _ in range(15):
            lam = rng.sample(range(1, g.order), rng.randrange(1, 4))
            assert set(span(g, lam).members) == span_direct(g, lam)


def test_span_boolean_is_linear_span():
    g = boolean_group(5)
    got = span(g, [0b00011, 0b00101])
    assert set(got.members) == {0, 3, 5, 6}


def test_spectrum_exact_on_boolean_int_tables():
    g = boolean_group(4)
    H = group_set(g, range(4))
    spec = spectrum(indicator(g, H.members), Fraction(1, 2))
    assert spec.exact
    # indicator of a subgroup: fhat = |H| on the perp, 0 elsewhere
    assert set(spec.members) == {0, 4, 8, 12}
    assert spec.magnitudes[0] == 4.0
    assert spec.borderline.tolist() == []
    # |fhat| = 3, 1, 1, 1 against eps * L1 = 3/2 and 1: the cut is ceil(eps * L1)
    f = indicator(boolean_group(2), [0, 1, 2])
    assert spectrum(f, Fraction(1, 2)).members.tolist() == [0]
    assert spectrum(f, Fraction(1, 3)).members.tolist() == [0, 1, 2, 3]


def test_spectrum_sorted_heaviest_first_ties_by_index():
    g = boolean_group(3)
    spec = spectrum(indicator(g, [0, 1, 2, 3]), Fraction(1, 4))
    assert list(spec.magnitudes) == sorted(spec.magnitudes, reverse=True)
    top = [t for t, m in zip(spec.members, spec.magnitudes) if m == spec.magnitudes[0]]
    assert top == sorted(top)


def test_spectrum_general_group_includes_borderline():
    g = make_group((12,))
    f = table_from_values(g, [1] * 3 + [0] * 9, kind="int")
    spec = spectrum(f, Fraction(1, 3))
    assert 0 in spec.members
    assert not spec.exact


def test_spectrum_threshold_validation():
    g = make_group((6,))
    f = table_from_values(g, [1, 0, 0, 0, 0, 0], kind="int")
    with pytest.raises(ValueError):
        spectrum(f, Fraction(3, 2))
    with pytest.raises(ValueError):
        spectrum(table_from_values(g, [0] * 6, kind="int"), Fraction(1, 2))


def test_spectrum_membership_against_direct_transform():
    g = make_group((21,))
    rng = random.Random(43)
    values = [rng.randrange(-3, 4) for _ in range(21)]
    f = table_from_values(g, values, kind="int")
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
    rep = chang_bound(indicator(g, H.members), Fraction(1, 2))
    assert rep.ok is True
    assert rep.dim <= rep.bound
    assert rep.spectrum_size == 8


def test_chang_bound_below_audit_floor_is_diagnostic():
    g = boolean_group(4)
    rep = chang_bound(indicator(g, [0, 1]), Fraction(1, 2), c_chang=Fraction(1, 100))
    assert rep.ok is None


def test_chang_bound_reuses_a_matching_spectrum_and_witness():
    g = make_group((60,))
    f = indicator(g, [0, 1, 2, 3, 20, 21, 40])
    eps = Fraction(1, 4)
    spec = spectrum(f, eps)
    witness = max_dissociated(g, list(spec.members))
    assert chang_bound(f, eps, spec=spec, witness=witness) == chang_bound(f, eps)
    with pytest.raises(ValueError, match="needs its spectrum"):
        chang_bound(f, eps, witness=witness)
    outside = next(t for t in range(1, g.order) if t not in spec.members)
    stray = max_dissociated(g, [outside])
    with pytest.raises(ValueError, match="not drawn from"):
        chang_bound(f, eps, spec=spec, witness=stray)
    other = max_dissociated(make_group((61,)), list(spec.members))
    with pytest.raises(ValueError, match="not drawn from"):
        chang_bound(f, eps, spec=spec, witness=other)
    with pytest.raises(ValueError, match="not Spec_eps"):
        chang_bound(f, Fraction(1, 3), spec=spec, witness=witness)


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
    assert witness.certified_size == len(witness.members)
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
    got = span(g, lam)
    assert list(got.members) == sorted(span_direct(g, lam))


def _powers(base: int, k: int) -> list[int]:
    return [base**i for i in range(k)]


@pytest.mark.parametrize("k", [13, 16, 20])
def test_meet_in_the_middle_on_known_dissociated_sets(k):
    # distinct powers of 2 have no vanishing signed sum below 2^k
    g = make_group((1 << k,))
    lam = _powers(2, k)
    assert is_dissociated(g, lam)
    # the sum of the first and the last power adds a relation across both halves
    assert not is_dissociated(g, lam[:-1] + [lam[0] + lam[-2]])


def test_meet_in_the_middle_on_a_product_group():
    g = make_group((3**7, 3**7))
    # balanced ternary: powers of 3 in one coordinate never cancel below 3^7
    lam = [g.index((3**i, 0)) for i in range(7)] + [g.index((0, 3**i)) for i in range(7)]
    assert is_dissociated(g, lam)
    # (1, 0) + (0, 3^5) + (0, 1) - (1, 3^5 + 1) = 0
    assert not is_dissociated(g, lam[:-1] + [g.index((1, 3**5 + 1))])


@pytest.mark.parametrize("factors, k", [((1 << 21,), 13), ((1 << 21,), 14), ((1024, 2048), 13)])
def test_meet_in_the_middle_matches_full_enumeration(factors, k):
    g = make_group(factors)
    rng = random.Random(k * g.order)
    verdicts = set()
    for _ in range(6):
        lam = rng.sample(range(1, g.order), k)
        want = vanishing_signed_sums(g, lam) == 1
        assert is_dissociated(g, lam) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_is_dissociated_past_twenty_characters():
    # 2^0..2^20 in Z_{2^22}: every nonzero signed sum has size below 2^21
    g = make_group((1 << 22,))
    lam = _powers(2, 21)
    assert is_dissociated(g, lam)
    assert not is_dissociated(g, lam[:-1] + [lam[3] + lam[17]])


def test_span_of_thirteen_characters_matches_brute():
    g = make_group((101,))
    lam = [1, 3, 7, 12, 20, 33, 41, 50, 58, 66, 77, 89, 95]
    assert set(span(g, lam).members) == span_direct(g, lam)


SMALL_GROUPS = [boolean_group(5), make_group((4, 6)), make_group((2, 3, 3))]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_is_dissociated_matches_brute_property(data):
    g = data.draw(st.sampled_from(SMALL_GROUPS), label="group")
    lam = data.draw(st.lists(st.integers(0, g.order - 1), max_size=6, unique=True), label="lam")
    assert is_dissociated(g, lam) == dissociated_direct(g, lam)
    if lam:  # a repeat is the relation x - x = 0
        assert not is_dissociated(g, lam + lam[-1:])


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
        assert (got.members.tolist(), got.mode, got.certified_size) == (
            clean.members.tolist(), clean.mode, clean.certified_size
        )
        assert clean.mode == "exact" and is_dissociated(g, clean.members)
