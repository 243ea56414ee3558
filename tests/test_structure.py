from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addcomb import f2, setstat, spectral, structure
from addcomb.bohr import find_regular_radius, materialize
from addcomb.cli import main
from addcomb.families import make_h_lambda, make_planted, HLambdaSpec
from addcomb.fileio import write_set
from addcomb.groups import SizeLimitError, boolean_group, make_group
from addcomb.harmonic import FunctionTable
from addcomb.harness import structure_result_dict
from addcomb.report import CheckFailure, format_value
from addcomb.setstat import (
    corr_counts,
    group_set,
    higher_energy,
)
from addcomb.spectral import DissociatedWitness
from addcomb.structure import (
    NoJump,
    StructureParams,
    certify_difference_subset,
    check_hypotheses,
    derive_params,
    dichotomy_M,
    extract,
    find_energy_jump,
    phi_k,
    regularize_density,
)

from .oracles import (
    bohr_members_int_direct,
    corr_direct,
    difference_direct,
    element_add,
    f2_rank,
    greedy_dissociated_direct,
    span_direct,
    span_mass_direct,
    translate_direct,
    walsh_direct,
)


def _subgroup(n, dim):
    return group_set(boolean_group(n), range(1 << dim))


def _count_overlap(B, piece_members, z):
    g = B.group
    b = set(B.members.tolist())
    return sum(1 for s in piece_members.tolist() if element_add(g, s, z) in b)


def test_params_validation():
    with pytest.raises(ValueError):
        StructureParams(m=1, m_prime=1, kappa=1, zeta=0, t=2)
    with pytest.raises(ValueError):
        StructureParams(m=1, m_prime=1, kappa=1, zeta=Fraction(1, 8), t=1)
    with pytest.raises(ValueError):
        StructureParams(m=0, m_prime=1, kappa=1, zeta=Fraction(1, 8), t=2)
    p = StructureParams(m=2, m_prime=4, kappa=1, zeta=Fraction(1, 8), t=2, omega=Fraction(1, 2))
    assert p.m_star == (2 + 1) * 2 * 2
    assert p.k0 >= structure._K0_PAD


def _k0_by_loop(p: StructureParams) -> int:
    """k0 by its definition: the least e with t^e >= y^pad, y = m'(m+kappa)/omega,
    found one power at a time in integers, plus pad."""
    pad = structure._K0_PAD
    y = p.m_prime * (p.m + p.kappa) / p.omega
    lhs, rhs = y.denominator**pad, y.numerator**pad  # t^e y_den^pad vs t_den^e y_num^pad
    e = 0
    while lhs < rhs:
        lhs *= p.t.numerator
        rhs *= p.t.denominator
        e += 1
    return e + pad


def test_k0_matches_the_power_loop():
    grid = [
        StructureParams(m=m, m_prime=1, kappa=1, zeta=Fraction(1, 8), t=t)
        for t in (2, Fraction(3, 2), Fraction(1001, 1000))
        for m in (1, 3, Fraction(7, 3), 50)
    ]
    # y <= 1, and t = y just above 1 (derive_params closes the t-window so)
    y = 1 + Fraction(1, 10**30)
    grid.append(StructureParams(m=Fraction(1, 4), m_prime=1, kappa=Fraction(1, 4), zeta=Fraction(1, 8), t=2))
    grid.append(StructureParams(m=1, m_prime=1, kappa=1, zeta=Fraction(1, 8), t=y, omega=2 / y))
    for p in grid:
        assert p.k0 == _k0_by_loop(p), p
    assert grid[-2].k0 == structure._K0_PAD
    assert grid[-1].k0 == 2 * structure._K0_PAD


@given(
    m=st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=1000),
    m_prime=st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=1000),
    kappa=st.fractions(min_value=Fraction(1, 100), max_value=10, max_denominator=1000),
    t=st.one_of(
        st.integers(2, 9).map(Fraction),
        st.fractions(min_value=Fraction(11, 10), max_value=4, max_denominator=10**6).filter(lambda t: t > 1),
    ),
)
@example(m=1, m_prime=2, kappa=1, t=Fraction(4))
@example(m=Fraction(3, 2), m_prime=Fraction(3, 2), kappa=Fraction(3, 4), t=Fraction(3, 2))
@settings(max_examples=150, deadline=None)
def test_k0_bracket_matches_the_power_loop(m, m_prime, kappa, t):
    # the examples put y = m'(m + kappa) on a power of t (4 = 4 and
    # 27/8 = (3/2)^3): ties that the log bounds leave to exact powers
    p = StructureParams(m=m, m_prime=m_prime, kappa=kappa, zeta=Fraction(1, 8), t=t)
    assert p.k0 == _k0_by_loop(p)


@pytest.mark.parametrize("t", [Fraction("1.000001"), 1 + Fraction(1, 10**300)])
def test_k0_past_the_cap_is_refused_before_a_power_is_formed(t, monkeypatch):
    p = StructureParams(m=2, m_prime=4, kappa=1, zeta=Fraction(1, 8), t=t)
    exponents = []
    real = Fraction.__pow__

    def recording(self, other, *args):
        exponents.append(other)
        return real(self, other, *args)

    monkeypatch.setattr(Fraction, "__pow__", recording)
    with pytest.raises(SizeLimitError, match="k0 past the cap"):
        p.k0
    assert max(map(abs, exponents), default=0) <= 64


def test_k0_at_the_cap():
    # y = t = 2: t^e = y^pad at e = pad, a tie that exact powers settle, so
    # k0 = 2 pad; a cap of 2 pad admits it, and one below refuses it
    p = StructureParams(m=1, m_prime=1, kappa=1, zeta=Fraction(1, 8), t=2)
    assert p.k0 == _k0_by_loop(p) == 2 * structure._K0_PAD
    with mock.patch.object(structure, "_K0_MAX", 2 * structure._K0_PAD):
        assert p.k0 == 2 * structure._K0_PAD
    with mock.patch.object(structure, "_K0_MAX", 2 * structure._K0_PAD - 1):
        with pytest.raises(SizeLimitError):
            p.k0


def test_energy_jump_on_a_subgroup_is_immediate():
    H = _subgroup(8, 3)
    params = StructureParams(m=1, m_prime=2, kappa=1, zeta=Fraction(1, 8), t=2)
    jump = find_energy_jump(H, params)
    # subgroup: (H o H) = |H| on H, so E_{k+1} = |H| E_k exactly
    assert jump.k == 2
    assert jump.e_next == len(H) * jump.e_k


def test_energy_jump_values_match_energy_table():
    g = make_group((24,))
    A = group_set(g, [0, 1, 3, 7, 12, 20])
    params = StructureParams(m=3, m_prime=6, kappa=1, zeta=Fraction(1, 8), t=2)
    jump = find_energy_jump(A, params)
    assert jump.e_k == higher_energy(A, jump.k)
    assert jump.e_next == higher_energy(A, jump.k + 1)
    assert jump.e_next * jump.m_star >= len(A) * jump.e_k


def test_no_jump_when_m_star_below_one():
    # E_{k+1} <= |B| E_k always, so m_star < 1 admits no jump
    g = make_group((24,))
    rng = random.Random(1)
    A = group_set(g, rng.sample(range(24), 8))
    params = StructureParams(
        m=Fraction(1, 10), m_prime=Fraction(1, 5), kappa=Fraction(1, 10),
        zeta=Fraction(1, 8), t=Fraction(3, 2),
    )
    assert params.m_star < 1
    with pytest.raises(NoJump) as exc:
        find_energy_jump(A, params)
    assert exc.value.k0 == params.k0
    # energies list starts at E_1 = b^2
    assert exc.value.energies[0] == len(A) ** 2
    assert exc.value.energies[1] == higher_energy(A, 2)
    assert exc.value.energies[-1] == higher_energy(A, params.k0 + 1)
    # a failed check: the orders k in [2, k0] where the jump held, none, against 1
    assert isinstance(exc.value, CheckFailure) and exc.value.trace is None
    record = exc.value.record
    assert (record.ref, record.ok, record.lhs, record.rhs) == ("structure:energy_jump", False, "0", "1")


def test_phi_k_is_the_correlation_power():
    g = boolean_group(4)
    A = group_set(g, [0, 1, 2, 5, 9])
    corr = corr_direct(A, A)
    phi = phi_k(A, 3)
    assert phi.kind == "int"
    assert list(phi.values) == [v**3 for v in corr]


@pytest.mark.parametrize(
    "members, k",
    [
        ([0, 5, 9], 39),  # E_k = 3^39 + 3 * 2^39, about 0.88 * 2^62
        ([0, 5], 60),  # E_k = 2^61
        ([0, 5], 61),  # E_k = 2^62
        ([0, 5], 62),  # E_k = 2^63: every entry fits int64, the mass does not
        ([0, 5, 9], 40),  # 3^40 passes 2^63
    ],
)
def test_phi_k_is_int64_exactly_below_2_62(members, k):
    B = group_set(boolean_group(4), members)
    e_k = sum(c**k for c in corr_direct(B, B))
    phi = phi_k(B, k)
    assert phi.values.tolist() == [c**k for c in corr_direct(B, B)]
    assert phi.values.dtype == (np.int64 if e_k < 1 << 62 else object)


def _span_mask_direct(g, lam):
    mask = np.zeros(g.order, dtype=bool)
    mask[list(span_direct(g, lam))] = True
    return mask


def test_span_mass_is_exact_past_int64():
    # B is the subgroup annihilated by lam = (1, 6), so |B_hat|^2 = 256 on
    # Span(lam); with phi_hat just above 2^55 every product passes 2^63
    g = boolean_group(6)
    B = group_set(g, [x for x in range(g.order) if x & 1 == 0 and (x >> 1 & 1) == (x >> 2 & 1)])
    phi_values = [(1 << 55) + 977 * (t + 1) for t in range(g.order)]
    phi_hat = FunctionTable(g, phi_values, "int")
    assert phi_hat.values.dtype == np.int64
    params = StructureParams(m=1, m_prime=1, kappa=1, zeta=Fraction(1, 8), t=2)
    jump = structure.EnergyJump(k=2, e_k=1, e_next=1, m_star=params.m_star, k0=params.k0)
    witness = DissociatedWitness(g, (1, 6), _span_mask_direct(g, (1, 6)))
    front = SimpleNamespace(phi_hat=phi_hat, witness=witness, params=params, jump=jump)
    out = structure._bohr_span_diagnostics(B, front)
    b = set(B.members.tolist())
    b_hat = walsh_direct([int(x in b) for x in range(g.order)])
    products = [phi_values[x] * b_hat[x] ** 2 for x in (0, 1, 6, 7)]
    assert min(products) > 1 << 63
    assert out["spectral_mass"].lhs == format_value(Fraction(sum(products)))



@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(12,), (101,), (4, 6), (3, 5, 7), (1024,), (4096,), (64, 64)]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_float_span_mass_has_the_bits_of_the_term_by_term_sum(factors, seed, cancel):
    # a random complex phi_hat, a random B and a random span: the array
    # pass gives the very double of adding w * m**2 one term at a time
    g = make_group(factors)
    rng = random.Random(seed)
    B = group_set(g, rng.sample(range(g.order), rng.randint(1, g.order)))
    phi = [complex(rng.uniform(-1, 1) * 2.0 ** rng.randint(-4, 4), rng.uniform(-1, 1)) for _ in range(g.order)]
    mask = np.array([rng.random() < 0.5 for _ in range(g.order)])
    if cancel:
        # terms near +1, -1, +1, ...: the sum stays near 0, so the last bit
        # of every square shows in it
        for i, t in enumerate(np.flatnonzero(mask).tolist()):
            m = abs(complex(B.transform[t]))
            if m:
                phi[t] = complex((-1) ** i / (m * m), phi[t].imag)
    params = StructureParams(m=1, m_prime=1, kappa=1, zeta=Fraction(1, 8), t=2)
    jump = structure.EnergyJump(k=2, e_k=1, e_next=1, m_star=params.m_star, k0=params.k0)
    front = SimpleNamespace(
        phi_hat=FunctionTable(g, phi, "complex"), params=params, jump=jump,
        witness=DissociatedWitness(g, (1,), mask),
    )
    out = structure._bohr_span_diagnostics(B, front)
    want = span_mass_direct(phi, B.transform, np.flatnonzero(mask).tolist())
    assert out["spectral_mass"].lhs == repr(want)


def test_float_power_squares_as_python_pow_does():
    # the span mass squares by np.float_power(x, 2.0) for Python's x**2
    # (libm pow); np.power(x, 2.0) and x * x round differently on some
    # doubles, and so would a numpy build whose float_power stopped calling pow
    rng = np.random.default_rng(11)
    n = 100_000
    spread = rng.uniform(1, 2, n) * np.exp2(rng.integers(-1074, 512, n).astype(float))
    subnormal = rng.integers(1, 1 << 52, n, dtype=np.uint64).view(np.float64)
    huge = rng.uniform(1, np.sqrt(np.finfo(float).max) / 2.0**511, n) * 2.0**511
    for x in (spread, -spread, subnormal, huge, rng.uniform(0, 1e6, n)):
        want = np.array([v**2 for v in x.tolist()])
        assert np.array_equal(np.float_power(x, 2.0).view(np.uint64), want.view(np.uint64))


def test_bohr_span_mass_on_a_2_group_past_eleven_characters():
    # a random 200-point set of F2^11 has a witness of rank 11, where the
    # span checks once were skipped: the mass over its span is recounted
    # from the pair scan and direct Walsh transforms
    g = boolean_group(11)
    A = group_set(g, random.Random(3).sample(range(g.order), 200))
    params = derive_params(A, A)
    res = extract(A, A, params, bohr=True)
    assert res.variant.dim == 11 and "span_checks" not in res.diagnostics
    k = res.jump.k
    corr = corr_direct(A, A)
    phi_hat = walsh_direct([c**k for c in corr])
    a = set(A.members.tolist())
    a_hat = walsh_direct([int(x in a) for x in range(g.order)])
    span = span_direct(g, structure._pipeline_front(A, A, params).witness.members.tolist())
    mass = sum(phi_hat[x] * a_hat[x] ** 2 for x in span)
    e_k = sum(c**k for c in corr)
    floor = (1 - params.zeta) * params.omega * len(A) * e_k * g.order / (params.t * (params.m + params.kappa))
    rec = res.diagnostics["spectral_mass"]
    assert (rec.lhs, rec.rhs, rec.ok) == (format_value(Fraction(mass)), format_value(floor), mass >= floor)
    assert rec.ok


def test_bohr_witness_on_a_long_progression_is_the_heaviest_first_greedy():
    # 333 consecutive points of Z_1000: heaviest first, the greedy picks
    # 1, 2 and 4 (-1, -2 and ±3 lie in their span), and these span the
    # whole spectrum, so Lambda keeps three members
    g = make_group((1000,))
    A = group_set(g, range(333))
    params = derive_params(A, A)
    res = extract(A, A, params)
    assert res.witness_mode == "greedy" and all(r.ok for r in res.records)
    assert list(res.variant.bohr.spec.gamma) == [1, 2, 4] and res.variant.dim == 3
    front = structure._pipeline_front(A, A, params)
    weights = front.spec.weights
    heaviest_first = sorted(front.spec.members.tolist(), key=lambda t: (-weights[t], t))
    assert front.witness.members.tolist() == greedy_dissociated_direct(g, heaviest_first) == [1, 2, 4]
    assert set(front.spec.members.tolist()) <= span_direct(g, [1, 2, 4])


def test_extract_bohr_reads_the_span_its_witness_grew(monkeypatch):
    # two odd-step progressions of length 48 in Z_4096: a greedy witness
    # with |Lambda| <= 10, so the span checks run
    g = make_group((4096,))
    rng = random.Random(0)
    members = set()
    for _ in range(2):
        start, step = rng.randrange(g.order), rng.randrange(1, g.order, 2)
        members |= {(start + i * step) % g.order for i in range(48)}
    A = group_set(g, sorted(members))
    params = derive_params(A, A)
    res = extract(A, A, params)
    assert res.witness_mode == "greedy" and res.variant.dim <= 10
    assert "spectral_mass" in res.diagnostics
    front = structure._pipeline_front(A, A, params)
    lam = front.witness.members
    mask = _span_mask_direct(g, lam)
    assert np.array_equal(front.witness.span_mask, mask)
    # the record matches one computed from span_direct's mask, with no span grown
    fresh = DissociatedWitness(g, lam, mask)

    def no_growth(*args):
        raise AssertionError("a span was grown outside the witness search")

    monkeypatch.setattr(spectral, "_grow", no_growth)
    want = structure._bohr_span_diagnostics(A, dataclasses.replace(front, witness=fresh))
    assert res.diagnostics["spectral_mass"] == want["spectral_mass"]


def test_check_hypotheses_binds_omega():
    A = _subgroup(8, 3)
    params = derive_params(A, A)
    rep = check_hypotheses(A, A, params)
    assert rep.core_ok
    wrong = StructureParams(
        m=params.m, m_prime=params.m_prime, kappa=params.kappa,
        zeta=params.zeta, t=params.t, omega=Fraction(1, 2),
    )
    rep2 = check_hypotheses(A, A, wrong)
    assert not rep2.core_ok


@st.composite
def _sets_with_a_subset(draw):
    """A 2-group, a cyclic group or a product of order <= 256, a random
    nonempty A and a random nonempty B inside it (A itself, at times)."""
    shape = draw(st.sampled_from(["2-group", "cyclic", "product"]))
    if shape == "2-group":
        factors = (2,) * draw(st.integers(1, 8))
    elif shape == "cyclic":
        factors = (draw(st.integers(2, 256)),)
    else:
        first = draw(st.integers(2, 16))
        factors = (first, draw(st.integers(2, 256 // first)))
    g = make_group(factors)
    members = sorted(draw(st.sets(st.integers(0, g.order - 1), min_size=1, max_size=g.order)))
    A = group_set(g, members)
    if draw(st.booleans()):
        return A, A
    return A, group_set(g, draw(st.sets(st.sampled_from(members), min_size=1)))


@given(_sets_with_a_subset())
@settings(max_examples=150, deadline=None)
def test_derived_params_meet_the_hypotheses_they_are_derived_from(sets):
    A, B = sets
    report = check_hypotheses(A, B, derive_params(A, B))
    assert report.core_ok
    records = {r.ref: r for r in report.records}
    # omega is |B|/|A| and kappa is |A+B|^2/(|A| N): both bind with equality
    for ref in ("structure:omega", "structure:sumset_cap"):
        assert records[ref].ok and records[ref].lhs == records[ref].rhs


def test_the_2_eps_dichotomy_counts_no_sums_of_a_with_minus_a(monkeypatch):
    # |A + (-A)| is |A - A|, which A's own correlation already counts
    A = group_set(make_group((401,)), [7])
    minus = sorted(A.neg().members.tolist())
    real = setstat._pair_counts
    sums = []

    def counting(X, Y, reflect):
        if not reflect:
            sums.append(sorted([X.members.tolist(), Y.members.tolist()]))
        return real(X, Y, reflect)

    monkeypatch.setattr(setstat, "_pair_counts", counting)
    res = certify_difference_subset(A, Fraction(1, 2))
    assert res.kind == "BohrPiece" and all(r.ok for r in res.records)
    assert sorted([A.members.tolist(), minus]) not in sums


def test_check_hypotheses_energy_capacity_failure():
    A = _subgroup(8, 3)
    tight = StructureParams(
        m=1, m_prime=Fraction(1, 1000), kappa=1, zeta=Fraction(1, 8), t=2
    )
    rep = check_hypotheses(A, A, tight)
    assert not rep.core_ok
    with pytest.raises(CheckFailure, match="^hypothesis not met") as exc:
        extract(A, A, tight)
    assert exc.value.record == next(r for r in rep.records if not r.ok)


def test_extract_subspace_certificate_verified_independently():
    A = _subgroup(10, 3)
    params = derive_params(A, A)
    res = extract(A, A, params)
    piece = res.variant
    # direct recount of the certified overlap
    overlap = _count_overlap(A, piece.bohr.members.members, piece.z)
    assert overlap == res.achieved
    guaranteed = (
        (1 - params.zeta) * params.omega * len(piece.bohr)
        / (params.t * (params.m + params.kappa))
    )
    assert res.guaranteed == guaranteed
    assert Fraction(overlap) >= guaranteed
    assert all(r.ok for r in res.records)


def test_extract_subspace_recovers_planted_subgroup():
    spec = HLambdaSpec(n=8, k=3, lambda_size=5)
    A = make_h_lambda(spec)
    params = derive_params(A, A)
    res = extract(A, A, params)
    piece = res.variant
    # the translate is fully inside A: every subspace point lands in A
    assert res.achieved == len(piece.bohr)
    assert _count_overlap(A, piece.bohr.members.members, piece.z) == len(piece.bohr)


@given(n=st.integers(1, 10), data=st.data())
@settings(max_examples=100, deadline=None)
def test_subgroup_piece_is_the_bohr_set_of_lambda_at_one_half(n, data):
    # any independent Lambda: its annihilator is B(Lambda, 1/2), as every
    # phase on F2^n is 0 or 1/2
    g = boolean_group(n)
    lam = []
    for v in data.draw(st.lists(st.integers(1, g.order - 1), max_size=n)):
        if f2_rank(lam + [v]) > len(lam):
            lam.append(v)
    bohr, basis = structure._annihilator(g, np.array(lam, dtype=np.int64))
    annihilator = [x for x in range(g.order) if all(bin(v & x).count("1") % 2 == 0 for v in lam)]
    assert bohr.spec.gamma == tuple(lam) and set(bohr.spec.eps) <= {Fraction(1, 2)}
    assert materialize(g, bohr.spec).members.members.tolist() == annihilator
    assert bohr.members.members.tolist() == annihilator
    # the basis the piece carries is in echelon form (distinct leading bits,
    # highest first) and spans exactly the piece's members
    leads = [row.bit_length() - 1 for row in basis]
    assert 0 not in basis and leads == sorted(set(leads), reverse=True)
    assert sorted(span_direct(g, basis)) == annihilator


@pytest.mark.parametrize(
    "A, kind",
    [
        (_subgroup(8, 3), "subgroup"),
        (group_set(make_group((15,)), [0, 1, 2]), "bohr"),
        (group_set(make_group((2, 4, 3)), [0, 1, 5, 9]), "bohr"),
    ],
    ids=["F2^8", "Z15", "Z2xZ4xZ3"],
)
def test_extract_picks_the_piece_kind_from_the_group(A, kind):
    # the annihilator on a 2-group, the regular Bohr set elsewhere; bohr=True
    # keeps the Bohr piece on a 2-group too
    params = derive_params(A, A)
    res = extract(A, A, params)
    assert res.variant.kind == kind
    assert res.kind == {"subgroup": "SubspacePiece", "bohr": "BohrPiece"}[kind]
    assert extract(A, A, params, bohr=True).variant.kind == "bohr"


def test_extract_bohr_certificate_verified_independently():
    g = make_group((101,))
    A = group_set(g, [5])
    params = dataclasses.replace(derive_params(A, A), zeta=Fraction(1, 4))
    res = extract(A, A, params)
    piece = res.variant
    overlap = _count_overlap(A, piece.bohr.members.members, piece.z)
    assert overlap == res.achieved
    guaranteed = (
        (1 - 2 * params.zeta) * params.omega * len(piece.bohr.members)
        / (params.t * (params.m + params.kappa))
    )
    assert Fraction(overlap) >= guaranteed
    assert all(r.ok for r in res.records)


def test_extract_bohr_needs_small_zeta():
    g = make_group((101,))
    A = group_set(g, [5])
    params = StructureParams(m=1, m_prime=2, kappa=1, zeta=Fraction(3, 4), t=2)
    with pytest.raises(ValueError, match="^Bohr extraction needs zeta < 1/2$"):
        extract(A, A, params)


@pytest.mark.parametrize("kind", ["subspace", "Bohr", "", None])
def test_extract_refuses_an_unknown_kind_before_any_work(kind, monkeypatch):
    # the group picks the kind and bohr is keyword-only, so a kind word
    # passed in the old fourth place is refused, never read as bohr=True
    A = _subgroup(8, 3)
    monkeypatch.setattr(structure, "_pipeline_front", mock.Mock(side_effect=AssertionError("pipeline ran")))
    with pytest.raises(TypeError, match="positional argument"):
        extract(A, A, derive_params(A, A), kind)


@pytest.mark.parametrize("zeta", [Fraction(1, 2), Fraction(3, 4)], ids=["1/2", "3/4"])
def test_a_bohr_piece_on_a_2_group_refuses_a_large_zeta_before_any_work(zeta, monkeypatch):
    A = _subgroup(8, 3)
    params = dataclasses.replace(derive_params(A, A), zeta=zeta)
    monkeypatch.setattr(structure, "_pipeline_front", mock.Mock(side_effect=AssertionError("pipeline ran")))
    with pytest.raises(ValueError, match="^Bohr extraction needs zeta < 1/2$"):
        extract(A, A, params, bohr=True)


def _counting_nullspace(monkeypatch) -> list:
    calls = []
    real = f2.nullspace_basis
    monkeypatch.setattr(f2, "nullspace_basis", lambda vectors, n: calls.append(n) or real(vectors, n))
    return calls


def test_dichotomy_structured_branch_on_subgroup(monkeypatch):
    # the coset decomposition reads the basis the piece carries: Lambda's
    # nullspace is spanned once, by the piece builder
    calls = _counting_nullspace(monkeypatch)
    H = _subgroup(10, 3)
    res = dichotomy_M(H)
    assert len(calls) == 1 and res.variant.basis is not None
    assert res.kind == "SubspacePiece"
    assert all(r.ok for r in res.records)
    deco = res.diagnostics["decomposition"]
    assert deco["heavy_cosets"] >= 1
    # independent recount of the 8M floor
    M = res.diagnostics["m"]
    piece = res.variant
    overlap = _count_overlap(H, piece.bohr.members.members, piece.z)
    assert Fraction(overlap) >= Fraction(len(piece.bohr)) / (8 * M)


def test_dichotomy_structured_branch_on_a_general_group(tmp_path):
    # the 8-point subgroup {512 i} of Z4096 passes the gate (100 K^2 |A| =
    # 800 <= 4096), and its peak sets M = 1: the CLI certifies a Bohr piece
    g = make_group((4096,))
    A = group_set(g, range(0, g.order, 512))
    path, out = tmp_path / "A.txt", tmp_path / "r.json"
    write_set(path, A)
    assert main(["structure", str(path), "--mode", "dichotomy", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["results"][0]["result"]
    w = result["witness"]
    assert (result["kind"], w["size"]) == ("BohrPiece", 8)
    piece = bohr_members_int_direct(g, w["gamma"], w["radii"])
    assert len(piece) == 8
    a = set(A.members.tolist())
    overlap = sum(element_add(g, x, w["z"]) in a for x in piece)
    M = Fraction(result["diagnostics"]["m"])
    assert Fraction(result["achieved"]) == overlap >= Fraction(len(piece), 8 * M)  # omega = 1
    assert Fraction(w["size_ratio"]) == Fraction(len(piece), g.order)


def _two_ap_set():
    # two 40-term APs of step 7 in Z1024
    g = make_group((1024,))
    return group_set(g, [(s + 7 * i) % g.order for s in (3, 500) for i in range(40)])


@pytest.mark.parametrize("make_a", [
    lambda: make_planted(boolean_group(10), 5, 2, 4, seed=3).set,
    _two_ap_set,
], ids=["planted-F2^10", "two-APs-Z1024"])
@given(half=st.randoms(use_true_random=False))
@settings(max_examples=12, deadline=None)
def test_structure_on_a_random_half_of_a_through_b(make_a, half, tmp_path_factory):
    # --b takes a proper subset B of A: omega = |B|/|A| = 1/2 enters the
    # floor, and the piece is counted against B, not A
    A = make_a()
    g = A.group
    B = group_set(g, half.sample(A.members.tolist(), len(A) // 2))
    tmp = tmp_path_factory.mktemp("half")
    write_set(tmp / "A.txt", A)
    write_set(tmp / "B.txt", B)
    argv = ["structure", str(tmp / "A.txt"), "--b", str(tmp / "B.txt"), "--out", str(tmp / "r.json")]
    assert main(argv) == 0
    report = json.loads((tmp / "r.json").read_text())
    [omega] = [r for r in report["records"] if r["ref"] == "structure:omega"]
    assert (omega["lhs"], omega["rhs"], omega["ok"]) == ("1/2", "1/2", True)
    result = report["results"][0]["result"]
    w = result["witness"]
    if g.is_boolean_space:
        piece = w["members"]
        # a subspace of codim w["codim"]: closed under addition, of its size
        assert len(piece) == w["size"] == g.order >> w["codim"]
        assert {x ^ y for x in piece for y in piece} == set(piece)
        loss = 1
    else:
        piece = sorted(bohr_members_int_direct(g, w["gamma"], w["radii"]))
        assert len(piece) == w["size"]
        loss = 2
    params = derive_params(A, B)
    assert params.omega == Fraction(len(B), len(A))
    overlap = _count_overlap(B, np.array(piece), w["z"])
    floor = (1 - loss * params.zeta) * params.omega * len(piece) / (params.t * (params.m + params.kappa))
    assert Fraction(result["achieved"]) == overlap >= floor == Fraction(result["guaranteed"])


def _reported_size_ratio(res, g):
    """The report's size_ratio, and |piece| / N recounted from the report's
    characters and radii."""
    w = structure_result_dict(res)["witness"]
    piece = bohr_members_int_direct(g, w["gamma"], w["radii"])
    return Fraction(w["size_ratio"]), Fraction(len(piece), g.order)


def test_size_ratio_is_the_piece_over_the_group_order():
    A, params = _cyclic_subgroup_instance()
    reported, recounted = _reported_size_ratio(extract(A, A, params), A.group)
    assert reported == recounted == Fraction(1, 10)
    # the 2-eps Bohr branch reports its final regularized shrink, not B_*
    g = make_group((1009,))
    res = certify_difference_subset(group_set(g, [5]), Fraction(1, 2))
    assert res.kind == "BohrPiece"
    # B_*'s radii lie below the rho it asked for, the shrink's below eta times them
    assert max(res.variant.bohr.spec.eps) < res.diagnostics["eta"] * res.diagnostics["attempts"][-1]["rho"]
    reported, recounted = _reported_size_ratio(res, g)
    assert reported == recounted == Fraction(len(res.variant.bohr), g.order)


def test_dichotomy_large_coefficient_branch():
    g = make_group((1000,))
    A = group_set(g, [0, 1])
    res = dichotomy_M(A, M=1)
    assert res.kind == "LargeCoefficient"
    # |Ahat(1)|^2 = |1 + e(1/1000)|^2 close to 4, above a^2 M / K = 8/3
    assert float(res.achieved) > 8 / 3
    assert res.variant.x in (1, 999)


def test_large_coefficient_comparisons_at_the_threshold():
    # A = {0, e1, e2}: the peak is 9 = |A|^2 and K = 4/3, so both
    # thresholds, (2 - 2/3)|A|^2/K and (4/3)|A|^2/K, equal the peak exactly
    A = group_set(boolean_group(10), [0, 1, 2])
    assert A.peak.lo == A.peak.hi == 9
    assert Fraction(A.diff_size, len(A)) == Fraction(4, 3)
    two_eps = certify_difference_subset(A, Fraction(2, 3))
    assert two_eps.kind == "LargeCoefficient"  # 2 - eps compares with >=
    assert two_eps.achieved == two_eps.guaranteed == 9
    m_branch = dichotomy_M(A, M=Fraction(4, 3))
    assert m_branch.kind == "SubspacePiece"  # M compares strictly


def test_dichotomy_exactly_one_branch_fires():
    rng = random.Random(17)
    for _ in range(6):
        dim = rng.randrange(1, 4)
        n = rng.randrange(10, 13)
        inst = make_planted(boolean_group(n), subgroup_dim=dim, cosets=2, noise=0, seed=rng.randrange(999))
        res = dichotomy_M(inst.set)
        assert res.kind in ("LargeCoefficient", "SubspacePiece")


def test_dichotomy_gate_failure_is_surfaced():
    A = make_h_lambda(HLambdaSpec(n=8, k=3, lambda_size=5))
    # 100 K^2 a = 100 * (11/5)^2 * 40 = 19360 > 256 = N
    with pytest.raises(CheckFailure, match="^hypothesis not met: smallness gate") as exc:
        dichotomy_M(A)
    assert exc.value.record.ref == "dichotomy:gate_M"


def test_dichotomy_rejects_m_outside_range():
    H = _subgroup(10, 3)
    with pytest.raises(ValueError):
        dichotomy_M(H, M=Fraction(1, 2))
    with pytest.raises(ValueError):
        dichotomy_M(H, M=5)  # K = 1 for a subgroup


def test_dichotomy_rejects_foreign_subset():
    H = _subgroup(10, 3)
    other = group_set(H.group, [900, 901])
    with pytest.raises(ValueError):
        dichotomy_M(H, B_sub=other)


def test_structure_body_lists_every_member_of_a_subspace_past_4096(tmp_path):
    # A is the codim-1 subgroup x_0 + x_1 + x_3 = 0 of F2^14: its piece is A
    # itself, 8192 points, all of them written into the body
    g = boolean_group(14)
    A = group_set(g, [x for x in range(g.order) if bin(x & 0b1011).count("1") % 2 == 0])
    path, out = tmp_path / "A.txt", tmp_path / "r.json"
    write_set(path, A)
    assert main(["structure", str(path), "--out", str(out)]) == 0
    result = json.loads(out.read_text())["results"][0]["result"]
    w = result["witness"]
    assert result["kind"] == "SubspacePiece"
    assert len(w["members"]) == w["size"] == 8192
    translate = translate_direct(group_set(g, w["members"]), w["z"])
    assert len(set(translate) & set(A.members.tolist())) == int(result["achieved"]) == 8192


def test_certify_difference_subset_boolean():
    A = _subgroup(12, 3)
    res = certify_difference_subset(A, Fraction(1, 2))
    assert res.kind in ("LargeCoefficient", "SubspacePiece")
    if res.kind == "SubspacePiece":
        diff = difference_direct(A, A)
        for x in res.variant.bohr.members.members:
            assert x in diff
    assert all(r.ok for r in res.records)


def test_certify_difference_subset_general_group():
    g = make_group((1009,))
    A = group_set(g, [5])
    res = certify_difference_subset(A, Fraction(1, 2))
    assert all(r.ok for r in res.records)
    if res.kind == "BohrPiece":
        diff = difference_direct(A, A)
        for x in res.variant.bohr.members.members:
            assert x in diff


def test_certify_difference_subset_counts_the_autocorrelation_once(monkeypatch):
    # the Bohr branch runs with B = -A, whose autocorrelation is A's
    A = group_set(make_group((1009,)), [5])
    real = setstat.corr_counts
    calls = []
    monkeypatch.setattr(setstat, "corr_counts", lambda X, Y=None: calls.append(1) or real(X, Y))
    res = certify_difference_subset(A, Fraction(1, 2))
    assert res.kind == "BohrPiece"
    assert len(calls) == 1
    neg = A.neg()
    assert neg.members.tolist() != A.members.tolist()
    assert neg.autocorr.tolist() == corr_direct(neg, neg)


def test_certify_gate_failure():
    g = make_group((30,))
    A = group_set(g, range(10))
    with pytest.raises(CheckFailure) as exc:
        certify_difference_subset(A, Fraction(1, 2))
    assert (exc.value.record.ref, exc.value.record.ok) == ("dichotomy:gate_2eps", False)


def test_certify_eps_validation():
    A = _subgroup(12, 3)
    with pytest.raises(ValueError):
        certify_difference_subset(A, Fraction(3, 2))


def test_regularize_density_terminates_with_gate():
    rng = random.Random(29)
    g = boolean_group(12)
    sets = [group_set(g, rng.sample(range(g.order), 40)) for _ in range(3)]
    # the random sets start above the gate; these coset unions start under it
    for d, c in ((1, 3), (2, 2), (3, 2)):
        sets.append(make_planted(g, subgroup_dim=d, cosets=c, noise=0, seed=d).set)
    total_steps = 0
    for A in sets:
        trace = regularize_density(A)
        total_steps += len(trace.steps)
        final_a = len(trace.final_set)
        final_n = trace.final_group.order
        assert 100 * trace.final_k**2 * Fraction(final_a, final_n) > 1
        densities = [s.density_before for s in trace.steps] + [trace.final_delta]
        assert all(b > a for a, b in zip(densities, densities[1:]))
        lifted = trace.lift()
        assert set(lifted.members) <= set(A.members)
        assert len(lifted) == final_a
    assert total_steps >= 3


def test_regularize_branches_are_all_piece_steps():
    # every round restricts to the pipeline's subspace piece; noise-free
    # coset unions sit under the smallness gate, so each takes a step
    for n, dim, cosets in [(10, 2, 2), (11, 3, 2), (12, 2, 3), (13, 3, 3), (14, 4, 3)]:
        A = make_planted(boolean_group(n), subgroup_dim=dim, cosets=cosets, noise=0, seed=n).set
        trace = regularize_density(A)
        assert trace.steps
        for step in trace.steps:
            assert step.density_after >= 2 * step.density_before
        assert trace.steps[-1].density_after == trace.final_delta
        # recount the final piece from A: the members of A in span(basis) + translate
        span = {0}
        for row in trace.basis:
            span |= {v ^ row for v in span}
        assert len(span) == trace.final_group.order
        direct = sorted(x for x in A.members if (x ^ trace.translate) in span)
        assert list(trace.lift().members) == direct
        assert Fraction(len(direct), len(span)) == trace.final_delta


def test_regularize_reads_each_piece_basis_off_lambda(monkeypatch):
    # L's echelon basis comes from Lambda's nullspace, never from the 2^dim
    # members of the piece: no echelon call sees more vectors than the rank
    # (here the piece is a 16-point subspace of F2^14)
    A = make_planted(boolean_group(14), subgroup_dim=4, cosets=3, noise=0, seed=14).set
    real = f2.echelon_basis
    sizes = []

    def counting(vectors):
        vectors = list(vectors)
        sizes.append(len(vectors))
        return real(vectors)

    monkeypatch.setattr(f2, "echelon_basis", counting)
    nullspaces = _counting_nullspace(monkeypatch)
    trace = regularize_density(A)
    assert trace.steps and sizes
    assert max(sizes) <= A.group.rank
    # one nullspace per round, spanned by the piece builder and read off the piece
    assert len(nullspaces) == len(trace.steps)
    lifted = trace.lift()
    assert set(lifted.members) <= set(A.members) and len(lifted) == len(trace.final_set)


def test_regularize_on_subgroup_stops_at_full_density():
    H = _subgroup(12, 3)
    trace = regularize_density(H)
    assert trace.final_delta == 1
    assert trace.final_k == 1
    assert set(trace.lift().members) == set(H.members)


def test_regularize_singleton():
    g = boolean_group(8)
    A = group_set(g, [77])
    trace = regularize_density(A)
    assert len(trace.final_set) == 1
    assert trace.lift().members.tolist() == A.members.tolist()
    assert 100 * trace.final_k**2 * trace.final_delta > 1


def test_regularize_rejects_general_groups():
    g = make_group((12,))
    with pytest.raises(ValueError):
        regularize_density(group_set(g, [0, 1]))


def test_extract_subspace_correlates_b_with_itself_once(monkeypatch):
    A = make_planted(boolean_group(10), subgroup_dim=5, cosets=2, noise=3, seed=4).set
    params = derive_params(A, A)
    real = setstat.corr_counts
    self_pairs = []

    def counting(X, Y=None):
        if Y is None or Y.members.tolist() == X.members.tolist():
            self_pairs.append(X.members.tolist())
        return real(X, Y)

    for module in (setstat, structure):
        monkeypatch.setattr(module, "corr_counts", counting)
    B = group_set(A.group, A.members)  # a fresh set, so nothing is cached yet
    extract(B, B, params)
    assert self_pairs == [B.members.tolist()]


def test_extract_bohr_recounts_its_one_piece_at_the_paper_radius(monkeypatch):
    A, params = _cyclic_subgroup_instance()
    real = structure.corr_counts
    calls = []
    monkeypatch.setattr(structure, "corr_counts", lambda X, Y=None: calls.append(X) or real(X, Y))
    res = extract(A, A, params)
    piece = res.variant
    assert [X.members.tolist() for X in calls] == [piece.bohr.members.members.tolist()]
    [attempt] = res.diagnostics["attempts"]
    assert attempt["c_local"] == Fraction(1, 32)
    # the piece is the regular Bohr set at rho = c zeta / (m_star |Lambda|)
    lam = [100, 200, 400]
    rho = Fraction(1, 32) * params.zeta / (params.m_star * len(lam))
    assert attempt["rho"] == rho
    spec = find_regular_radius(A.group, lam, rho)
    assert piece.bohr.spec == spec
    assert piece.bohr.members.members.tolist() == materialize(A.group, spec).members.members.tolist()
    overlap = _count_overlap(A, piece.bohr.members.members, piece.z)
    assert overlap == res.achieved == attempt["achieved"]
    assert Fraction(overlap) >= res.guaranteed == attempt["guaranteed"]
    assert all(r.ok for r in res.records)


def _zero_corr_counts(monkeypatch, zero=lambda call: True):
    """Make structure's corr_counts read zero on the calls (numbered from 1)
    that zero picks; returns the list of pieces it was called on."""
    real = structure.corr_counts
    pieces = []

    def zeroed(X, Y=None):
        pieces.append(X.members.tolist())
        counts = real(X, Y)
        return np.zeros_like(counts) if zero(len(pieces)) else counts

    monkeypatch.setattr(structure, "corr_counts", zeroed)
    return pieces


def _cyclic_subgroup_instance():
    # the multiples of 10 in Z1000: Lambda = (100, 200, 400), and the Bohr
    # set at the paper's radius is a 100-point piece, which passes
    A = group_set(make_group((1000,)), range(0, 1000, 10))
    return A, derive_params(A, A)


@pytest.mark.parametrize(
    "A, kind, ref",
    [
        (_subgroup(10, 3), "subgroup", "structure:density_subspace"),
        (_cyclic_subgroup_instance()[0], "bohr", "structure:density_bohr"),
    ],
    ids=["F2^10", "Z1000"],
)
def test_a_zeroed_recount_raises_after_one_piece_recount(A, kind, ref, monkeypatch):
    pieces = _zero_corr_counts(monkeypatch)
    with pytest.raises(CheckFailure) as exc:
        extract(A, A, derive_params(A, A))
    trace = exc.value.trace
    assert set(trace) == {"k", "lambda", "witness_mode", "attempts"}
    assert len(pieces) == 1
    [attempt] = trace["attempts"]
    assert attempt["size"] == len(pieces[0])
    assert attempt["achieved"] == 0 and attempt["guaranteed"] > 0
    if kind == "bohr":
        assert trace["lambda"] == [100, 200, 400]
        assert attempt["c_local"] == structure._C_LOCAL and attempt["sufficiency"] is not None
    # the failed record is the piece's density certificate
    record = exc.value.record
    assert (record.ref, record.ok) == (ref, False)
    assert (record.lhs, record.rhs) == ("0", format_value(attempt["guaranteed"]))


def test_extract_bohr_counts_the_whole_group_once_when_lambda_is_empty(monkeypatch):
    # B = G: phi is constant, so its spectrum is {0} and Lambda is empty
    A = group_set(make_group((12,)), range(12))
    pieces = _zero_corr_counts(monkeypatch)
    with pytest.raises(CheckFailure) as exc:
        extract(A, A, derive_params(A, A))
    assert exc.value.trace["lambda"] == []
    assert len(exc.value.trace["attempts"]) == 1
    assert pieces == [list(range(12))]


@pytest.mark.parametrize("A", [_subgroup(10, 3), _cyclic_subgroup_instance()[0]], ids=["F2^10", "Z1000"])
def test_structure_command_exits_1_on_a_failed_certificate(A, tmp_path, monkeypatch, capsys):
    path = tmp_path / "A.txt"
    write_set(path, A)
    _zero_corr_counts(monkeypatch)
    assert main(["structure", str(path), "--out", str(tmp_path / "r.json")]) == 1
    assert "the piece failed the direct count" in capsys.readouterr().err


@pytest.mark.parametrize(
    "A, ref",
    [(_subgroup(10, 3), "structure:density_subspace"), (_cyclic_subgroup_instance()[0], "structure:density_bohr")],
    ids=["F2^10", "Z1000"],
)
def test_structure_command_writes_the_report_of_a_failed_certificate(A, ref, tmp_path, monkeypatch, capsys):
    path, out = tmp_path / "A.txt", tmp_path / "r.json"
    write_set(path, A)
    _zero_corr_counts(monkeypatch)
    assert main(["structure", str(path), "--out", str(out)]) == 1
    capsys.readouterr()
    report = json.loads(out.read_text())
    [failed] = report["records"]
    assert report["ok"] is False
    assert (failed["ref"], failed["ok"], failed["lhs"]) == (ref, False, "0")
    [entry] = report["results"]
    assert entry["result"] is None
    failure = entry["failure"]
    assert set(failure) == {"message", "k", "lambda", "witness_mode", "attempts"}
    assert failure["message"].startswith("the piece failed the direct count")
    [attempt] = failure["attempts"]
    assert attempt["achieved"] == 0 and attempt["guaranteed"] == failed["rhs"]


def test_difference_membership_names_a_point_outside_a_minus_a():
    g = make_group((20,))
    A = group_set(g, [0, 1])  # A - A = {0, 1, 19}
    with pytest.raises(CheckFailure) as exc:
        structure._verify_difference_membership(A, group_set(g, [0, 5, 19]), "dichotomy:inclusion_bohr")
    record = exc.value.record
    # the record counts the members in A - A; its note names those missing
    assert (record.ref, record.ok, record.lhs, record.rhs) == ("dichotomy:inclusion_bohr", False, "2", "3")
    assert record.note == "1 members are outside A-A (first few: [5])"
    assert "[5]" in str(exc.value)
    rec = structure._verify_difference_membership(A, group_set(g, [0, 19]), "dichotomy:inclusion_bohr")
    assert rec.ok and rec.lhs == rec.rhs == "2"


def test_extract_bohr_materializes_one_radius_on_a_first_radius_pass(monkeypatch):
    A, params = _cyclic_subgroup_instance()
    real = structure.materialize
    calls = []
    monkeypatch.setattr(structure, "materialize", lambda g, spec: calls.append(spec) or real(g, spec))
    res = extract(A, A, params)
    assert len(res.diagnostics["attempts"]) == 1
    assert calls == [res.variant.bohr.spec]


def test_two_eps_majority_failure_carries_the_certify_trace(monkeypatch):
    # the certify step's recount is real; the two dilate recounts read zero
    A = group_set(make_group((1009,)), [5])
    pieces = _zero_corr_counts(monkeypatch, zero=lambda call: call > 1)
    calls = []
    real_extract = structure.extract
    monkeypatch.setattr(structure, "extract", lambda *args, **kw: calls.append((args, kw)) or real_extract(*args, **kw))
    with pytest.raises(CheckFailure) as exc:
        certify_difference_subset(A, Fraction(1, 2))
    assert len(pieces) == 3
    trace = exc.value.trace
    assert set(trace) == {"k", "lambda", "witness_mode", "attempts"}
    # the jump order and Lambda are those extract reports on the same input
    monkeypatch.undo()
    [(args, kw)] = calls
    res = extract(*args, **kw)
    assert res.variant.kind == "bohr"
    assert trace["k"] == res.jump.k
    assert trace["lambda"] == list(res.variant.bohr.spec.gamma) and trace["witness_mode"] == res.witness_mode
    [attempt] = trace["attempts"]
    assert attempt["achieved"] == 0
    assert attempt["size"] == len(pieces[1]) + len(pieces[2])
    assert attempt["guaranteed"] == (Fraction(1, 2) + Fraction(1, 16)) * attempt["size"]
    record = exc.value.record
    assert (record.ref, record.ok, record.lhs) == ("dichotomy:half_plus", False, "0")


@pytest.mark.parametrize("group, kind", [((2,) * 4, "int"), ((16,), "complex")])
def test_a_negative_transform_of_phi_is_named_by_its_indices(group, kind):
    g = make_group(group)
    phi = FunctionTable(g, [1] * 16, "int")
    phi_hat = FunctionTable(g, [16] + [0] * 14 + [-1], kind)
    structure._check_phi_transform_sign(phi, FunctionTable(g, [16] + [0] * 15, kind))
    with pytest.raises(AssertionError, match=r"went negative at \[15\]$"):
        structure._check_phi_transform_sign(phi, phi_hat)
