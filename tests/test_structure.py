from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from addcomb import setstat, structure
from addcomb.families import make_h_lambda, make_planted, HLambdaSpec
from addcomb.groups import boolean_group, make_group
from addcomb.harmonic import FunctionTable
from addcomb.harness import derive_params
from addcomb.report import format_value
from addcomb.setstat import (
    corr_counts,
    difference_set,
    group_set,
    higher_energy,
    sumset,
)
from addcomb.structure import (
    DensityGuaranteeFailed,
    HypothesisFailure,
    InclusionFailed,
    NoJump,
    StructureParams,
    brute_force_3B_subspace,
    certify_difference_subset,
    check_hypotheses,
    dichotomy_M,
    extract_bohr,
    extract_subspace,
    find_energy_jump,
    phi_k,
    regularize_density,
)

from .oracles import corr_direct, walsh_direct


def _subgroup(n, dim):
    return group_set(boolean_group(n), range(1 << dim))


def _count_overlap(B, piece_members, z):
    g = B.group
    b = set(B.members.tolist())
    return sum(1 for s in piece_members.tolist() if g.add_index(s, z) in b)


def test_params_validation():
    with pytest.raises(ValueError):
        StructureParams(m=1, m_prime=1, kappa=1, zeta=0, t=2)
    with pytest.raises(ValueError):
        StructureParams(m=1, m_prime=1, kappa=1, zeta=Fraction(1, 8), t=1)
    with pytest.raises(ValueError):
        StructureParams(m=0, m_prime=1, kappa=1, zeta=Fraction(1, 8), t=2)
    p = StructureParams(m=2, m_prime=4, kappa=1, zeta=Fraction(1, 8), t=2, omega=Fraction(1, 2))
    assert p.m_star == (2 + 1) * 2 * 2
    assert p.k0 >= p.k0_pad


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
    out = structure._bohr_span_diagnostics(B, phi_hat, (1, 6), params, jump)
    b = set(B.members.tolist())
    b_hat = walsh_direct([int(x in b) for x in range(g.order)])
    products = [phi_values[x] * b_hat[x] ** 2 for x in (0, 1, 6, 7)]
    assert min(products) > 1 << 63
    assert out["spectral_mass"].lhs == format_value(Fraction(sum(products)))


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


def test_check_hypotheses_energy_capacity_failure():
    A = _subgroup(8, 3)
    tight = StructureParams(
        m=1, m_prime=Fraction(1, 1000), kappa=1, zeta=Fraction(1, 8), t=2
    )
    rep = check_hypotheses(A, A, tight)
    assert not rep.core_ok
    with pytest.raises(HypothesisFailure):
        extract_subspace(A, A, tight)


def test_extract_subspace_certificate_verified_independently():
    A = _subgroup(10, 3)
    params = derive_params(A, A)
    res = extract_subspace(A, A, params)
    piece = res.variant
    # direct recount of the certified overlap
    overlap = _count_overlap(A, piece.subspace.members, piece.z)
    assert overlap == res.achieved
    guaranteed = (
        (1 - params.zeta) * params.omega * len(piece.subspace)
        / (params.t * (params.m + params.kappa))
    )
    assert res.guaranteed == guaranteed
    assert Fraction(overlap) >= guaranteed
    assert all(r.ok for r in res.records)


def test_extract_subspace_recovers_planted_subgroup():
    spec = HLambdaSpec(n=8, k=3, lambda_size=5)
    A = make_h_lambda(spec)
    params = derive_params(A, A)
    res = extract_subspace(A, A, params)
    piece = res.variant
    # the translate is fully inside A: every subspace point lands in A
    assert res.achieved == len(piece.subspace)
    assert _count_overlap(A, piece.subspace.members, piece.z) == len(piece.subspace)


def test_extract_subspace_rejects_general_groups():
    g = make_group((15,))
    A = group_set(g, [0, 1, 2])
    with pytest.raises(ValueError):
        extract_subspace(A, A, StructureParams(m=1, m_prime=2, kappa=1, zeta=Fraction(1, 8), t=2))


def test_extract_bohr_certificate_verified_independently():
    g = make_group((101,))
    A = group_set(g, [5])
    params = derive_params(A, A, zeta=Fraction(1, 4))
    res = extract_bohr(A, A, params)
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
    with pytest.raises(ValueError):
        extract_bohr(A, A, params)


def test_dichotomy_structured_branch_on_subgroup():
    H = _subgroup(10, 3)
    res = dichotomy_M(H)
    assert res.kind == "SubspacePiece"
    assert all(r.ok for r in res.records)
    deco = res.diagnostics["decomposition"]
    assert deco["heavy_cosets"] >= 1
    # independent recount of the 8M floor
    M = res.diagnostics["m"]
    piece = res.variant
    overlap = _count_overlap(H, piece.subspace.members, piece.z)
    assert Fraction(overlap) >= Fraction(len(piece.subspace)) / (8 * M)


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
    with pytest.raises(HypothesisFailure) as exc:
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


def test_certify_difference_subset_boolean():
    A = _subgroup(12, 3)
    res = certify_difference_subset(A, Fraction(1, 2))
    assert res.kind in ("LargeCoefficient", "SubspacePiece")
    if res.kind == "SubspacePiece":
        diff = set(difference_set(A, A).members)
        for x in res.variant.subspace.members:
            assert x in diff
    assert all(r.ok for r in res.records)


def test_certify_difference_subset_general_group():
    g = make_group((1009,))
    A = group_set(g, [5])
    res = certify_difference_subset(A, Fraction(1, 2))
    assert all(r.ok for r in res.records)
    if res.kind == "BohrPiece":
        diff = set(difference_set(A, A).members)
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
    with pytest.raises(HypothesisFailure):
        certify_difference_subset(A, Fraction(1, 2))


def test_certify_eps_validation():
    A = _subgroup(12, 3)
    with pytest.raises(ValueError):
        certify_difference_subset(A, Fraction(3, 2))


def test_brute_force_3B_subspace_against_exhaustive_search():
    g = boolean_group(5)
    rng = random.Random(23)
    from addcomb.f2 import dual_spaces, subspace_elements

    for _ in range(6):
        B = group_set(g, rng.sample(range(32), rng.randrange(3, 10)))
        triple = sumset(sumset(B, B), B)
        tset = set(triple.members.tolist())
        got = brute_force_3B_subspace(B, max_codim=5)

        best = None
        for codim in range(0, 6):
            dim = 5 - codim
            for basis in dual_spaces(5, dim, cap=1 << 21):
                elems = subspace_elements(basis)
                for z in range(32):
                    if all((e ^ z) in tset for e in elems):
                        best = (dim, z)
                        break
                if best:
                    break
            if best:
                break
        if got is None:
            assert best is None
        else:
            lset, z = got
            assert len(lset) == 1 << best[0]
            assert all((e ^ z) in tset for e in lset.members)


def test_brute_force_3B_requires_boolean():
    g = make_group((9,))
    B = group_set(g, [0, 1])
    with pytest.raises(ValueError):
        brute_force_3B_subspace(B, max_codim=2)


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
    extract_subspace(B, B, params)
    assert self_pairs == [B.members.tolist()]
