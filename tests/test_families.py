from __future__ import annotations

import random
from fractions import Fraction

import pytest

from addcomb import families
from addcomb.families import (
    FiniteField,
    HLambdaSpec,
    make_finite_field,
    make_h_lambda,
    make_katz_set,
    make_planted,
    make_random_set,
    verify_h_lambda,
    verify_katz_bound,
)
from addcomb.groups import boolean_group, make_group
from addcomb.report import CheckFailure
from addcomb.setstat import (
    corr_counts,
    group_set,
    higher_energy,
)

from .oracles import difference_direct, field_mul_direct, peak_direct, slice_direct


def test_canonical_h_lambda_statistics():
    A = make_h_lambda(HLambdaSpec(n=8, k=3, lambda_size=5))
    assert len(A) == 40
    assert A.diff_size == len(difference_direct(A, A)) == 88
    assert higher_energy(A, 2) == 33280
    assert higher_energy(A, 3) == 839680


def test_canonical_h_lambda_report():
    spec = HLambdaSpec(n=8, k=3, lambda_size=5)
    A = make_h_lambda(spec)
    rep = verify_h_lambda(A, spec)
    assert rep.ok
    ratios = dict(rep.ratios)
    assert ratios[2] == Fraction(5, 13)
    assert ratios[3] == Fraction(25, 41)
    assert ratios[4] == Fraction(125, 157)
    assert ratios[5] == Fraction(625, 689)
    assert ratios[6] == Fraction(3125, 3253)
    even = [ratios[k] for k in (2, 4, 6)]
    assert even[0] < even[1] < even[2]
    assert rep.phi_alignment[2] == (Fraction(17), Fraction(65))
    assert rep.phi_alignment[3] == (Fraction(109), Fraction(205))


def test_h_lambda_slices_directly():
    spec = HLambdaSpec(n=8, k=3, lambda_size=5)
    A = make_h_lambda(spec)
    counts = corr_counts(A, A)
    h = {0, 1, 2, 3, 4, 5, 6, 7}
    for s in range(A.group.order):
        if s in h:
            assert slice_direct(A, s) == A.members.tolist()
        elif counts[s]:
            assert len(slice_direct(A, s)) == 16


@pytest.mark.parametrize("drop, add, ref, note", [
    # one point moved out of its coset
    ({13}, {13 ^ 16 ^ 32}, "family:slice_h", "slice at s=1 in H is not all of A"),
    # coset 128 + H swapped for 56 + H: 8 + 16 = 32 + 56, so the slice at 24 holds four cosets
    (set(range(128, 136)), set(range(56, 64)), "family:slice_two_cosets",
     "each of size 16; slice at s=24 has size 32"),
], ids=["drop0-add0-slice at s=1 in H is not all of A", "drop1-add1-slice at s=24 has size 32, expected 16"])
def test_perturbed_h_lambda_raises_at_the_first_failing_slice(drop, add, ref, note):
    spec = HLambdaSpec(n=8, k=3, lambda_size=5)
    A = make_h_lambda(spec)
    B = group_set(A.group, sorted(set(A.members.tolist()) - drop | add))
    with pytest.raises(CheckFailure) as err:
        verify_h_lambda(B, spec)
    record = err.value.record
    assert (record.ref, record.ok, record.note) == (ref, False, note)
    # lhs counts the slices that hold, rhs the slices checked (H is the first 8 indices)
    members = B.members.tolist()
    if ref == "family:slice_h":
        holds = [slice_direct(B, s) == members for s in range(8)]
    else:
        holds = [len(slice_direct(B, s)) == 16 for s in range(8, 256) if slice_direct(B, s)]
    assert (record.lhs, record.rhs) == (str(sum(holds)), str(len(holds)))


def test_canonical_h_lambda_raises_when_the_even_k_climb_falls(monkeypatch):
    spec = HLambdaSpec(n=8, k=3, lambda_size=5)
    A = make_h_lambda(spec)
    # E_k read 10^k times too large: the H share r_k falls with k
    real = families.higher_energy
    monkeypatch.setattr(families, "higher_energy", lambda B, k: real(B, k) * 10**k)
    with pytest.raises(CheckFailure) as err:
        verify_h_lambda(A, spec)
    assert (err.value.record.ref, err.value.record.lhs) == ("family:r_k_monotone", "0")


def test_h_lambda_other_shapes():
    spec = HLambdaSpec(n=10, k=4, lambda_size=3)
    A = make_h_lambda(spec)
    assert len(A) == (1 << 4) * 3
    assert verify_h_lambda(A, spec).ok


def test_h_lambda_single_coset():
    spec = HLambdaSpec(n=6, k=2, lambda_size=1)
    A = make_h_lambda(spec)
    assert len(A) == 4
    rep = verify_h_lambda(A, spec)
    assert rep.ok
    # all energy already sits on H, every ratio is 1
    assert all(r == 1 for _, r in rep.ratios)


def test_h_lambda_trivial_h():
    spec = HLambdaSpec(n=6, k=0, lambda_size=3)
    A = make_h_lambda(spec)
    assert len(A) == 3
    assert verify_h_lambda(A, spec).ok


def test_h_lambda_seeded_variant_keeps_statistics():
    spec = HLambdaSpec(n=8, k=3, lambda_size=5)
    A = make_h_lambda(spec, seed=11)
    assert len(A) == 40
    assert A.diff_size == len(difference_direct(A, A)) == 88
    assert higher_energy(A, 2) == 33280


def test_h_lambda_rejects_bad_shapes():
    with pytest.raises(ValueError):
        HLambdaSpec(n=4, k=3, lambda_size=9)
    with pytest.raises(ValueError):
        HLambdaSpec(n=3, k=-1, lambda_size=1)
    with pytest.raises(ValueError):
        HLambdaSpec(n=8, k=3, lambda_size=0)


def test_finite_field_log_is_a_homomorphism():
    for p, d in ((2, 4), (3, 2), (5, 2), (3, 3)):
        f = make_finite_field(p, d)
        assert isinstance(f, FiniteField)
        q = p**d
        assert len(f.log_table) == q - 1
        rng = random.Random(7)
        nonzero = list(f.log_table)
        for _ in range(40):
            x = rng.choice(nonzero)
            y = rng.choice(nonzero)
            assert (f.ind(x) + f.ind(y)) % (q - 1) == f.ind(field_mul_direct(p, f.modulus, x, y))


def test_finite_field_generator_order():
    f = make_finite_field(3, 3)
    acc = (1,)
    seen = set()
    for _ in range(f.order):
        acc = field_mul_direct(f.p, f.modulus, acc, f.generator)
        seen.add(acc)
    assert len(seen) == f.order
    assert acc == (1,)


def test_katz_peaks_frozen():
    expected = {(3, 2): 3.0, (5, 2): 5.0, (3, 3): 9.0, (3, 4): 8.375423718316908}
    for (p, d), peak in expected.items():
        f = make_finite_field(p, d)
        A = make_katz_set(f)
        assert len(A) == p
        rep = verify_katz_bound(A, f)
        assert rep.ok
        assert rep.peak_sq == pytest.approx(peak, rel=1e-9)
        assert rep.bound_sq == (d - 1) ** 2 * p
        assert rep.peak_sq <= rep.bound_sq * (1 + 1e-9)


def test_katz_peak_matches_direct_transform():
    f = make_finite_field(3, 3)
    A = make_katz_set(f)
    rep = verify_katz_bound(A, f)
    direct = peak_direct(A)
    assert rep.peak_sq == pytest.approx(direct, rel=1e-9)


def test_katz_peak_bound_raises_on_a_set_past_it():
    f = make_finite_field(5, 2)
    # the interval {0, ..., 4} of Z24 has its peak |A_hat(1)|^2 near 21.8, past (d-1)^2 p = 5
    A = group_set(make_group((f.order,)), range(5))
    assert peak_direct(A) > 5
    with pytest.raises(CheckFailure) as err:
        verify_katz_bound(A, f)
    record = err.value.record
    assert (record.ref, record.ok, record.rhs) == ("family:katz_peak", False, "5")


def test_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_finite_field(4, 2)
    with pytest.raises(ValueError):
        make_finite_field(3, 0)


def test_random_set_is_deterministic_under_seed():
    g = make_group((60,))
    A = make_random_set(g, 12, 99)
    B = make_random_set(g, 12, 99)
    C = make_random_set(g, 12, 100)
    assert A.members.tolist() == B.members.tolist()
    assert A.members.tolist() != C.members.tolist()
    assert len(A) == 12
    with pytest.raises(ValueError):
        make_random_set(g, 61, 1)


def test_planted_instance_composition():
    g = boolean_group(10)
    inst = make_planted(g, subgroup_dim=3, cosets=4, noise=5, seed=3)
    assert len(inst.subgroup) == 8
    assert len(inst.coset_reps) == 4
    labels = set()
    for r in inst.coset_reps:
        for s in inst.subgroup.members:
            assert (s ^ r) in set(inst.set.members.tolist())
        labels.add(min(s ^ r for s in inst.subgroup.members))
    assert len(labels) == 4
    assert len(inst.set) == 4 * 8 + len(inst.noise)
    assert all(p in set(inst.set.members.tolist()) for p in inst.noise)


def test_planted_noise_free():
    g = boolean_group(11)
    inst = make_planted(g, subgroup_dim=4, cosets=2, noise=0, seed=5)
    assert len(inst.set) == 2 * 16
    assert not inst.noise


def test_planted_rejects_impossible_requests():
    g = boolean_group(4)
    with pytest.raises(ValueError):
        make_planted(g, subgroup_dim=5, cosets=2, noise=0, seed=1)
    with pytest.raises(ValueError):
        make_planted(g, subgroup_dim=2, cosets=5, noise=0, seed=1)
    with pytest.raises(ValueError):
        make_planted(make_group((12,)), subgroup_dim=1, cosets=1, noise=0, seed=1)
