"""End-to-end acceptance gate.

Each criterion below runs a sized workload with a pinned time budget and
registers one pass/fail line that pytest prints in its terminal summary.
Tolerances are pinned next to the checks that use them; integer claims are
compared exactly.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

from addcomb import bohr
from addcomb.bohr import (
    RegularRadiusError,
    find_regular_radius,
    make_bohr_spec,
    materialize,
    size_bound_stack,
)
from addcomb.families import (
    HLambdaSpec,
    make_finite_field,
    make_h_lambda,
    make_katz_set,
    make_planted,
    verify_h_lambda,
    verify_katz_bound,
)
from addcomb.groups import boolean_group, make_group
from addcomb.harmonic import FunctionTable, dft, wht_int
from addcomb.setstat import (
    energy_difference_bounds,
    group_set,
    higher_energy,
    katz_koester_stack,
    triangle_stack,
)
from addcomb.structure import (
    check_hypotheses,
    certify_difference_subset,
    derive_params,
    dichotomy_M,
    extract,
    regularize_density,
)

from .conftest import register_criterion
from .oracles import difference_direct, higher_energy_direct

_DFT_REL_TOL = 1e-6


def _run(number, label, budget, worker):
    """Time the workload, register the summary line, then assert."""
    failures: list[str] = []
    started = time.perf_counter()
    done = False
    try:
        worker(failures)
        done = True
    finally:
        elapsed = time.perf_counter() - started
        register_criterion(number, label, done and not failures and elapsed < budget, elapsed, budget)
    assert not failures, f"{len(failures)} failures; first: {failures[:3]}"
    assert elapsed < budget, f"{elapsed:.2f}s over the {budget:.0f}s budget"


def _overlap(A, members, z):
    g = A.group
    a = set(A.members.tolist())
    return sum(1 for s in members.tolist() if g.add_index(s, z) in a)


def test_criterion_01_parseval():
    groups = [
        boolean_group(8),
        boolean_group(12),
        make_group((24,)),
        make_group((101,)),
        make_group((4, 6)),
    ]

    def work(failures):
        rng = random.Random(101)
        for g in groups:
            for i in range(100):
                f = [rng.randrange(-8, 9) for _ in range(g.order)]
                lhs = g.order * sum(v * v for v in f)
                if g.is_boolean_space:
                    rhs = sum(v * v for v in wht_int(g, f))
                    if rhs != lhs:
                        failures.append(f"{g.factors} #{i}: {rhs} != {lhs}")
                else:
                    hat = dft(FunctionTable(group=g, kind="int", values=f))
                    rhs = sum(abs(v) ** 2 for v in hat.values)
                    if abs(rhs - lhs) > _DFT_REL_TOL * max(lhs, 1):
                        failures.append(f"{g.factors} #{i}: residual {abs(rhs - lhs)}")

    _run(1, "Parseval on 100 random integer tables per group, five groups", 5.0, work)


def test_criterion_02_energy_difference_bound():
    def work(failures):
        rng = random.Random(202)
        for g in (make_group((24,)), boolean_group(8)):
            for i in range(500):
                a = rng.randrange(2, 13)
                b = rng.randrange(2, 13)
                A = group_set(g, rng.sample(range(g.order), a))
                B = group_set(g, rng.sample(range(g.order), b))
                k = rng.choice((2, 3))
                [rep] = energy_difference_bounds(A.stack(), B.stack(), [k])
                if not rep.holds or rep.margin < 1:
                    failures.append(f"{g.factors} #{i} k={k}: margin {rep.margin}")

    _run(2, "energy lower bound, 1000 random pairs, exact arithmetic", 60.0, work)


def test_criterion_03_generalized_triangle():
    def work(failures):
        rng = random.Random(303)
        for g in (make_group((15,)), boolean_group(5)):
            for i in range(100):
                pick = lambda: rng.sample(range(g.order), rng.randrange(2, 7))
                [lhs], [rhs] = triangle_stack(
                    [[(w,) for w in pick()]], [[(y,) for y in pick()]], group_set(g, pick()).stack(), group_set(g, pick()).stack()
                )
                if not lhs <= rhs:
                    failures.append(f"{g.factors} #{i}: {lhs} > {rhs}")
        # a subgroup makes every factor collapse and the bound is met with equality
        for g, H in (
            (make_group((15,)), [0, 5, 10]),
            (boolean_group(5), [0, 1, 2, 3]),
        ):
            [lhs], [rhs] = triangle_stack([[(h,) for h in H]], [[(h,) for h in H]], group_set(g, H).stack(), group_set(g, H).stack())
            if not lhs == rhs == len(H) ** 3:
                failures.append(f"subgroup equality failed on {g.factors}: {lhs} vs {rhs}")

    _run(3, "triangle inequality, 200 random singleton families + equality", 30.0, work)


def test_criterion_04_slice_sum_containment():
    def work(failures):
        rng = random.Random(404)
        g = make_group((30,))
        for i in range(100):
            A = group_set(g, rng.sample(range(30), rng.randrange(2, 11)))
            B = group_set(g, rng.sample(range(30), rng.randrange(2, 11)))
            [rows] = katz_koester_stack(A.stack(), B.stack())
            for x in rows.xs[~rows.holds].tolist():
                failures.append(f"#{i} x={x}")

    _run(4, "slice sum containment at every displacement, 100 pairs", 10.0, work)


def test_criterion_05_bohr_size_and_regularity(monkeypatch):
    # a single sweep round: no densification allowed here
    monkeypatch.setattr(bohr, "_RADIUS_ROUNDS", (256,))
    groups = [make_group((101,)), make_group((256,)), make_group((2520,))]
    eps_choices = [Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 8)]

    def work(failures):
        rng = random.Random(505)
        regular_hits = 0
        for i in range(200):
            g = groups[i % 3]
            d = rng.randrange(1, 4)
            gamma = rng.sample(range(1, g.order), d)
            eps = [rng.choice(eps_choices) for _ in range(d)]
            spec = make_bohr_spec(g, gamma, eps)
            other_gamma = rng.sample(range(1, g.order), rng.randrange(1, 4))
            other = make_bohr_spec(g, other_gamma, Fraction(1, 3))
            for rec in size_bound_stack(g, [[spec, other]]):
                if not rec.ok:
                    failures.append(f"#{i} {rec.ref}")
            try:
                find_regular_radius(g, gamma, eps)
                regular_hits += 1
            except RegularRadiusError:
                pass
        if regular_hits < 190:
            failures.append(f"regular radius found only {regular_hits}/200 times")

    _run(5, "Bohr size bounds and single-sweep regular radius, 200 specs", 120.0, work)


def test_criterion_06_coset_union_example():
    def work(failures):
        spec = HLambdaSpec(n=8, k=3, lambda_size=5)
        A = make_h_lambda(spec)
        if len(A) != 40 or A.diff_size != 88:
            failures.append(f"sizes {len(A)}/{A.diff_size} != 40/88")
        if higher_energy(A, 2) != 33280 or higher_energy(A, 3) != 839680:
            failures.append("energy values moved")
        h = set(range(8))
        outside = 0
        # the slice A_s = A intersect (A + s) lies in A, so it is A exactly
        # when its size (A o A)(s) is |A|
        for s in np.flatnonzero(A.autocorr).tolist():
            size = int(A.autocorr[s])
            if s in h:
                if size != len(A):
                    failures.append(f"slice at {s} is not A")
            else:
                outside += 1
                if size != 16:
                    failures.append(f"slice at {s} has size {size}")
        if outside != 80:
            failures.append(f"{outside} outside slices, expected 80")
        rep = verify_h_lambda(A, spec)
        if not rep.ok:
            failures.append("family report not ok")
        ratios = dict(rep.ratios)
        if not (ratios[2] < ratios[4] < ratios[6]):
            failures.append("even concentration chain is not strict")
        if (ratios[2], ratios[4], ratios[6]) != (
            Fraction(5, 13),
            Fraction(125, 157),
            Fraction(3125, 3253),
        ):
            failures.append("concentration ratios moved")

    _run(6, "worked coset-union example, exact statistics and slices", 10.0, work)


def test_criterion_07_index_set_example():
    def work(failures):
        for p, d in ((3, 2), (5, 2), (3, 3), (3, 4)):
            fld = make_finite_field(p, d)
            A = make_katz_set(fld)
            rep = verify_katz_bound(A, fld)
            if rep.peak_sq > rep.bound_sq * (1 + 1e-9):
                failures.append(f"({p},{d}): peak {rep.peak_sq} over {rep.bound_sq}")
            refs = {r.ref for r in rep.records}
            needed = {
                "family:katz_peak",
                "family:katz_chain_a",
                "family:katz_chain_k",
                "family:katz_smallness",
            }
            if not needed <= refs:
                failures.append(f"({p},{d}): missing records {needed - refs}")
            if not rep.ok:
                failures.append(f"({p},{d}): report not ok")

    _run(7, "worked index-set example, peak bound and chain on four fields", 10.0, work)


def _structured_instances():
    """50 gate-passing boolean instances shared by criteria 8 and 9."""
    out = []
    for n, d in (
        (10, 1), (10, 2), (10, 3),
        (11, 1), (11, 2), (11, 3), (11, 4),
        (12, 1), (12, 2), (12, 3), (12, 4), (12, 5),
    ):
        out.append((f"subgroup[{n},{d}]", group_set(boolean_group(n), range(1 << d))))
    for n, k, lam, seed in (
        (10, 2, 2, None), (11, 2, 2, None), (11, 3, 2, None),
        (12, 2, 2, None), (12, 3, 2, None), (12, 4, 2, None),
        (11, 3, 2, 1), (11, 3, 2, 2), (12, 2, 2, 1), (12, 2, 2, 2),
        (12, 3, 2, 1), (12, 3, 2, 2), (12, 4, 2, 1), (12, 4, 2, 2),
        (12, 2, 3, None), (12, 2, 3, 1), (12, 2, 3, 2), (12, 2, 3, 3),
    ):
        A = make_h_lambda(HLambdaSpec(n=n, k=k, lambda_size=lam), seed=seed)
        out.append((f"cosets[{n},{k},{lam},{seed}]", A))
    for n, d, c, seed in (
        (10, 1, 2, 7), (10, 2, 2, 7),
        (11, 1, 2, 7), (11, 2, 2, 7), (11, 2, 2, 8), (11, 3, 2, 7),
        (12, 1, 2, 7), (12, 2, 2, 7), (12, 3, 2, 7), (12, 3, 2, 8), (12, 4, 2, 7),
        (11, 1, 3, 7), (12, 1, 3, 7), (12, 1, 3, 8), (12, 2, 3, 7), (12, 2, 3, 8),
        (12, 1, 4, 7), (12, 1, 4, 8), (12, 1, 4, 9), (12, 1, 4, 10),
    ):
        inst = make_planted(boolean_group(n), subgroup_dim=d, cosets=c, noise=0, seed=seed)
        out.append((f"planted[{n},{d},{c},{seed}]", inst.set))
    assert len(out) == 50
    return out


def test_criterion_08_subspace_extraction_on_fifty_instances():
    def work(failures):
        for label, A in _structured_instances():
            params = derive_params(A, A)
            hyp = check_hypotheses(A, A, params)
            if not hyp.core_ok:
                failures.append(f"{label}: hypotheses rejected")
                continue
            res = extract(A, A, params)
            if res.witness_mode != "exact":
                failures.append(f"{label}: witness mode {res.witness_mode}")
            piece = res.variant
            overlap = _overlap(A, piece.bohr.members.members, piece.z)
            if overlap != int(res.achieved):
                failures.append(f"{label}: recount {overlap} != {res.achieved}")
            if Fraction(overlap) < res.guaranteed:
                failures.append(f"{label}: {overlap} below guarantee {res.guaranteed}")
            if not all(r.ok for r in res.records):
                failures.append(f"{label}: failing record")

    _run(8, "dense subspace extraction, 50 instances, independent recount", 600.0, work)


def test_criterion_09_dichotomy_sweep_on_fifty_instances():
    def work(failures):
        for label, A in _structured_instances():
            K = Fraction(A.diff_size, len(A))
            # the smallness gate pins K below 2 on these shapes, so the
            # admissible sweep values collapse to M=1; the sweep stays
            # data-driven and would widen with K
            swept = [M for M in (1, 2, 4, 8) if 1 <= M <= K]
            if not swept:
                failures.append(f"{label}: empty sweep")
            for M in swept:
                res = dichotomy_M(A, M=M)
                refs = [r.ref for r in res.records]
                lc = "dichotomy:large_M" in refs
                dense = "dichotomy:density_8M" in refs
                if lc == dense:
                    failures.append(f"{label} M={M}: branches fired {lc}/{dense}")
                if res.diagnostics.get("m") != M:
                    failures.append(f"{label} M={M}: diagnostics m={res.diagnostics.get('m')}")
                if res.kind == "SubspacePiece":
                    piece = res.variant
                    overlap = _overlap(A, piece.bohr.members.members, piece.z)
                    if Fraction(overlap, len(piece.bohr)) < Fraction(1, 8 * M):
                        failures.append(f"{label} M={M}: density below 1/(8M)")
                elif res.kind != "LargeCoefficient":
                    failures.append(f"{label} M={M}: kind {res.kind}")

    _run(9, "structure dichotomy with swept M, 50 instances", 600.0, work)


def _smallness_instances():
    """20 instances passing 100 K^2 delta <= 1/2, booleans and cyclic."""
    out = []
    for n, d in (
        (10, 1), (10, 2), (11, 1), (11, 2), (11, 3),
        (12, 1), (12, 2), (12, 3), (12, 4),
        (13, 3), (13, 5), (14, 4),
    ):
        out.append((f"subgroup[{n},{d}]", group_set(boolean_group(n), range(1 << d))))
    # the general-group branch runs with kappa = eps/200, so its sumset
    # capacity asks for 200 K^2 delta <= eps: twice the entry gate
    for p, x in ((401, 7), (601, 11), (1009, 13), (2520, 1)):
        out.append((f"singleton[{p}]", group_set(make_group((p,)), [x])))
    out.append(("cyclic4[2520]", group_set(make_group((2520,)), [0, 630, 1260, 1890])))
    out.append(("cyclic3[3000]", group_set(make_group((3000,)), [0, 1000, 2000])))
    out.append(("cyclic2[1024]", group_set(make_group((1024,)), [0, 512])))
    out.append(("cyclic2[2048]", group_set(make_group((2048,)), [0, 1024])))
    assert len(out) == 20
    return out


def test_criterion_10_difference_subset_membership():
    def work(failures):
        for label, A in _smallness_instances():
            g = A.group
            gate = 100 * Fraction(A.diff_size, len(A)) ** 2 * Fraction(len(A), g.order)
            if gate > Fraction(1, 2):
                failures.append(f"{label}: gate {gate} not small")
                continue
            res = certify_difference_subset(A, Fraction(1, 2))
            if res.kind == "LargeCoefficient":
                failures.append(f"{label}: unexpected large-coefficient branch")
                continue
            if not all(r.ok for r in res.records):
                failures.append(f"{label}: failing record")
            members = res.variant.bohr.members.members
            brute = {g.sub_index(x, y) for x in A.members for y in A.members}
            stray = [x for x in members if x not in brute]
            if stray:
                failures.append(f"{label}: {len(stray)} members outside A-A")

    _run(10, "certified subsets of A-A, 20 instances, element-by-element", 300.0, work)


def test_criterion_11_density_regularization():
    def work(failures):
        rng = random.Random(1111)
        sets = []
        for i in range(20):
            n = (12, 13, 14)[i % 3]
            g = boolean_group(n)
            sets.append(group_set(g, rng.sample(range(g.order), rng.randrange(30, 301))))
        # the random sets start above the gate 100 K^2 delta > 1 and take no
        # step; noise-free coset unions start under it, so each must take one
        for n, d, c in ((12, 2, 2), (12, 3, 2), (13, 2, 3), (13, 4, 2), (14, 3, 3), (14, 5, 2)):
            A = make_planted(boolean_group(n), subgroup_dim=d, cosets=c, noise=0, seed=100 + n).set
            k = Fraction(A.diff_size, len(A))
            if 100 * k * k * Fraction(len(A), A.group.order) > 1:
                failures.append(f"planted ({n},{d},{c}) does not start under the gate")
            sets.append(A)
        total_steps = 0
        for i, A in enumerate(sets):
            trace = regularize_density(A)
            total_steps += len(trace.steps)
            final_delta = Fraction(len(trace.final_set), trace.final_group.order)
            if final_delta != trace.final_delta:
                failures.append(f"#{i}: reported final density disagrees")
            if not 100 * trace.final_k**2 * final_delta > 1:
                failures.append(f"#{i}: stopped before the gate")
            chain = [s.density_before for s in trace.steps] + [trace.final_delta]
            if not all(x < y for x, y in zip(chain, chain[1:])):
                failures.append(f"#{i}: density trace not strictly increasing")
            lifted = trace.lift()
            if not set(lifted.members) <= set(A.members):
                failures.append(f"#{i}: lift left the original set")
            if len(lifted) != len(trace.final_set):
                failures.append(f"#{i}: lift changed the size")
        if total_steps < 6:
            failures.append(f"only {total_steps} regularization steps over all sets")

    _run(11, "density regularization, 20 random sets and 6 coset unions, exact stopping rule", 600.0, work)


def _matching_instances():
    out = []
    for n, d in (
        (10, 1), (10, 2), (10, 3),
        (11, 1), (11, 2), (11, 3), (11, 4),
        (12, 1), (12, 2), (12, 3), (12, 4), (12, 5),
    ):
        out.append((f"subgroup[{n},{d}]", group_set(boolean_group(n), range(1 << d))))
    for n, k, lam in ((10, 2, 2), (11, 2, 2), (11, 3, 2), (12, 2, 3)):
        out.append((f"cosets[{n},{k},{lam}]", make_h_lambda(HLambdaSpec(n=n, k=k, lambda_size=lam))))
    for n, d, c in ((10, 1, 2), (11, 2, 2), (12, 2, 3), (12, 1, 4)):
        inst = make_planted(boolean_group(n), subgroup_dim=d, cosets=c, noise=0, seed=7)
        out.append((f"planted[{n},{d},{c}]", inst.set))
    assert len(out) == 20
    return out


def test_criterion_12_bohr_subspace_agreement():
    def work(failures):
        for label, A in _matching_instances():
            params = derive_params(A, A)
            res_s = extract(A, A, params)
            res_b = extract(A, A, params, bohr=True)
            spec = res_b.variant.bohr.spec
            if not all(e < Fraction(1, 2) for e in spec.eps):
                failures.append(f"{label}: radius reached 1/2")
            if materialize(A.group, res_s.variant.bohr.spec).members != res_s.variant.bohr.members:
                failures.append(f"{label}: the subspace piece is not its own Bohr set")
            sub = set(res_s.variant.bohr.members.members)
            boh = set(res_b.variant.bohr.members.members)
            if sub != boh:
                failures.append(f"{label}: pieces differ ({len(sub)} vs {len(boh)})")
            if res_s.variant.z != res_b.variant.z or res_s.achieved != res_b.achieved:
                failures.append(f"{label}: certificates differ")
            if res_b.achieved < res_b.guaranteed or res_s.achieved < res_s.guaranteed:
                failures.append(f"{label}: below guarantee")
            if A.group.order <= 1024:
                # definitional oracles on every instance small enough to afford them
                for k in (2, 3):
                    if higher_energy(A, k) != higher_energy_direct(A, k):
                        failures.append(f"{label}: energy k={k} mismatch")
                if set(np.flatnonzero(A.autocorr).tolist()) != set(difference_direct(A, A)):
                    failures.append(f"{label}: difference set mismatch")

    _run(12, "Bohr pieces match subspace pieces on 2-groups, 20 instances", 600.0, work)
