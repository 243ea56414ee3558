"""Structured instance families: H+Lambda unions, finite-field index sets,
and random or planted generators for the harness.

H+Lambda sets realize the extreme case where all higher energy concentrates
on a small subgroup.  Katz index sets are discrete logarithms of g+j over
F_{p^d}; their nonprincipal transform values stay below (d-1) sqrt(p), which
is re-verified here as a required record (a CheckFailure when it fails).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import f2
from .groups import GroupSpec, SizeLimitError, boolean_group, make_group
from .harmonic import dft, power_sums, prime_factors
from .report import CheckRecord, record_eq, record_ge, record_le, require
from .setstat import GroupSet, group_set, higher_energy
from .structure import phi_k

_H_LAMBDA_N_MAX = 20


@dataclass(frozen=True)
class HLambdaSpec:
    """A = H + Lambda in F_2^n: H spans the first k coordinates, Lambda is
    the next lambda_size standard basis vectors."""

    n: int
    k: int
    lambda_size: int

    def __post_init__(self) -> None:
        if self.k < 0 or self.lambda_size < 1:
            raise ValueError("need k >= 0 and lambda_size >= 1")
        if self.k + self.lambda_size > self.n:
            raise ValueError("k + lambda_size must fit inside n coordinates")
        if self.n > _H_LAMBDA_N_MAX:
            raise SizeLimitError(f"ambient dimension {self.n} past the cap {_H_LAMBDA_N_MAX}")

    @property
    def group(self) -> GroupSpec:
        return boolean_group(self.n)

    @property
    def h_basis(self) -> tuple[int, ...]:
        return tuple(1 << i for i in range(self.k))

    @property
    def lam(self) -> tuple[int, ...]:
        return tuple(1 << (self.k + i) for i in range(self.lambda_size))


def make_h_lambda(spec: HLambdaSpec, seed: int | None = None) -> GroupSet:
    """The union of the H-cosets H + lambda, lambda in Lambda.

    With a seed, Lambda is replaced by random vectors that keep the basis
    of H extended by Lambda linearly independent, so all size and slice
    statistics match the standard instance.
    """
    h = f2.subspace_elements(spec.h_basis).tolist()
    lam = spec.lam
    if seed is not None:
        lam = tuple(_independent_draws(random.Random(seed), spec.group, spec.h_basis, spec.lambda_size))
    out = group_set(spec.group, (x ^ v for x in h for v in lam))
    if len(out) != (1 << spec.k) * spec.lambda_size:
        raise AssertionError("H-coset union has the wrong size")
    return out


def _independent_draws(rng: random.Random, g: GroupSpec, basis: Sequence[int], count: int) -> list[int]:
    """count nonzero vectors of the 2-group g, each rng.randrange(1, |g|)
    drawn until it is independent of basis and of the vectors kept before."""
    chosen: list[int] = []
    while len(chosen) < count:
        v = rng.randrange(1, g.order)
        if f2.reduce_in_basis(f2.echelon_basis([*basis, *chosen]), v)[1]:
            chosen.append(v)
    return chosen


@dataclass
class HLambdaReport:
    spec: HLambdaSpec
    records: list[CheckRecord]
    ratios: list[tuple[int, Fraction]]  # (k, r_k) with r_k = sum_{s in H} |A_s|^k / E_k
    phi_alignment: dict[int, tuple[Fraction, Fraction]]  # k -> (min, max) ratio on H-perp

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)


def verify_h_lambda(A: GroupSet, spec: HLambdaSpec) -> HLambdaReport:
    """Check the slice structure and energy concentration of an H+Lambda set.

    Slices: A_s = A for s in H; A_s is a union of exactly two H-cosets for
    s in (A-A) minus H.  Both are read off A o A: A_s lies in A and has
    (A o A)(s) members, so A_s = A iff (A o A)(s) = |A|.  Then A + s = A for
    every s in H, so every slice A intersect (A + s) is H-invariant, and it
    is two H-cosets iff it has 2|H| members.  Ratios r_k, k = 2..6, measure
    how much of E_k lives on H; on the canonical (k=3, lambda=5) shape they
    must increase strictly over even k.  The slice and partition records
    are required, as is the climb on the canonical shape: this family is
    fully understood, so a failure (a CheckFailure naming the first failing
    slice) is a bug witness.
    """
    g = A.group
    if g != spec.group:
        raise ValueError("set does not live on the spec's group")
    h = f2.subspace_elements(spec.h_basis)
    records: list[CheckRecord] = []
    corr = A.autocorr
    a = len(A)

    bad = h[corr[h] != a].tolist()
    note = f"slice at s={bad[0]} in H is not all of A" if bad else ""
    records.append(require(record_eq("H-slices equal A", "family:slice_h", len(h) - len(bad), len(h), note=note)))

    off_h = corr != 0  # A - A
    off_h[h] = False
    outside = np.flatnonzero(off_h)
    two_cosets = 2 * (1 << spec.k)
    bad = outside[corr[outside] != two_cosets].tolist()
    note = f"each of size {two_cosets}"
    if bad:
        note += f"; slice at s={bad[0]} has size {corr[bad[0]]}"
    records.append(require(record_eq("outside slices are two H-cosets", "family:slice_two_cosets",
                                     len(outside) - len(bad), len(outside), note=note)))
    records.append(require(record_eq("slice partition", "family:slice_partition", int(corr.sum()), a * a)))

    on_h = power_sums(A.autocorr[h], 6)
    ratios = [(k, Fraction(on_h[k - 2], higher_energy(A, k))) for k in range(2, 7)]
    canonical = (spec.k, spec.lambda_size) == (3, 5)
    even = [r for k, r in ratios if k % 2 == 0]
    # a single coset puts all energy on H outright, so the climb is vacuous.
    # cells of A o A are capped at lambda*|H| and attain the cap on H, so the
    # H share is non-decreasing in k; with two cosets every cell hits the cap
    # and the share is exactly constant, hence the non-strict comparison
    if spec.lambda_size >= 2:
        mono = record_ge(
            "even-k concentration never falls",
            "family:r_k_monotone",
            1 if all(y >= x for x, y in zip(even, even[1:])) else 0,
            1,
            note=f"r_k over even k: {[str(r) for r in even]}",
        )
        records.append(require(mono) if canonical else mono)

    phi_alignment: dict[int, tuple[Fraction, Fraction]] = {}
    h_perp = f2.nullspace_basis(list(spec.h_basis), spec.n) if spec.k else None
    perp_elems = f2.subspace_elements(h_perp).tolist() if h_perp is not None else list(range(g.order))
    h_hat = 1 << spec.k
    for k in (2, 3):
        phi_hat = dft(phi_k(A, k)).values
        expected = h_hat ** (k + 1)
        vals = [Fraction(int(phi_hat[chi]), expected) for chi in perp_elems if chi]
        if vals:
            phi_alignment[k] = (min(vals), max(vals))
    return HLambdaReport(spec=spec, records=records, ratios=ratios, phi_alignment=phi_alignment)


# -- finite fields and Katz index sets --------------------------------------------


def _poly_trim(p: tuple[int, ...]) -> tuple[int, ...]:
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return p[:i]


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    # m is monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _poly_trim(tuple(a))


def _poly_digits(idx: int, p: int, deg: int) -> tuple[int, ...]:
    """The polynomial of degree < deg whose base-p digits are idx, constant first."""
    return tuple(idx // p**i % p for i in range(deg))


def _poly_is_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree up to deg(m)/2."""
    d = len(m) - 1
    if d <= 0:
        return False
    for deg in range(1, d // 2 + 1):
        for idx in range(p**deg):
            if not _poly_mod(m, _poly_digits(idx, p, deg) + (1,), p):
                return False
    return True


@dataclass(frozen=True)
class FiniteField:
    """F_{p^d} as F_p[x] mod a monic irreducible, with a full log table.

    Elements are coefficient tuples (constant term first, length <= d).
    log_table maps every nonzero element to its discrete logarithm base the
    generator.
    """

    p: int
    d: int
    modulus: tuple[int, ...]
    generator: tuple[int, ...]
    log_table: dict[tuple[int, ...], int]

    @property
    def order(self) -> int:
        return self.p**self.d - 1

    def ind(self, e: tuple[int, ...]) -> int:
        return self.log_table[_poly_trim(e)]


def _element_order_full(
    e: tuple[int, ...], modulus: tuple[int, ...], p: int, n: int, factors: list[int]
) -> bool:
    """Does e generate the full multiplicative group of order n?"""

    def pow_mod(base: tuple[int, ...], exp: int) -> tuple[int, ...]:
        result = (1,)
        cur = base
        while exp:
            if exp & 1:
                result = _poly_mod(_poly_mul(result, cur, p), modulus, p)
            cur = _poly_mod(_poly_mul(cur, cur, p), modulus, p)
            exp >>= 1
        return result

    if pow_mod(e, n) != (1,):
        return False
    return all(pow_mod(e, n // q) != (1,) for q in factors)


def make_finite_field(p: int, d: int) -> FiniteField:
    """Deterministic field: lex-smallest monic irreducible modulus, and the
    lex-smallest full-order generator."""
    # the cap first, without p^d past d = 20: it bounds p by 2^20, so the
    # trial division below takes at most 2^10 steps
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if p > 1 and (d > 20 or p**d > 1 << 20):
        raise SizeLimitError(f"field order {p}^{d} past the cap 2^20")
    if prime_factors(p) != [p]:
        raise ValueError(f"{p} is not prime")
    modulus = None
    for idx in range(p**d):
        cand = _poly_digits(idx, p, d) + (1,)
        if _poly_is_irreducible(cand, p):
            modulus = cand
            break
    if modulus is None:
        raise AssertionError("no monic irreducible of the requested degree")
    n = p**d - 1
    factors = sorted(set(prime_factors(n)))

    generator = None
    for idx in range(1, p**d):
        e = _poly_trim(_poly_digits(idx, p, d))
        if _element_order_full(e, modulus, p, n, factors):
            generator = e
            break
    if generator is None:
        raise AssertionError("no generator found; the multiplicative group is cyclic")
    log_table: dict[tuple[int, ...], int] = {}
    cur = (1,)
    for i in range(n):
        if cur in log_table:
            raise AssertionError("generator order is below the group order")
        log_table[cur] = i
        cur = _poly_mod(_poly_mul(cur, generator, p), modulus, p)
    if cur != (1,):
        raise AssertionError("generator does not close the cycle")
    return FiniteField(p=p, d=d, modulus=modulus, generator=generator, log_table=log_table)


def make_katz_set(field: FiniteField) -> GroupSet:
    """A = {ind(g + j) : j = 0..p-1} inside Z_{p^d - 1}."""
    if field.d < 2:
        raise ValueError("need d >= 2 so that g + j never vanishes")
    g = make_group([field.order])
    members = []
    for j in range(field.p):
        e = list(field.generator) + [0] * (field.d - len(field.generator))
        e[0] = (e[0] + j) % field.p
        e = _poly_trim(tuple(e))
        if not e:
            raise AssertionError("g + j vanished; impossible for d >= 2")
        members.append(field.ind(e))
    out = group_set(g, members)
    if len(out) != field.p:
        raise AssertionError("index set lost elements; ind must be injective")
    return out


@dataclass
class KatzReport:
    peak_sq: int | float  # upper end of the peak's enclosure
    bound_sq: int
    records: list[CheckRecord]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)


def verify_katz_bound(A: GroupSet, field: FiniteField) -> KatzReport:
    """Require the peak bound (d-1) sqrt(p) and report the derived chain.

    The bound is a theorem for these sets, so a proven excess raises its
    CheckFailure: the lower end of the peak's enclosure above it.  The
    chain: peak^2 <= (d-1)^2 |A| <= (d-1)^2 |A|^2 / K, plus the smallness
    comparison K^2 |A| / N vs |A|^3 / N.
    """
    p, d = field.p, field.d
    a = len(A)
    n = A.group.order
    peak = A.peak
    bound_sq = (d - 1) ** 2 * p
    k = Fraction(A.diff_size, a)
    records = [
        require(record_le("index-set peak bound", "family:katz_peak", peak.lo, bound_sq,
                          note=f"(d-1)^2 p = {bound_sq}")),
        record_le(
            "peak capacity via |A|",
            "family:katz_chain_a",
            peak.lo,
            (d - 1) ** 2 * a,
        ),
        record_le(
            "doubling relaxation",
            "family:katz_chain_k",
            Fraction((d - 1) ** 2 * a),
            (d - 1) ** 2 * a * a / k,
            note="K <= |A| always",
        ),
        record_le(
            "smallness comparison",
            "family:katz_smallness",
            k * k * Fraction(a, n),
            Fraction(a**3, n),
        ),
    ]
    return KatzReport(peak_sq=peak.hi, bound_sq=bound_sq, records=records)


# -- random and planted instances --------------------------------------------------


def make_random_set(g: GroupSpec, size: int, seed: int) -> GroupSet:
    if not 0 <= size <= g.order:
        raise ValueError(f"size must lie in [0, {g.order}]")
    rng = random.Random(seed)
    return group_set(g, rng.sample(range(g.order), size))


@dataclass(frozen=True)
class PlantedInstance:
    set: GroupSet
    subgroup: GroupSet
    coset_reps: tuple[int, ...]
    noise: tuple[int, ...]


def make_planted(
    g: GroupSpec, subgroup_dim: int, cosets: int, noise: int, seed: int
) -> PlantedInstance:
    """Union of cosets of a random subgroup plus noise points, on a 2-group.

    The composition is recorded so tests can recover the planted structure.
    """
    if not g.is_boolean_space:
        raise ValueError("planted instances live on 2-groups")
    if not 1 <= subgroup_dim <= g.rank:
        raise ValueError("subgroup dimension out of range")
    if cosets < 1:
        raise ValueError("need at least one coset")
    rng = random.Random(seed)
    rref = f2.echelon_basis(_independent_draws(rng, g, (), subgroup_dim))
    sub = GroupSet(g, np.sort(f2.subspace_elements(rref)))
    reps: list[int] = []
    labels: set[int] = set()
    attempts = 0
    while len(reps) < cosets:
        attempts += 1
        if attempts > 10000 * cosets:
            raise ValueError("not enough distinct cosets available")
        z = rng.randrange(g.order)
        label = f2.reduce_in_basis(rref, z)[1]
        if label not in labels:
            labels.add(label)
            reps.append(z)
    members = {x ^ z for x in sub.members.tolist() for z in reps}
    noise_points: list[int] = []
    while len(noise_points) < noise:
        v = rng.randrange(g.order)
        if v not in members:
            members.add(v)
            noise_points.append(v)
    return PlantedInstance(
        set=group_set(g, members),
        subgroup=sub,
        coset_reps=tuple(reps),
        noise=tuple(noise_points),
    )
