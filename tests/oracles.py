"""Brute-force reference implementations used to cross-check the package.

Everything here is written the slow, obvious way on purpose: direct
character sums, double loops over set members, explicit norm comparisons
with Fraction arithmetic.  No numpy transforms, no bitset tricks.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from addcomb.groups import GroupSpec
from addcomb.setstat import GroupSet


def dft_direct(g: GroupSpec, values) -> list[complex]:
    """fhat(t) = sum_x f(x) conj(chi_t(x)), one character sum per t."""
    n = g.order
    out = []
    for t in range(n):
        tc = g.unindex(t)
        acc = 0j
        for x in range(n):
            xc = g.unindex(x)
            phase = sum(Fraction(a * b, f) for a, b, f in zip(tc, xc, g.factors))
            acc += complex(values[x]) * cmath.exp(-2j * cmath.pi * float(phase))
        out.append(acc)
    return out


def walsh_direct(values) -> list:
    """The Walsh-Hadamard transform sum_x f(x) (-1)^popcount(x & t) of a
    list of 2^n Python numbers, by the textbook in-place butterfly on a
    list: span 1 first, each level replacing the pair (x, y) of entries h
    apart by (x + y, x - y).  Exact on ints; on complex values it rounds
    as that butterfly does, one addition per entry per level."""
    out = list(values)
    h = 1
    while h < len(out):
        for base in range(0, len(out), 2 * h):
            for j in range(base, base + h):
                x, y = out[j], out[j + h]
                out[j], out[j + h] = x + y, x - y
        h *= 2
    return out


def dft_entry_fsum(g: GroupSpec, values, t: int) -> complex:
    """fhat(t) summed by math.fsum over the support of values.  The phase
    t . x is reduced exactly, as an integer mod N, before its one float
    step, so the sum is within a few ulps of sum |f(x)| of the exact value."""
    n = g.order
    tc = g.unindex(t)
    re, im = [], []
    for x, v in enumerate(values):
        if v:
            r = sum(a * b * (n // f) for a, b, f in zip(tc, g.unindex(x), g.factors)) % n
            angle = 2 * math.pi * r / n
            re.append(v * math.cos(angle))
            im.append(-v * math.sin(angle))
    return complex(math.fsum(re), math.fsum(im))


def corr_direct(A: GroupSet, B: GroupSet) -> list[int]:
    """(B o A)(x) = |B intersect (A + x)| by scanning all pairs: each pair
    (a, b) lies in it at x = b - a."""
    g = A.group
    out = [0] * g.order
    for a in A.members.tolist():
        for b in B.members.tolist():
            out[g.sub_index(b, a)] += 1
    return out


def conv_direct(A: GroupSet, B: GroupSet) -> list[int]:
    """#{(a, b) : a + b = x} for every x, by scanning all pairs."""
    g = A.group
    out = [0] * g.order
    for a in A.members.tolist():
        for b in B.members.tolist():
            out[g.add_index(a, b)] += 1
    return out


def sorted_set(indices) -> list[int]:
    """The distinct indices as a sorted list of Python ints: what a set's
    members spell out."""
    return sorted({int(i) for i in indices})


def translate_direct(A: GroupSet, x: int) -> list[int]:
    g = A.group
    return sorted_set(g.add_index(a, x) for a in A.members.tolist())


def neg_direct(A: GroupSet) -> list[int]:
    return sorted_set(A.group.neg_index(a) for a in A.members.tolist())


def slice_direct(A: GroupSet, x: int) -> list[int]:
    """A_x = A intersect (A + x): the y in A with y - x in A."""
    g = A.group
    a = set(A.members.tolist())
    return sorted_set(y for y in a if g.sub_index(y, x) in a)


def sumset_direct(A: GroupSet, B: GroupSet) -> set[int]:
    g = A.group
    return {g.add_index(a, b) for a in A.members.tolist() for b in B.members.tolist()}


def katz_koester_direct(
    A: GroupSet, B: GroupSet, x: int, sums: GroupSet | None = None
) -> tuple[int, int, bool]:
    """(|B + A_x|, |S_x|, B + A_x <= S_x) with S = A + B unless given, from
    the definitions X_x = X intersect (X + x) on Python sets."""
    g = A.group
    a = set(A.members.tolist())
    s = sumset_direct(A, B) if sums is None else set(sums.members.tolist())
    a_x = {y for y in a if g.sub_index(y, x) in a}
    left = {g.add_index(b, y) for b in B.members.tolist() for y in a_x}
    right = {y for y in s if g.sub_index(y, x) in s}
    return len(left), len(right), left <= right


def difference_direct(A: GroupSet, B: GroupSet) -> set[int]:
    g = A.group
    return {g.sub_index(a, b) for a in A.members.tolist() for b in B.members.tolist()}


def energy_direct(A: GroupSet, B: GroupSet) -> int:
    """Quadruples (a1, b1, a2, b2) with a1 - b1 = a2 - b2."""
    g = A.group
    diffs = Counter(g.sub_index(a, b) for a in A.members.tolist() for b in B.members.tolist())
    return sum(m * m for m in diffs.values())


def higher_energy_direct(A: GroupSet, k: int) -> int:
    corr = corr_direct(A, A)
    return sum(v**k for v in corr)


def peak_direct(A: GroupSet) -> float:
    """max |Ahat(t)|^2 over t != 0, via the direct transform."""
    g = A.group
    values = [1 if i in set(A.members.tolist()) else 0 for i in range(g.order)]
    spectrum = dft_direct(g, values)
    return max(abs(w) ** 2 for w in spectrum[1:])


def f2_rank(vectors) -> int:
    """Rank over GF(2) of bitmask vectors, by eliminating each vector's
    highest set bit against the pivot stored for that bit."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def bohr_members_direct(g: GroupSpec, gamma, eps) -> set[int]:
    """Membership from the definition: every scaled phase strictly below
    its radius.  ||gamma . x|| is computed as an exact Fraction of N."""
    eps = [Fraction(e) for e in eps]
    members = set()
    for x in range(g.order):
        xc = g.unindex(x)
        ok = True
        for t, e in zip(gamma, eps):
            tc = g.unindex(t)
            phase = sum(Fraction(a * b, f) for a, b, f in zip(tc, xc, g.factors)) % 1
            if min(phase, 1 - phase) >= e:
                ok = False
                break
        if ok:
            members.add(x)
    return members


def span_direct(g: GroupSpec, lam) -> set[int]:
    """All {0, +1, -1} combinations of the given frequencies."""
    acc = {0}
    for t in lam:
        nt = g.neg_index(t)
        acc = {g.add_index(s, c) for s in acc for c in (0, t, nt)}
    return acc


def dissociated_direct(g: GroupSpec, members) -> bool:
    """No nontrivial {0, +1, -1} combination vanishes."""
    members = list(members)
    total = [(0, ())]
    for t in members:
        nt = g.neg_index(t)
        total = [
            (g.add_index(s, c), coeffs + (sign,))
            for s, coeffs in total
            for c, sign in ((0, 0), (t, 1), (nt, -1))
        ]
    return not any(s == 0 and any(coeffs) for s, coeffs in total)


def vanishing_signed_sums(g: GroupSpec, members) -> int:
    """How many {0, +1, -1} combinations of the members vanish, counting the
    empty one; the members are dissociated iff this is 1.  Enumerates all
    3^k sums, coordinate by coordinate, as numpy arrays."""
    acc = [np.zeros(1, dtype=np.int64) for _ in g.factors]
    for t in members:
        tc = g.unindex(t)
        acc = [
            np.concatenate((a, (a + c) % n, (a - c) % n))
            for a, c, n in zip(acc, tc, g.factors)
        ]
    zero = np.ones(len(acc[0]), dtype=bool)
    for a in acc:
        zero &= a == 0
    return int(zero.sum())
