"""Brute-force reference implementations used to cross-check the package.

Everything here is written the slow, obvious way on purpose: direct
character sums, double loops over set members, explicit norm comparisons
with Fraction arithmetic.  No numpy transforms, no bitset tricks.
"""

from __future__ import annotations

import cmath
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


def corr_direct(A: GroupSet, B: GroupSet) -> list[int]:
    """(B o A)(x) = |B intersect (A + x)| by scanning all pairs."""
    g = A.group
    out = [0] * g.order
    b = set(B.members)
    for a in A.members:
        for x in range(g.order):
            if g.add_index(a, x) in b:
                out[x] += 1
    return out


def sumset_direct(A: GroupSet, B: GroupSet) -> set[int]:
    g = A.group
    return {g.add_index(a, b) for a in A.members for b in B.members}


def difference_direct(A: GroupSet, B: GroupSet) -> set[int]:
    g = A.group
    return {g.sub_index(a, b) for a in A.members for b in B.members}


def energy_direct(A: GroupSet, B: GroupSet) -> int:
    """Quadruples (a1, b1, a2, b2) with a1 - b1 = a2 - b2."""
    g = A.group
    diffs = Counter(g.sub_index(a, b) for a in A.members for b in B.members)
    return sum(m * m for m in diffs.values())


def higher_energy_direct(A: GroupSet, k: int) -> int:
    corr = corr_direct(A, A)
    return sum(v**k for v in corr)


def peak_direct(A: GroupSet) -> float:
    """max |Ahat(t)|^2 over t != 0, via the direct transform."""
    g = A.group
    values = [1 if i in set(A.members) else 0 for i in range(g.order)]
    spectrum = dft_direct(g, values)
    return max(abs(w) ** 2 for w in spectrum[1:])


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
