"""Brute-force reference implementations used to cross-check the package.

Everything here is written the slow, obvious way on purpose: direct
character sums, double loops over set members, explicit norm comparisons
with Fraction arithmetic.  No numpy transforms, no bitset tricks.  The
group arithmetic is this module's own digit arithmetic on the factor
tuple: from the package it reads only a group's factors, order and rank,
parse_group_text, and a set's members, and calls no GroupSpec method.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from addcomb.groups import GroupSpec, SizeLimitError, parse_group_text
from addcomb.setstat import GroupSet

# -- index arithmetic, from the factor tuple alone -----------------------------
# An index packs coordinates in mixed radix, coordinate 0 the least
# significant digit.  Sums and differences are taken digit by digit; on a
# 2-group they are i ^ j and negation is the identity, which is the group
# law there (and keeps the F2^n oracles fast).


def element_coords(g: GroupSpec, i: int) -> tuple[int, ...]:
    """The coordinates of index i, coordinate 0 first."""
    out = []
    for n in g.factors:
        i, a = divmod(i, n)
        out.append(a)
    return tuple(out)


def _digitwise(g: GroupSpec, i: int, j: int, sign: int) -> int:
    """The index whose digit k is a_k + sign * b_k mod n_k, for the digits
    a of i and b of j."""
    if g.order == 1 << len(g.factors):  # every factor is 2
        return i ^ j
    out, weight = 0, 1
    for n in g.factors:
        i, a = divmod(i, n)
        j, b = divmod(j, n)
        out += (a + sign * b) % n * weight
        weight *= n
    return out


def element_add(g: GroupSpec, i: int, j: int) -> int:
    return _digitwise(g, i, j, 1)


def element_sub(g: GroupSpec, i: int, j: int) -> int:
    return _digitwise(g, i, j, -1)


def element_neg(g: GroupSpec, i: int) -> int:
    return _digitwise(g, 0, i, -1)


def dft_direct(g: GroupSpec, values) -> list[complex]:
    """fhat(t) = sum_x f(x) conj(chi_t(x)), one character sum per t."""
    n = g.order
    out = []
    for t in range(n):
        tc = element_coords(g, t)
        acc = 0j
        for x in range(n):
            xc = element_coords(g, x)
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
    tc = element_coords(g, t)
    re, im = [], []
    for x, v in enumerate(values):
        if v:
            r = sum(a * b * (n // f) for a, b, f in zip(tc, element_coords(g, x), g.factors)) % n
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
            out[element_sub(g, b, a)] += 1
    return out


def conv_direct(A: GroupSet, B: GroupSet) -> list[int]:
    """#{(a, b) : a + b = x} for every x, by scanning all pairs."""
    g = A.group
    out = [0] * g.order
    for a in A.members.tolist():
        for b in B.members.tolist():
            out[element_add(g, a, b)] += 1
    return out


class DirectParseError(Exception):
    """A set file parse_set_direct rejects: its text is "path:line: message"."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


def parse_set_direct(text: str, path: str = "<string>") -> tuple[GroupSpec, list[int]]:
    """The group and sorted element indices of a set file, read one line at
    a time: a line's content is what precedes its first '#', stripped; the
    first content line names the group, each later one is an element whose
    comma-separated coordinates int() reads.  Every element line is checked
    in file order (coordinate count, then each token, then each range), and
    only when all are good is the first line repeating an earlier element
    an error."""
    content = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            content.append((line_no, line))
    if not content:
        raise DirectParseError(path, 1, "missing group line")
    line_no, head = content[0]
    try:
        g = parse_group_text(head)
    except SizeLimitError:
        raise
    except ValueError as exc:
        raise DirectParseError(path, line_no, str(exc)) from None
    elements = []
    for line_no, line in content[1:]:
        parts = line.split(",")
        if len(parts) != len(g.factors):
            raise DirectParseError(path, line_no, f"expected {len(g.factors)} coordinates, got {len(parts)}")
        coords = []
        for part in parts:
            try:
                coords.append(int(part.strip()))
            except ValueError:
                raise DirectParseError(path, line_no, f"bad coordinate in {line!r}") from None
        index, weight = 0, 1
        for c, n in zip(coords, g.factors):
            if c < 0 or c >= n:
                raise DirectParseError(path, line_no, f"coordinate {c} out of range for Z{n}")
            index += c * weight
            weight *= n
        elements.append((line_no, line, index))
    seen = set()
    for line_no, line, index in elements:
        if index in seen:
            raise DirectParseError(path, line_no, f"duplicate element {line!r}")
        seen.add(index)
    return g, sorted(seen)


def coords_direct(g: GroupSpec, idx) -> np.ndarray:
    """The (len, rank) table of coordinates of an index array, one
    element_coords call per index."""
    return np.array([element_coords(g, i) for i in np.asarray(idx).tolist()], dtype=np.int64).reshape(-1, g.rank)


def sorted_set(indices) -> list[int]:
    """The distinct indices as a sorted list of Python ints: what a set's
    members spell out."""
    return sorted({int(i) for i in indices})


def translate_direct(A: GroupSet, x: int) -> list[int]:
    g = A.group
    return sorted_set(element_add(g, a, x) for a in A.members.tolist())


def neg_direct(A: GroupSet) -> list[int]:
    return sorted_set(element_neg(A.group, a) for a in A.members.tolist())


def slice_direct(A: GroupSet, x: int) -> list[int]:
    """A_x = A intersect (A + x): the y in A with y - x in A."""
    g = A.group
    a = set(A.members.tolist())
    return sorted_set(y for y in a if element_sub(g, y, x) in a)


def sumset_direct(A: GroupSet, B: GroupSet) -> set[int]:
    g = A.group
    return {element_add(g, a, b) for a in A.members.tolist() for b in B.members.tolist()}


def katz_koester_direct(
    A: GroupSet, B: GroupSet, x: int, sums: GroupSet | None = None
) -> tuple[int, int, bool]:
    """(|B + A_x|, |S_x|, B + A_x <= S_x) with S = A + B unless given, from
    the definitions X_x = X intersect (X + x) on Python sets."""
    g = A.group
    a = set(A.members.tolist())
    s = sumset_direct(A, B) if sums is None else set(sums.members.tolist())
    a_x = {y for y in a if element_sub(g, y, x) in a}
    left = {element_add(g, b, y) for b in B.members.tolist() for y in a_x}
    right = {y for y in s if element_sub(g, y, x) in s}
    return len(left), len(right), left <= right


def triangle_direct(g: GroupSpec, W, Y, X, Z) -> tuple[int, int]:
    """(|W||X| |Y - diag(Z)|, |(W, Y, Z) - diag(X)|) from the definitions,
    on Python sets of tuples: a tuple minus diag(x) subtracts x from each
    coordinate, and (W, Y, Z) is the set of concatenations w + y + (z,)."""
    W, Y = {tuple(w) for w in W}, {tuple(y) for y in Y}
    X, Z = set(X), set(Z)

    def minus(t, x):
        return tuple(element_sub(g, c, x) for c in t)

    y_diag = {minus(y, z) for y in Y for z in Z}
    big = {minus(w + y + (z,), x) for w in W for y in Y for z in Z for x in X}
    return len(W) * len(X) * len(y_diag), len(big)


def difference_direct(A: GroupSet, B: GroupSet) -> set[int]:
    g = A.group
    return {element_sub(g, a, b) for a in A.members.tolist() for b in B.members.tolist()}


def energy_direct(A: GroupSet, B: GroupSet) -> int:
    """Quadruples (a1, b1, a2, b2) with a1 - b1 = a2 - b2."""
    g = A.group
    diffs = Counter(element_sub(g, a, b) for a in A.members.tolist() for b in B.members.tolist())
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
        xc = element_coords(g, x)
        ok = True
        for t, e in zip(gamma, eps):
            tc = element_coords(g, t)
            phase = sum(Fraction(a * b, f) for a, b, f in zip(tc, xc, g.factors)) % 1
            if min(phase, 1 - phase) >= e:
                ok = False
                break
        if ok:
            members.add(x)
    return members


def phases_direct(g: GroupSpec, gamma) -> np.ndarray:
    """The (d, N) table of v_j(x) = min(c_j, N - c_j) for every character
    gamma_j and element x, where c_j = sum_i t_i x_i (N / f_i) mod N at
    gamma_j = t and x = (x_0, ..., x_{r-1}).  The coordinates of every
    index come from the group description alone: axis 0 is the least
    significant digit, as in element_coords."""
    n = g.order
    rest, coords = np.arange(n, dtype=np.int64), []
    for f in g.factors:
        rest, x = np.divmod(rest, f)
        coords.append(x)
    out = np.zeros((len(gamma), n), dtype=np.int64)
    for j, t in enumerate(gamma):
        c = sum(a * (n // f) * x for a, f, x in zip(element_coords(g, t), g.factors, coords)) % n
        out[j] = np.minimum(c, n - c)
    return out


def bohr_members_int_direct(g: GroupSpec, gamma, eps) -> set[int]:
    """bohr_members_direct in integers, for groups where Fractions are too
    slow: the phase of gamma at x is c/N with c = sum_i t_i x_i (N / f_i)
    mod N, and ||c/N|| < p/q iff q min(c, N - c) < p N."""
    n = g.order
    rows = []
    for t, e in zip(gamma, eps):
        weights = [a * (n // f) for a, f in zip(element_coords(g, t), g.factors)]
        rows.append((weights, Fraction(e).numerator, Fraction(e).denominator))
    members = set()
    for x in range(n):
        xc = element_coords(g, x)
        ok = True
        for weights, p, q in rows:
            c = sum(w * a for w, a in zip(weights, xc)) % n
            if q * min(c, n - c) >= p * n:
                ok = False
                break
        if ok:
            members.add(x)
    return members


def regularity_grid_direct(g: GroupSpec, gamma, eps) -> tuple[bool, Fraction, list[tuple[Fraction, int]]]:
    """The regularity test of B = B(gamma, eps) on the grid eta = +-i/(1000 d),
    i = 1..10, from the paper's inequality (1 - 100 d|eta|)|B| < |B_(1+eta)|
    < (1 + 100 d|eta|)|B| in Fractions, on bohr_members_direct sizes:
    (regular, the least margin min(|B_(1+eta)| - low, high - |B_(1+eta)|),
    the (eta, |B_(1+eta)|) pairs in grid order, +i before -i)."""
    d = len(gamma)
    base = len(bohr_members_direct(g, gamma, eps))
    regular, worst, sizes = True, None, []
    for i in range(1, 11):
        for eta in (Fraction(i, 1000 * d), Fraction(-i, 1000 * d)):
            size = len(bohr_members_direct(g, gamma, [(1 + eta) * Fraction(e) for e in eps]))
            low = (1 - 100 * d * abs(eta)) * base
            high = (1 + 100 * d * abs(eta)) * base
            regular = regular and low < size < high
            margin = min(size - low, high - size)
            worst = margin if worst is None else min(worst, margin)
            sizes.append((eta, size))
    return regular, worst, sizes


def regular_radius_direct(g: GroupSpec, gamma, eps, rounds) -> Fraction | None:
    """The first factor rho of the sweep find_regular_radius documents (per
    round of `points`, rho_i = 2^(-(i + 1)/(points + 1)) rounded to a
    multiple of 2^-30, kept in (1/2, 1) and not seen in an earlier round)
    at which B(gamma, rho eps) passes regularity_grid_direct; None when no
    candidate passes."""
    seen = set()
    for points in rounds:
        for i in range(points):
            rho = Fraction(round(2 ** (-(i + 1) / (points + 1)) * 2**30), 2**30)
            if not Fraction(1, 2) < rho < 1 or rho in seen:
                continue
            seen.add(rho)
            if regularity_grid_direct(g, gamma, [rho * Fraction(e) for e in eps])[0]:
                return rho
    return None


def span_direct(g: GroupSpec, lam) -> set[int]:
    """All {0, +1, -1} combinations of the given frequencies."""
    acc = {0}
    for t in lam:
        nt = element_neg(g, t)
        acc = {element_add(g, s, c) for s in acc for c in (0, t, nt)}
    return acc


def span_mass_direct(phi_hat, b_hat, span) -> float:
    """The float spectral mass sum over t in span of Re phi_hat(t) |b_hat(t)|^2,
    one term at a time: each square by Python's m**2, each term added to an
    accumulator that starts at 0.0, in span order.  That is what sum() over
    the terms gave up to Python 3.11; from 3.12 sum() compensates, so it is
    not called here."""
    acc = 0.0
    for t in span:
        acc += complex(phi_hat[t]).real * abs(complex(b_hat[t])) ** 2
    return acc


def greedy_dissociated_direct(g: GroupSpec, cands) -> list[int]:
    """Walk the candidates in order and keep each one that lies outside
    span_direct of the members kept before it (so 0 and repeats are never
    kept)."""
    kept: list[int] = []
    reach = span_direct(g, kept)
    for c in cands:
        if c not in reach:
            kept.append(c)
            reach = span_direct(g, kept)
    return kept


def dissociated_direct(g: GroupSpec, members) -> bool:
    """No nontrivial {0, +1, -1} combination vanishes."""
    members = list(members)
    total = [(0, ())]
    for t in members:
        nt = element_neg(g, t)
        total = [
            (element_add(g, s, c), coeffs + (sign,))
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
        tc = element_coords(g, t)
        acc = [
            np.concatenate((a, (a + c) % n, (a - c) % n))
            for a, c, n in zip(acc, tc, g.factors)
        ]
    zero = np.ones(len(acc[0]), dtype=bool)
    for a in acc:
        zero &= a == 0
    return int(zero.sum())


def field_mul_direct(p: int, modulus, a, b) -> tuple[int, ...]:
    """a * b in F_p[x] / (modulus), polynomials as coefficient tuples
    (constant term first) and modulus monic: the schoolbook product, then
    long division by the modulus from the top coefficient down.  The
    remainder has its trailing zeros dropped, so 1 is (1,) and 0 is ()."""
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    d = len(modulus) - 1
    for top in range(len(prod) - 1, d - 1, -1):
        q = prod[top] % p
        for j, m in enumerate(modulus):
            prod[top - d + j] -= q * m
    rest = [c % p for c in prod[:d]]
    while rest and rest[-1] == 0:
        rest.pop()
    return tuple(rest)
