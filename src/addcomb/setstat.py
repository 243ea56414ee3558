"""Subset statistics: sumsets, slices, additive energies, exact inequality checks.

All cardinalities and energies are Python integers, densities and doubling
constants exact fractions, so every inequality asserted here is decided
exactly.  On 2-groups the heavy counting routes through the integer
Walsh-Hadamard transform; elsewhere through vectorised index arithmetic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .groups import (
    GroupMismatchError,
    GroupSpec,
    SizeLimitError,
    add_index_many,
    neg_index_many,
    sub_index_many,
    xor_translate_mask,
)
from .harmonic import FunctionTable, dft, indicator, wht_int
from .report import CheckRecord, record_eq, record_ge, record_le, require

_PAIR_LOOP_MAX = 1 << 26


@dataclass(frozen=True)
class GroupSet:
    """Subset of a group, stored as strictly sorted element indices."""

    group: GroupSpec
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.group.order
        prev = -1
        for i in self.members:
            if not prev < i < n:
                raise GroupMismatchError(
                    "members must be strictly sorted element indices in range"
                )
            prev = i

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.index_set

    @property
    def index_set(self) -> frozenset[int]:
        cached = self.__dict__.get("_index_set")
        if cached is None:
            cached = frozenset(self.members)
            object.__setattr__(self, "_index_set", cached)
        return cached

    @property
    def mask(self) -> int:
        cached = self.__dict__.get("_mask")
        if cached is None:
            bits = np.zeros(self.group.order, dtype=np.uint8)
            if self.members:
                bits[np.asarray(self.members, dtype=np.int64)] = 1
            cached = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
            object.__setattr__(self, "_mask", cached)
        return cached

    def as_array(self) -> np.ndarray:
        return np.asarray(self.members, dtype=np.int64)

    def indicator(self) -> FunctionTable:
        return indicator(self.group, self.members)

    def translate(self, x: int) -> "GroupSet":
        g = self.group
        if not self.members:
            return self
        return GroupSet(g, tuple(sorted(int(v) for v in add_index_many(g, self.as_array(), x))))

    def neg(self) -> "GroupSet":
        g = self.group
        if not self.members or g.is_boolean_space:
            return self
        return GroupSet(g, tuple(sorted(int(v) for v in neg_index_many(g, self.as_array()))))


def group_set(g: GroupSpec, members: Iterable[int]) -> GroupSet:
    return GroupSet(g, tuple(sorted(set(int(i) for i in members))))


def group_set_from_elements(g: GroupSpec, elements: Iterable[Sequence[int]]) -> GroupSet:
    return group_set(g, (g.index(g.element(tuple(e))) for e in elements))


def full_set(g: GroupSpec) -> GroupSet:
    return GroupSet(g, tuple(range(g.order)))


def set_from_mask(g: GroupSpec, mask: int) -> GroupSet:
    return GroupSet(g, _mask_to_indices(mask, g.order))


def _mask_to_indices(mask: int, order: int) -> tuple[int, ...]:
    nbytes = (order + 7) // 8
    raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little", count=order)
    return tuple(int(v) for v in np.nonzero(bits)[0])


# -- counting kernels -----------------------------------------------------------


def corr_counts(A: GroupSet, B: GroupSet | None = None) -> list[int]:
    """(A o B)(x) = |B intersect (A + x)| = #{(a, b) : b - a = x}, exactly."""
    if B is None:
        B = A
    if A.group != B.group:
        raise GroupMismatchError("sets live on different groups")
    g = A.group
    n = g.order
    if not A.members or not B.members:
        return [0] * n
    if g.is_boolean_space:
        ah = wht_int(g, A.indicator().values)
        bh = wht_int(g, B.indicator().values)
        back = wht_int(g, [a * b for a, b in zip(ah, bh)])
        return [v // n for v in back]
    counts = np.zeros(n, dtype=np.int64)
    if len(A) <= len(B):
        b_arr = B.as_array()
        for a in A.members:
            counts += np.bincount(sub_index_many(g, b_arr, a), minlength=n)
    else:
        a_arr = A.as_array()
        for b in B.members:
            counts += np.bincount(neg_index_many(g, sub_index_many(g, a_arr, b)), minlength=n)
    return [int(v) for v in counts]


def conv_counts(A: GroupSet, B: GroupSet) -> list[int]:
    """Number of pairs (a, b) with a + b = x, for every x."""
    if A.group != B.group:
        raise GroupMismatchError("sets live on different groups")
    g = A.group
    n = g.order
    if not A.members or not B.members:
        return [0] * n
    if g.is_boolean_space:
        return corr_counts(A, B)
    counts = np.zeros(n, dtype=np.int64)
    small, big = (A, B) if len(A) <= len(B) else (B, A)
    big_arr = big.as_array()
    for a in small.members:
        counts += np.bincount(add_index_many(g, big_arr, a), minlength=n)
    return [int(v) for v in counts]


def sumset(A: GroupSet, B: GroupSet) -> GroupSet:
    """A + B."""
    if A.group != B.group:
        raise GroupMismatchError("sets live on different groups")
    g = A.group
    if not A.members or not B.members:
        return GroupSet(g, ())
    if g.is_boolean_space:
        small, big = (A, B) if len(A) <= len(B) else (B, A)
        acc = 0
        bm = big.mask
        for a in small.members:
            acc |= xor_translate_mask(bm, a, g.rank)
        return set_from_mask(g, acc)
    if len(A) * len(B) <= 4096:
        out = {g.add_index(a, b) for a in A.members for b in B.members}
        return GroupSet(g, tuple(sorted(out)))
    counts = conv_counts(A, B)
    return GroupSet(g, tuple(i for i, c in enumerate(counts) if c))


def difference_set(A: GroupSet, B: GroupSet) -> GroupSet:
    """A - B."""
    return sumset(A, B.neg())


def slice_set(A: GroupSet, x: int) -> GroupSet:
    """A_x = A intersect (A + x); its size is the autocorrelation at x."""
    g = A.group
    if g.is_boolean_space:
        return set_from_mask(g, A.mask & xor_translate_mask(A.mask, x, g.rank))
    if not A.members:
        return A
    shifted = set(int(v) for v in add_index_many(g, A.as_array(), x))
    return GroupSet(g, tuple(sorted(A.index_set & shifted)))


def doubling_constant(A: GroupSet) -> Fraction:
    """K[A] = |A - A| / |A|."""
    if not A.members:
        raise ValueError("doubling constant needs a nonempty set")
    return Fraction(len(difference_set(A, A)), len(A))


def peak_coefficient(A: GroupSet) -> tuple[int | float, int]:
    """Largest nonprincipal squared transform value and its frequency index.

    Exact integer on 2-groups; a float elsewhere.  Ties break toward the
    smallest character index.  A = G returns 0 at index 1.
    """
    if not A.members:
        raise ValueError("peak coefficient needs a nonempty set")
    g = A.group
    fhat = dft(A.indicator())
    if fhat.kind == "int":
        best, arg = None, 1
        for i in range(1, g.order):
            v = fhat.values[i] * fhat.values[i]
            if best is None or v > best:
                best, arg = v, i
        return best, arg
    best_f, arg = None, 1
    for i in range(1, g.order):
        v = abs(fhat.values[i]) ** 2
        if best_f is None or v > best_f:
            best_f, arg = v, i
    return best_f, arg


def energy(A: GroupSet, B: GroupSet | None = None) -> int:
    """E(A, B) = number of quadruples with a1 - b1 = a2 - b2, exactly."""
    if B is None:
        B = A
    counts = corr_counts(B, A)
    return sum(c * c for c in counts)


def higher_energy(A: GroupSet, k: int) -> int:
    """E_k(A) = sum_x (A o A)(x)^k."""
    if k < 2:
        raise ValueError("need k >= 2")
    hist = Counter(corr_counts(A, A))
    return sum(mult * v**k for v, mult in hist.items() if v)


# -- inequality checks -----------------------------------------------------------


def check_katz_koester(A: GroupSet, B: GroupSet, x: int) -> CheckRecord:
    """Containment of B + A_x inside (A+B)_x, verified element by element."""
    left = sumset(B, slice_set(A, x))
    right = slice_set(sumset(A, B), x)
    ok = left.index_set <= right.index_set
    return CheckRecord(
        name=f"slice sum containment at x={x}",
        ref="inclusion:katz-koester",
        lhs=str(len(left)),
        rhs=str(len(right)),
        ok=ok,
        margin=None,
        note="B + A_x inside (A+B)_x",
    )


@dataclass
class TriangleReport:
    lhs: int
    rhs: int
    holds: bool
    margin: Fraction | None


def check_generalized_triangle(
    g: GroupSpec,
    W: Sequence[Sequence[int]],
    Y: Sequence[Sequence[int]],
    X: Sequence[int],
    Z: Sequence[int],
) -> TriangleReport:
    """|W||X| * |Y - diag(Z)| <= |(W, Y, Z) - diag(X)| by exhaustive tuple arithmetic.

    W and Y are families of index tuples (lengths 1 or 2); X and Z are plain
    index sequences.  Tuples are encoded base-N for set membership.
    """
    # the inequality compares set cardinalities, so duplicates must not count
    Wt = sorted(set(tuple(int(c) for c in w) for w in W))
    Yt = sorted(set(tuple(int(c) for c in y) for y in Y))
    Xs = sorted(set(int(x) for x in X))
    Zs = sorted(set(int(z) for z in Z))
    if not Wt or not Yt or not Xs or not Zs:
        raise ValueError("all four families must be nonempty")
    k1, k2 = len(Wt[0]), len(Yt[0])
    if not (1 <= k1 <= 2 and 1 <= k2 <= 2):
        raise ValueError("tuple lengths must be 1 or 2")
    if any(len(w) != k1 for w in Wt) or any(len(y) != k2 for y in Yt):
        raise ValueError("ragged tuple family")
    for fam in (Wt, Yt, Xs, Zs):
        if len(fam) > 1000:
            raise SizeLimitError("triangle check capped at 1000 members per family")
    if len(Wt) * len(Yt) * len(Xs) * len(Zs) > _PAIR_LOOP_MAX:
        raise SizeLimitError("triangle check product too large")
    n = g.order

    def enc(parts: Iterable[int]) -> int:
        out = 0
        for p in parts:
            out = out * n + p
        return out

    y_diag = {enc(g.sub_index(c, z) for c in y) for y in Yt for z in Zs}
    lhs = len(Wt) * len(Xs) * len(y_diag)
    big = set()
    for x in Xs:
        w_shift = [enc(g.sub_index(c, x) for c in w) for w in Wt]
        y_shift = [tuple(g.sub_index(c, x) for c in y) for y in Yt]
        z_shift = [g.sub_index(z, x) for z in Zs]
        for head_w in w_shift:
            for y in y_shift:
                head = head_w
                for c in y:
                    head = head * n + c
                for zc in z_shift:
                    big.add(head * n + zc)
    rhs = len(big)
    margin = Fraction(rhs, lhs) if lhs else None
    return TriangleReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs, margin=margin)


@dataclass
class EnergyBoundReport:
    k: int
    e_k_b: int
    e_a_s: int
    diff_size: int
    lhs: int
    rhs: int
    margin: Fraction
    holds: bool


def check_energy_difference_bound(A: GroupSet, B: GroupSet, k: int) -> EnergyBoundReport:
    """E_k(B) * E(A, A+B)^k >= |A|^(2k+1) |B|^(2k) / K' with K' = |A-A|/|A|.

    Compared with cleared denominators:
    E_k(B) * E(A, A+B)^k * |A-A| >= |A|^(2k+2) * |B|^(2k).
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if not A.members or not B.members:
        raise ValueError("both sets must be nonempty")
    a, b = len(A), len(B)
    s = sumset(A, B)
    e_a_s = energy(A, s)
    e_k_b = higher_energy(B, k)
    diff = len(difference_set(A, A))
    lhs = e_k_b * e_a_s**k * diff
    rhs = a ** (2 * k + 2) * b ** (2 * k)
    return EnergyBoundReport(
        k=k,
        e_k_b=e_k_b,
        e_a_s=e_a_s,
        diff_size=diff,
        lhs=lhs,
        rhs=rhs,
        margin=Fraction(lhs, rhs),
        holds=lhs >= rhs,
    )


# -- profile ----------------------------------------------------------------------


@dataclass
class SetProfile:
    group: GroupSpec
    size: int
    density: Fraction
    diff_size: int
    doubling: Fraction
    peak_sq: int | float
    peak_char: int
    energy: int
    higher: dict[int, int]
    sum_size: int | None
    sum_doubling: Fraction | None
    omega: Fraction | None
    checks: list[CheckRecord] = field(default_factory=list)
    diagnostics: list[CheckRecord] = field(default_factory=list)


def profile(
    A: GroupSet,
    B: GroupSet | None = None,
    energy_orders: Sequence[int] = (2, 3, 4),
) -> SetProfile:
    """Aggregate statistics; unconditional consistency checks are asserted,
    asymptotic idealizations are reported as diagnostics only."""
    if not A.members:
        raise ValueError("cannot profile the empty set")
    g = A.group
    n = g.order
    a = len(A)
    hist = Counter(v for v in corr_counts(A, A) if v)
    diff_size = sum(hist.values())
    e2 = sum(m * v * v for v, m in hist.items())
    orders = sorted(set(int(k) for k in energy_orders) | {2})
    if orders[0] < 2:
        raise ValueError("energy orders start at 2")
    higher = {k: sum(m * v**k for v, m in hist.items()) for k in orders}
    peak_sq, peak_char = peak_coefficient(A)
    dbl = Fraction(diff_size, a)
    checks: list[CheckRecord] = []
    diagnostics: list[CheckRecord] = []

    checks.append(require(record_eq(
        "slice sizes resum to |A|^2", "slice:total",
        sum(v * m for v, m in hist.items()), a * a,
    )))
    checks.append(require(record_ge(
        "energy against difference size", "energy:lower",
        e2 * diff_size, a**4,
    )))
    for k1, k2 in zip(orders, orders[1:]):
        checks.append(require(record_le(
            "energy grows at most |A| per order", "energy:monotone",
            higher[k2], a ** (k2 - k1) * higher[k1],
        )))
    checks.append(require(record_ge(
        "doubling at least 1", "doubling:range", dbl, 1,
    )))
    checks.append(require(record_le(
        "doubling within range", "doubling:range",
        dbl, min(Fraction(a), Fraction(n, a)),
    )))
    # Exact peak lower bound from Parseval + Cauchy-Schwarz:
    #   peak^2 * |A-A| * (N - |A|) >= |A|^3 * (N - |A-A|); tight on subgroups.
    rhs_peak = a**3 * (n - diff_size)
    if isinstance(peak_sq, int):
        checks.append(require(record_ge(
            "peak squared lower bound", "peak:parseval-lower",
            peak_sq * diff_size * (n - a), rhs_peak,
        )))
    else:
        lhs_f = peak_sq * diff_size * (n - a)
        checks.append(require(record_ge(
            "peak squared lower bound", "peak:parseval-lower",
            lhs_f * (1 + 1e-9) + 1e-9, rhs_peak,
            note="float transform path, relative guard 1e-9",
        )))
    # Idealized asymptotic form, reported but never asserted.
    diagnostics.append(record_ge(
        "peak squared, idealized form", "peak:idealized",
        Fraction(peak_sq) if isinstance(peak_sq, int) else peak_sq,
        Fraction(a * a) / dbl - a,
        note="diagnostic only; the exact surrogate above is what is asserted",
    ))

    sum_size = None
    sum_doubling = None
    omega = None
    if B is not None:
        if not B.members:
            raise ValueError("cannot profile against an empty companion set")
        sum_size = len(sumset(A, B))
        sum_doubling = Fraction(sum_size, a)
        omega = Fraction(len(B), a)

    return SetProfile(
        group=g,
        size=a,
        density=Fraction(a, n),
        diff_size=diff_size,
        doubling=dbl,
        peak_sq=peak_sq,
        peak_char=peak_char,
        energy=e2,
        higher=higher,
        sum_size=sum_size,
        sum_doubling=sum_doubling,
        omega=omega,
        checks=checks,
        diagnostics=diagnostics,
    )
