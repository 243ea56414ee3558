"""Subset statistics: sumsets, slices, additive energies, exact inequality checks.

All cardinalities and energies are Python integers, densities and doubling
constants exact fractions, so every inequality asserted here is decided
exactly.  A set is its strictly sorted tuple of element indices, read as an
int64 array wherever it is counted.  Every pair count goes through
conv_counts: on 2-groups one inverse integer Walsh-Hadamard transform of
the product of the two sets' cached transforms.  Elsewhere it is the
inverse DFT of that product, rounded, when a cost rule prefers a
transform to a loop (the smaller set has more than
_FFT_COST * N.bit_length() members, and N is within MAX_TRANSFORM_ORDER)
and harmonic.conv_error proves every entry within 1/2 of its integer;
otherwise one bincount pass per member of the smaller set.  Either way the
counts are exact.  corr_counts is conv_counts(-A, B), and sumset is the
support of conv_counts.

The Katz-Koester check (katz_koester_rows) counts A + B once per pair and
reads every displacement x from one index table of y - x: A_x, (A+B)_x and
B + A_x are boolean columns over the group, compared cell by cell, a block
of displacements at a time.  B + A_x is, like conv_counts, one integer
Walsh transform pass on 2-groups and one shifted copy per member of B
elsewhere.  check_katz_koester is its one-row call.

A GroupSet computes the statistics the pipelines read off its
autocorrelation once, on first use, and keeps them on the instance for
as long as the set lives: its transform (the exact integer Walsh
transform on 2-groups, the complex DFT elsewhere), its autocorrelation
A o A as an int64 array, the energy histogram (each distinct nonzero
value of A o A with its multiplicity, as Python ints, so E_k =
sum m * c^k is exact at every k), |A - A| (the support of A o A), |A + A|
(the same number on 2-groups) and the peak coefficient, held as an
enclosure [lo, hi] of |A_hat|^2 from harmonic.transform_error (lo == hi on
2-groups, where the transform is exact).  A.neg() reads its
autocorrelation and its transform off A, since (-A) o (-A) = A o A and
-A's transform is the conjugate of A's, so a set and its negation share
one transform.  The cached arrays are read-only; there is no cache outside
the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .groups import (
    MAX_TRANSFORM_ORDER,
    GroupMismatchError,
    GroupSpec,
    SizeLimitError,
    add_index_many,
    neg_index_many,
    sub_index_many,
)
from .harmonic import (
    FunctionTable,
    conv_error,
    dft,
    idft,
    indicator,
    magnitudes,
    transform_error,
    wht_int,
    wht_int_columns,
)
from .report import CheckRecord, record_eq, record_ge, record_le, require

_PAIR_LOOP_MAX = 1 << 26
_FFT_COST = 4  # conv_counts transforms once the smaller set passes this times N.bit_length()
_KK_BLOCK_ELEMENTS = 1 << 18   # cells per block of katz_koester_rows


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GroupSet:
    """Subset of a group, stored as strictly sorted element indices.

    The statistics below are computed on first use and cached on the
    instance (see the module docstring).
    """

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

    def _cached(self, name: str, compute: Callable[[], object]):
        value = self.__dict__.get(name)
        if value is None:
            value = compute()
            object.__setattr__(self, name, value)
        return value

    @property
    def index_set(self) -> frozenset[int]:
        return self._cached("_index_set", lambda: frozenset(self.members))

    @property
    def transform(self) -> np.ndarray:
        """Transform of the indicator: int64 on 2-groups, complex128 elsewhere.
        A set made by neg() conjugates its source's (see neg)."""

        def compute() -> np.ndarray:
            source = self.__dict__.get("_neg_of")
            if source is not None:
                return _read_only(np.conj(source.transform))
            return _read_only(dft(self.indicator()).values)

        return self._cached("_transform", compute)

    @property
    def autocorr(self) -> np.ndarray:
        """(A o A)(x) = |A intersect (A + x)| for every x, as int64."""

        def compute() -> np.ndarray:
            source = self.__dict__.get("_neg_of")
            return source.autocorr if source is not None else _read_only(corr_counts(self, self))

        return self._cached("_autocorr", compute)

    @property
    def energy_hist(self) -> tuple[tuple[int, int], ...]:
        """Pairs (c, m): the value c > 0 is taken by A o A at m points."""

        def compute() -> tuple[tuple[int, int], ...]:
            ac = self.autocorr
            values, mults = np.unique(ac[ac > 0], return_counts=True)
            return tuple(zip(values.tolist(), mults.tolist()))

        return self._cached("_energy_hist", compute)

    @property
    def diff_size(self) -> int:
        """|A - A|, the support size of A o A."""
        return sum(m for _, m in self.energy_hist)

    @property
    def sum_size(self) -> int:
        """|A + A|; on 2-groups A + A = A - A, so it is diff_size."""
        if self.group.is_boolean_space:
            return self.diff_size
        return self._cached("_sum_size", lambda: len(sumset(self, self)))

    @property
    def peak(self) -> "Peak":
        """peak_coefficient(A), computed once."""
        return self._cached("_peak", lambda: peak_coefficient(self))

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
        """-A.  It reads its autocorrelation and its transform off A, each
        computed once on A: (-A) o (-A) = A o A, and the exact transform of
        -A's real indicator is the conjugate of A's, so the conjugate of
        A's computed transform carries A's transform_error bound.  The
        negation of a set made by neg() is its source."""
        g = self.group
        if not self.members or g.is_boolean_space:
            return self
        source = self.__dict__.get("_neg_of")
        if source is not None:
            return source
        out = GroupSet(g, tuple(np.sort(neg_index_many(g, self.as_array())).tolist()))
        object.__setattr__(out, "_neg_of", self)
        return out


def group_set(g: GroupSpec, members: Iterable[int]) -> GroupSet:
    return GroupSet(g, tuple(sorted(set(int(i) for i in members))))


def full_set(g: GroupSpec) -> GroupSet:
    return GroupSet(g, tuple(range(g.order)))


# -- counting kernels -----------------------------------------------------------


def corr_counts(A: GroupSet, B: GroupSet | None = None) -> np.ndarray:
    """(A o B)(x) = |B intersect (A + x)| = #{(a, b) : b - a = x}, as int64.

    This is conv_counts(-A, B); on 2-groups -A is A itself, so both
    transforms come from the sets' caches.
    """
    return conv_counts(A.neg(), A if B is None else B)


def conv_counts(A: GroupSet, B: GroupSet) -> np.ndarray:
    """Number of pairs (a, b) with a + b = x, for every x, as int64.

    On 2-groups this is one inverse Walsh transform of the product of the
    two sets' cached transforms, exact in integers.  Elsewhere it is the
    rounded real part of the inverse DFT of that product when three things
    hold: the order is at most MAX_TRANSFORM_ORDER; the smaller set has
    more than _FFT_COST * N.bit_length() members, so that a loop over it
    would cost more than a transform; and harmonic.conv_error, a proven
    bound on every entry's float error, is below 1/2, so the rounding is
    exact.  Otherwise it is one bincount pass over the larger set shifted
    by each member of the smaller.
    """
    if A.group != B.group:
        raise GroupMismatchError("sets live on different groups")
    g = A.group
    n = g.order
    if not A.members or not B.members:
        return np.zeros(n, dtype=np.int64)
    if g.is_boolean_space:
        return wht_int(g, A.transform * B.transform) // n
    small, big = (A, B) if len(A) <= len(B) else (B, A)
    if (
        len(small) > _FFT_COST * n.bit_length()
        and n <= MAX_TRANSFORM_ORDER
        and conv_error(g, len(A), len(B)) < 0.5
    ):
        product = FunctionTable(g, A.transform * B.transform, "complex")
        return np.rint(idft(product).values.real).astype(np.int64)
    counts = np.zeros(n, dtype=np.int64)
    big_arr = big.as_array()
    for a in small.members:
        counts += np.bincount(add_index_many(g, big_arr, a), minlength=n)
    return counts


def sumset(A: GroupSet, B: GroupSet) -> GroupSet:
    """A + B, the support of conv_counts(A, B)."""
    return GroupSet(A.group, tuple(np.flatnonzero(conv_counts(A, B)).tolist()))


def sumset_size(A: GroupSet, B: GroupSet) -> int:
    """|A + B|, read from A's cache when B is A."""
    return A.sum_size if B is A else len(sumset(A, B))


def difference_set(A: GroupSet, B: GroupSet) -> GroupSet:
    """A - B."""
    return sumset(A, B.neg())


def slice_set(A: GroupSet, x: int) -> GroupSet:
    """A_x = A intersect (A + x); its size is the autocorrelation at x."""
    arr = A.as_array()
    shifted = add_index_many(A.group, arr, x)
    return GroupSet(A.group, tuple(np.intersect1d(arr, shifted, assume_unique=True).tolist()))


def doubling_constant(A: GroupSet) -> Fraction:
    """K[A] = |A - A| / |A|."""
    if not A.members:
        raise ValueError("doubling constant needs a nonempty set")
    return Fraction(A.diff_size, len(A))


@dataclass(frozen=True)
class Peak:
    """The largest nonprincipal |A_hat(t)|^2, enclosed: lo <= |A_hat(arg)|^2,
    max_t |A_hat(t)|^2 <= hi and 0 <= lo <= hi <= |A|^2.  Integer endpoints
    are ints (lo == hi on 2-groups); others are floats rounded outward."""

    lo: int | float
    hi: int | float
    arg: int


def _outward(q: Fraction, toward: float) -> int | float:
    """q as an int when it is one, else the float nearest q on the side of toward."""
    if q.denominator == 1:
        return q.numerator
    x = float(q)
    return x if (x >= q if toward > 0 else x <= q) else math.nextafter(x, toward)


def peak_coefficient(A: GroupSet) -> Peak:
    """Largest nonprincipal squared transform value, enclosed by the
    transform's proven error, at the first largest computed magnitude (ties
    break toward the smallest index).  A = G gives lo = 0 at index 1.
    GroupSet.peak caches the result."""
    if not A.members:
        raise ValueError("peak coefficient needs a nonempty set")
    mags = magnitudes(A.transform[1:])
    arg = int(np.argmax(mags))
    top = Fraction(mags[arg].item())
    err = Fraction(transform_error(A.indicator()))
    lo = max(top - err, 0) ** 2
    hi = min((top + err) ** 2, len(A) ** 2)
    return Peak(_outward(lo, -math.inf), _outward(hi, math.inf), arg + 1)


def energy(A: GroupSet, B: GroupSet | None = None) -> int:
    """E(A, B) = number of quadruples with a1 - b1 = a2 - b2, exactly."""
    if B is None or B is A:
        return higher_energy(A, 2)
    return sum(c * c for c in corr_counts(B, A).tolist())


def higher_energy(A: GroupSet, k: int) -> int:
    """E_k(A) = sum_x (A o A)(x)^k, from the cached energy histogram."""
    if k < 2:
        raise ValueError("need k >= 2")
    return sum(m * c**k for c, m in A.energy_hist)


# -- inequality checks -----------------------------------------------------------


@dataclass(frozen=True)
class SliceInclusion:
    """The Katz-Koester inclusion B + A_x inside (A+B)_x, one row per
    displacement xs[i]: left[i] = |B + A_x|, right[i] = |(A+B)_x|, and
    holds[i] whether every element of the left side lies in the right."""

    xs: np.ndarray
    left: np.ndarray
    right: np.ndarray
    holds: np.ndarray


def _mask(A: GroupSet) -> np.ndarray:
    out = np.zeros(A.group.order, dtype=bool)
    out[A.as_array()] = True
    return out


def katz_koester_rows(A: GroupSet, B: GroupSet, xs: Sequence[int] | None = None) -> SliceInclusion:
    """B + A_x inside (A+B)_x for every x of xs (A - A when omitted), each
    row decided cell by cell over the group.

    A + B is counted once.  A block of displacements is a table with one
    column per x and one row per element y: A_x and (A+B)_x are read off
    as boolean columns through the table of y - x, B + A_x comes from
    _plus_columns, and x holds iff no cell is in B + A_x and not in
    (A+B)_x.  Blocks hold at most _KK_BLOCK_ELEMENTS cells, at least one
    column.
    """
    if A.group != B.group:
        raise GroupMismatchError("sets live on different groups")
    g = A.group
    xs = np.asarray(difference_set(A, A).members if xs is None else xs, dtype=np.int64)
    if xs.size and not (0 <= xs.min() and xs.max() < g.order):
        raise ValueError("displacements must be element indices in range")
    ys = np.arange(g.order, dtype=np.int64)[:, None]
    a_mask = _mask(A)
    s_mask = _mask(sumset(A, B))
    width = max(1, _KK_BLOCK_ELEMENTS // g.order)
    left = np.empty(len(xs), dtype=np.int64)
    right = np.empty(len(xs), dtype=np.int64)
    holds = np.empty(len(xs), dtype=bool)
    for lo in range(0, len(xs), width):
        block = slice(lo, lo + width)
        shifted = sub_index_many(g, ys, xs[block])
        a_cols = a_mask[shifted] & a_mask[:, None]
        s_cols = s_mask[shifted] & s_mask[:, None]
        left_cols = _plus_columns(B, a_cols)
        left[block] = left_cols.sum(axis=0)
        right[block] = s_cols.sum(axis=0)
        holds[block] = ~(left_cols & ~s_cols).any(axis=0)
    return SliceInclusion(xs=xs, left=left, right=right, holds=holds)


def _plus_columns(B: GroupSet, cols: np.ndarray) -> np.ndarray:
    """B + C for every boolean column C of cols, an (N, k) table.

    On 2-groups: the support of the column convolutions with B, one
    integer Walsh transform of the columns, times B's cached transform,
    transformed back.  A 0/1 column has L1 norm at most N, and
    sum_t |C_hat(t)|^2 = N |C| (Parseval), so by Cauchy-Schwarz the L1 norm
    of C_hat * B_hat is at most N sqrt(|C| |B|) <= N^2 <= 2^48 under the
    order cap: the int64 butterflies are exact.  Elsewhere: the OR over b
    in B of the columns with their rows moved by b (row z of the moved copy
    is row z - b), the row orders read from one table of z - b per chunk
    of B.
    """
    g = B.group
    if g.is_boolean_space:
        cols_hat = wht_int_columns(g, cols.astype(np.int64))
        return wht_int_columns(g, cols_hat * B.transform[:, None]) != 0
    ys = np.arange(g.order, dtype=np.int64)
    b_arr = B.as_array()
    out = np.zeros_like(cols)
    moved = np.empty_like(cols)
    step = max(1, _KK_BLOCK_ELEMENTS // g.order)
    for lo in range(0, len(b_arr), step):
        for rows in sub_index_many(g, ys, b_arr[lo : lo + step, None]):
            np.take(cols, rows, axis=0, out=moved)
            out |= moved
    return out


def check_katz_koester(A: GroupSet, B: GroupSet, x: int) -> CheckRecord:
    """Containment of B + A_x inside (A+B)_x: one row of katz_koester_rows."""
    row = katz_koester_rows(A, B, [x])
    return CheckRecord(
        name=f"slice sum containment at x={x}",
        ref="inclusion:katz-koester",
        lhs=str(int(row.left[0])),
        rhs=str(int(row.right[0])),
        ok=bool(row.holds[0]),
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
    diff = A.diff_size
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
    peak: Peak
    energy: int
    higher: dict[int, int]
    checks: list[CheckRecord] = field(default_factory=list)
    diagnostics: list[CheckRecord] = field(default_factory=list)


def profile(A: GroupSet, energy_orders: Sequence[int] = (2, 3, 4)) -> SetProfile:
    """Aggregate statistics; unconditional consistency checks are asserted,
    asymptotic idealizations are reported as diagnostics only."""
    if not A.members:
        raise ValueError("cannot profile the empty set")
    g = A.group
    n = g.order
    a = len(A)
    diff_size = A.diff_size
    orders = sorted(set(int(k) for k in energy_orders) | {2})
    if orders[0] < 2:
        raise ValueError("energy orders start at 2")
    higher = {k: higher_energy(A, k) for k in orders}
    e2 = higher[2]
    peak = A.peak
    dbl = Fraction(diff_size, a)
    checks: list[CheckRecord] = []
    diagnostics: list[CheckRecord] = []

    checks.append(require(record_eq(
        "slice sizes resum to |A|^2", "slice:total",
        sum(c * m for c, m in A.energy_hist), a * a,
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
    # A lower bound fails only when the peak's upper end is below it.
    checks.append(require(record_ge(
        "peak squared lower bound", "peak:parseval-lower",
        Fraction(peak.hi) * diff_size * (n - a), a**3 * (n - diff_size),
    )))
    # Idealized asymptotic form, reported but never asserted.
    diagnostics.append(record_ge(
        "peak squared, idealized form", "peak:idealized",
        peak.hi,
        Fraction(a * a) / dbl - a,
        note="diagnostic only; the exact surrogate above is what is asserted",
    ))

    return SetProfile(
        group=g,
        size=a,
        density=Fraction(a, n),
        diff_size=diff_size,
        doubling=dbl,
        peak=peak,
        energy=e2,
        higher=higher,
        checks=checks,
        diagnostics=diagnostics,
    )
