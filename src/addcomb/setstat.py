"""Subset statistics: sumsets, slices, additive energies, exact inequality checks.

All cardinalities and energies are Python integers, densities and doubling
constants exact fractions, so every inequality asserted here is decided
exactly.  A set is its strictly sorted, read-only int64 array of element
indices, counted as it is; writers turn it into Python ints at the edge.

Pair counts are stacked: conv_columns counts many pairs (A, B) at once,
one pair per column of an (N, k) table, and corr_columns the correlations
A o B likewise.  On 2-groups that is one inverse integer Walsh-Hadamard
transform of the stacked products of the sets' transforms.  Elsewhere it
is one inverse DFT of those products, rounded, for every column where
harmonic.conv_errors proves each entry within 1/2 of its integer (one
call for the whole stack), and the pair loop for any other column.  The
pair loop (_conv_loop) builds the table of a + b over the members of the
two sets, in blocks of rows of at most _BLOCK_ELEMENTS cells, and counts
each block with one bincount.  Either way the counts are exact.
conv_counts, which the pipelines call, takes one of the two by one cost
rule on every group, 2-groups included: the transform path (its one-column
conv_columns call) when _PAIR_COST |A| |B| exceeds (1 + u) times
harmonic.transform_cost(g), u the transforms it would have to compute
first, and the pair loop otherwise.  transform_cost charges an axis that
runs Bluestein's algorithm its extra work.  corr_counts is
conv_counts(-A, B), and sumset is the support of conv_counts.

The checks the verify suites run many times are stacked the same way,
and the stack is each check's one entry point, a single instance being
a stack of one: sumsets, energy_difference_bounds, higher_energies,
katz_koester_stack, and triangle_stack, which counts distinct tuples as
the rows of one int64 table, sorted once per block of instances.  The
Katz-Koester check counts A + B once per pair and reads every
displacement x from one index table of y - x: A_x, (A+B)_x and B + A_x
are boolean columns over the group, compared cell by cell.
B + A_x is one integer Walsh transform pass on 2-groups and one shifted
copy per member of the B's elsewhere.  A stack is cut in blocks of at
most _BLOCK_ELEMENTS cells (column_blocks), as a pair table is, so its
memory grows neither with the number of instances nor with the group
order, and its energies are summed in int64 only under a stated bound, in
Python ints otherwise.

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
one transform.  The stacked kernels build no -A at all: corr_columns
multiplies conj(A_hat) by B_hat, the product A.neg() would give, and
builds A.neg() only for a column that takes the direct loop.  The cached
arrays are read-only; there is no cache outside the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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
    _error_scale,
    conv_errors,
    dft_columns,
    idft_columns,
    indicator,
    magnitudes,
    sum_of_squares,
    transform_cost,
    wht_int_columns,
)
from .report import CheckRecord, record_eq, record_ge, record_le, require

_PAIR_LOOP_MAX = 1 << 26
_PAIR_COST = 3  # one cell of a pair table, in radix-2 transform levels (conv_counts)
_BLOCK_ELEMENTS = 1 << 18   # cells per block: columns of a stack, rows of a pair table


def read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class _Members(np.ndarray):
    """The type of GroupSet.members: read-only, it hashes as its bytes, as a
    tuple of indices would (bench/tracer.py keys correlations on members)."""

    def __hash__(self) -> int:
        if self.flags.writeable:
            raise TypeError("unhashable type: writable array")
        return hash(self.tobytes())


@dataclass(frozen=True, eq=False)
class GroupSet:
    """Subset of a group: the strictly sorted, read-only int64 array of its
    element indices (an int64 array passed in is viewed, not copied).

    The statistics below are computed on first use and cached on the
    instance (see the module docstring).
    """

    group: GroupSpec
    members: np.ndarray

    def __post_init__(self) -> None:
        try:
            a = np.asarray(self.members, dtype=np.int64)
        except OverflowError:
            a = np.array([-1])  # out of range
        if a.ndim != 1 or a.size and (a[0] < 0 or a[-1] >= self.group.order or np.count_nonzero(a[1:] <= a[:-1])):
            raise GroupMismatchError("members must be strictly sorted element indices in range")
        a = a.view(_Members)
        a.setflags(write=False)
        object.__setattr__(self, "members", a)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupSet):
            return NotImplemented
        return self.group == other.group and self.members.tobytes() == other.members.tobytes()

    def __hash__(self) -> int:
        return hash((self.group, self.members.tobytes()))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        k = int(np.searchsorted(self.members, i))
        return k < len(self.members) and bool(self.members[k] == i)

    @cached_property
    def transform(self) -> np.ndarray:
        """Transform of the indicator: int64 on 2-groups, complex128 elsewhere,
        the one-column call of _transforms.  A set made by neg() conjugates
        its source's (see neg) here, since _transforms reads such a set's
        transform through this property."""
        source = self.__dict__.get("_neg_of")
        if source is not None:
            return read_only(np.conj(source.transform))
        return read_only(_transforms(self.group, [self])[0])

    @cached_property
    def autocorr(self) -> np.ndarray:
        """(A o A)(x) = |A intersect (A + x)| for every x, as int64."""
        source = self.__dict__.get("_neg_of")
        return source.autocorr if source is not None else read_only(corr_counts(self, self))

    @cached_property
    def energy_hist(self) -> tuple[tuple[int, int], ...]:
        """Pairs (c, m): the value c > 0 is taken by A o A at m points."""
        mults = np.bincount(self.autocorr)  # values are at most |A|
        values = np.flatnonzero(mults[1:]) + 1
        return tuple(zip(values.tolist(), mults[values].tolist()))

    @property
    def diff_size(self) -> int:
        """|A - A|, the support size of A o A."""
        return sum(m for _, m in self.energy_hist)

    @cached_property
    def sum_size(self) -> int:
        """|A + A|; on 2-groups A + A = A - A, so it is diff_size."""
        if self.group.is_boolean_space:
            return self.diff_size
        return len(sumset(self, self))

    @cached_property
    def peak(self) -> "Peak":
        """peak_coefficient(A), computed once."""
        return peak_coefficient(self)

    def indicator(self) -> FunctionTable:
        return indicator(self.group, self.members)

    def translate(self, x: int) -> "GroupSet":
        return GroupSet(self.group, np.sort(add_index_many(self.group, self.members, x)))

    def neg(self) -> "GroupSet":
        """-A.  It reads its autocorrelation and its transform off A, each
        computed once on A: (-A) o (-A) = A o A, and the exact transform of
        -A's real indicator is the conjugate of A's, so the conjugate of
        A's computed transform carries A's transform_error bound.  The
        negation of a set made by neg() is its source."""
        g = self.group
        if len(self) == 0 or g.is_boolean_space:
            return self
        source = self.__dict__.get("_neg_of")
        if source is not None:
            return source
        out = GroupSet(g, np.sort(neg_index_many(g, self.members)))
        object.__setattr__(out, "_neg_of", self)
        return out


def group_set(g: GroupSpec, members: Iterable[int]) -> GroupSet:
    return GroupSet(g, np.unique(list(members)))


def full_set(g: GroupSpec) -> GroupSet:
    return GroupSet(g, np.arange(g.order, dtype=np.int64))


# -- counting kernels -----------------------------------------------------------


def corr_counts(A: GroupSet, B: GroupSet | None = None) -> np.ndarray:
    """(A o B)(x) = |B intersect (A + x)| = #{(a, b) : b - a = x}, as int64.

    This is conv_counts(-A, B); on 2-groups -A is A itself, so both
    transforms come from the sets' caches.
    """
    return conv_counts(A.neg(), A if B is None else B)


def conv_counts(A: GroupSet, B: GroupSet) -> np.ndarray:
    """Number of pairs (a, b) with a + b = x, for every x, as int64.

    Exact on either of two paths, picked by one cost rule on every group.
    The transform path, the one-column call of conv_columns, costs one
    inverse transform plus one forward transform of each distinct source
    set whose transform is not yet kept (A.neg() shares A's), u of them:
    (1 + u) transform_cost(g) radix-2 levels.  The pair path (_conv_loop)
    costs one cell per pair, each _PAIR_COST levels.  So the transform is
    taken when _PAIR_COST |A| |B| > (1 + u) transform_cost(g), and the
    order is within MAX_TRANSFORM_ORDER or g is a 2-group.  Both sets keep
    the transforms computed there: the pipelines count with the same sets
    many times.

    _PAIR_COST = 3 is measured: the time of a pair cell over the time of
    a radix-2 level, each path timed whole at the rule's crossover with
    u = 0 and u = 2, on F2^10, F2^13, F2^16, Z1000, Z1024, Z4096, Z4099,
    Z32768, Z65521, Z65536, Z64xZ64, Z128xZ128 and Z4xZ6xZ8xZ16 (numpy 2.4,
    2-vCPU x86 VM).  The ratio spread over 1-10 with median 3.  Near the
    crossover either path costs about the same, so the spread costs little.
    """
    if A.group != B.group:
        raise GroupMismatchError("sets live on different groups")
    g = A.group
    if len(A) == 0 or len(B) == 0:
        return np.zeros(g.order, dtype=np.int64)
    if g.is_boolean_space or g.order <= MAX_TRANSFORM_ORDER:
        sources = {id(s): s for s in (A.__dict__.get("_neg_of", A), B.__dict__.get("_neg_of", B))}
        todo = sum("transform" not in s.__dict__ for s in sources.values())
        if _PAIR_COST * len(A) * len(B) > (1 + todo) * transform_cost(g):
            A.transform, B.transform  # computed once, kept on each set
            return conv_columns(g, [(A, B)])[:, 0]
    return _conv_loop(A, B)


def _conv_loop(A: GroupSet, B: GroupSet) -> np.ndarray:
    """conv_counts by pairs: the table of a + b over the smaller set's
    members (rows) and the larger's (columns), in blocks of rows of at most
    _BLOCK_ELEMENTS cells (column_blocks), each counted by one bincount."""
    g = A.group
    small, big = (A, B) if len(A) <= len(B) else (B, A)
    counts = np.zeros(g.order, dtype=np.int64)
    for rows in column_blocks(len(small), len(big)):
        sums = add_index_many(g, big.members[None, :], small.members[rows, None])
        counts += np.bincount(sums.ravel(), minlength=g.order)
    return counts


def conv_columns(g: GroupSpec, pairs: Sequence[tuple[GroupSet, GroupSet]]) -> np.ndarray:
    """conv_counts of every pair (A, B) on g, as the columns of one (N, k)
    int64 table; the caller keeps k * N within a block (column_blocks).

    Each column is decided exactly.  On 2-groups all of them come from one
    integer Walsh transform of the stacked products of the sets'
    transforms, divided by N.  Its int64 butterflies are exact: a product
    column has L1 norm at most sqrt(sum_t |A_hat(t)|^2 sum_t |B_hat(t)|^2)
    = N sqrt(|A| |B|) <= N^2 <= 2^48 (Cauchy-Schwarz, Parseval and the
    membership cap).  Elsewhere, within MAX_TRANSFORM_ORDER, each column
    whose harmonic.conv_errors bound at (|A|, |B|) is below 1/2 (one call
    decides them all) is the rounded real part of one inverse DFT of
    the stacked products; any other column, and every column beyond the
    transform cap, takes the direct loop.  A transform a set has kept is
    read, the others are computed in one stacked pass and not kept (see
    _transforms).
    """
    return _pair_columns(g, pairs, [False] * len(pairs))


def corr_columns(g: GroupSpec, pairs: Sequence[tuple[GroupSet, GroupSet]]) -> np.ndarray:
    """corr_counts of every pair (A, B) on g, (A o B)(x) = #{b - a = x}, as
    the columns of one (N, k) int64 table: conv_columns of the pairs
    (-A, B), with the products conj(A_hat) * B_hat, which is the transform
    A.neg() carries (see GroupSet.neg), so no -A is built unless its column
    takes the direct loop.  The conjugate carries A's error bound, so the
    columns are decided as in conv_columns."""
    return _pair_columns(g, pairs, [True] * len(pairs))


def _pair_columns(
    g: GroupSpec, pairs: Sequence[tuple[GroupSet, GroupSet]], reflect: Sequence[bool]
) -> np.ndarray:
    """The columns of conv_columns, each pair j with reflect[j] taken as in
    corr_columns: one stack for the kernels that need both kinds."""
    n = g.order
    if any(A.group != g or B.group != g for A, B in pairs):
        raise GroupMismatchError("sets live on different groups")
    live = [j for j, (A, B) in enumerate(pairs) if len(A) and len(B)]
    if g.is_boolean_space:
        fast = live
    elif n <= MAX_TRANSFORM_ORDER and live:
        sizes = np.array([(len(pairs[j][0]), len(pairs[j][1])) for j in live])
        fast = np.array(live)[conv_errors(g, sizes[:, 0], sizes[:, 1]) < 0.5].tolist()
    else:
        fast = []
    out = _stack(n, len(pairs), np.int64)
    if fast:
        hats = _transforms(g, [X for j in fast for X in pairs[j]])
        products = _stack(n, len(fast), hats[0].dtype, np.empty)
        for i in range(len(fast)):
            # -A = A on 2-groups, whose integer transforms are real
            first = np.conj(hats[2 * i]) if reflect[fast[i]] and not g.is_boolean_space else hats[2 * i]
            np.multiply(first, hats[2 * i + 1], out=products[:, i])
        if g.is_boolean_space:
            out[:, fast] = wht_int_columns(g, products) // n
        else:
            out[:, fast] = np.rint(idft_columns(g, products).real)
    for j in sorted(set(live) - set(fast)):
        A, B = pairs[j]
        out[:, j] = _conv_loop(A.neg() if reflect[j] else A, B)
    return out


def column_blocks(count: int, order: int, per_item: int = 1) -> Iterator[slice]:
    """Slices of range(count), each a block of items whose stack of
    per_item columns (or rows) of order cells apiece holds at most
    _BLOCK_ELEMENTS cells, one item at least: a stack's memory does not
    grow with the number of items."""
    step = max(1, _BLOCK_ELEMENTS // (order * per_item))
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _stack(n: int, k: int, dtype, fill=np.zeros) -> np.ndarray:
    """An (n, k) table of fill((k, n)) whose columns are contiguous in
    memory, so each column is written, transformed and read as one run."""
    return fill((k, n), dtype=dtype).T


def _indicator_table(g: GroupSpec, sets: Sequence[GroupSet], dtype) -> np.ndarray:
    """The indicators of sets as the columns of one (N, k) table."""
    table = _stack(g.order, len(sets), dtype)
    rows = np.concatenate([X.members for X in sets])
    table[rows, np.repeat(np.arange(len(sets)), [len(X) for X in sets])] = 1
    return table


def _transforms(g: GroupSpec, sets: Sequence[GroupSet]) -> list[np.ndarray]:
    """The transform of each set; GroupSet.transform is its one-column
    call.  One a set has kept is read, or its source's conjugated for a
    set made by neg().  The others come from one stacked transform of their sources'
    indicators, each source once (the integer Walsh transform on 2-groups,
    whose int64 butterflies are exact since an indicator's L1 norm is at
    most N), and are not kept, so a stack's memory stays within its
    block."""
    out: list[np.ndarray | None] = [None] * len(sets)
    todo: dict[int, tuple[GroupSet, list[int]]] = {}
    for j, X in enumerate(sets):
        source = X.__dict__.get("_neg_of", X)
        if "transform" in source.__dict__:
            out[j] = X.transform
        else:
            todo.setdefault(id(source), (source, []))[1].append(j)
    if todo:
        table = _indicator_table(g, [source for source, _ in todo.values()], np.int64)
        hats = wht_int_columns(g, table) if g.is_boolean_space else dft_columns(g, table)
        for hat, (source, columns) in zip(hats.T, todo.values()):
            for j in columns:
                out[j] = hat if sets[j] is source else np.conj(hat)
    return out


def _supports(g: GroupSpec, counts: np.ndarray) -> list[GroupSet]:
    return [GroupSet(g, np.flatnonzero(col)) for col in counts.T]


def _stack_group(sets: Iterable[GroupSet]) -> GroupSpec:
    groups = {X.group for X in sets}
    if len(groups) != 1:
        raise GroupMismatchError("sets live on different groups")
    return groups.pop()


def sumsets(pairs: Sequence[tuple[GroupSet, GroupSet]]) -> list[GroupSet]:
    """A + B for every pair (A, B): the supports of stacked pair counts."""
    if not pairs:
        return []
    g = _stack_group(X for pair in pairs for X in pair)
    out: list[GroupSet] = []
    for block in column_blocks(len(pairs), g.order):
        out.extend(_supports(g, conv_columns(g, pairs[block])))
    return out


def _power_sums(counts: np.ndarray, top: int) -> list[list[int]]:
    """sums[k - 2][j] = sum_x c(x)^k for k = 2..top and every column c of
    counts, a table of nonnegative int64 counts, as Python ints.  Since
    sum_x c^k <= max(c)^(k - 1) sum_x c, a column where that is below 2^63
    at k = top is summed in int64, and any other in Python ints."""
    peaks = counts.max(axis=0, initial=0).tolist()
    masses = counts.sum(axis=0).tolist()  # pair counts: at most N^2 per column
    safe = np.array([m ** (top - 1) * s < 1 << 63 for m, s in zip(peaks, masses)], dtype=bool)
    sums = np.zeros((top - 1, counts.shape[1]), dtype=object)
    for cols, table in ((safe, counts[:, safe]), (~safe, counts[:, ~safe].astype(object))):
        power = table
        for k in range(2, top + 1):
            power = power * table
            sums[k - 2, cols] = power.sum(axis=0).tolist()
    return sums.tolist()


def sumset(A: GroupSet, B: GroupSet) -> GroupSet:
    """A + B, the support of conv_counts(A, B)."""
    return GroupSet(A.group, np.flatnonzero(conv_counts(A, B)))


def sumset_size(A: GroupSet, B: GroupSet) -> int:
    """|A + B|, read from A's cache when B is A."""
    return A.sum_size if B is A else len(sumset(A, B))


def difference_set(A: GroupSet, B: GroupSet) -> GroupSet:
    """A - B."""
    return sumset(A, B.neg())


def slice_set(A: GroupSet, x: int) -> GroupSet:
    """A_x = A intersect (A + x); its size is the autocorrelation at x."""
    shifted = add_index_many(A.group, A.members, x)
    return GroupSet(A.group, np.intersect1d(A.members, shifted, assume_unique=True))


def doubling_constant(A: GroupSet) -> Fraction:
    """K[A] = |A - A| / |A|."""
    if len(A) == 0:
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
    if len(A) == 0:
        raise ValueError("peak coefficient needs a nonempty set")
    mags = magnitudes(A.transform[1:])
    arg = int(np.argmax(mags))
    top = Fraction(mags[arg].item())
    # transform_error of A's indicator, whose 2-norm is sqrt(|A|): a sum of
    # ones is exact and sqrt correctly rounded, so this is its double
    err = Fraction(0 if A.group.is_boolean_space else _error_scale(A.group) * math.sqrt(len(A)))
    lo = max(top - err, 0) ** 2
    hi = min((top + err) ** 2, len(A) ** 2)
    return Peak(_outward(lo, -math.inf), _outward(hi, math.inf), arg + 1)


def energy(A: GroupSet, B: GroupSet | None = None) -> int:
    """E(A, B) = number of quadruples with a1 - b1 = a2 - b2, exactly."""
    if B is None or B is A:
        return higher_energy(A, 2)
    return sum_of_squares(corr_counts(B, A))


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


def katz_koester_stack(pairs: Sequence[tuple[GroupSet, GroupSet]]) -> list[SliceInclusion]:
    """B + A_x inside (A+B)_x for every pair (A, B) and every x of A - A,
    each row decided cell by cell over the group.

    A + B and A - A of a block of pairs come from one stack of pair
    counts.  The displacements of all the pairs in the block are the
    columns of one table with one row per element y, cut in blocks of at
    most _BLOCK_ELEMENTS cells: A_x and (A+B)_x are read off as boolean
    columns through the table of y - x, B + A_x comes from _plus_columns,
    and x holds iff no cell is in B + A_x and not in (A+B)_x.
    """
    if not pairs:
        return []
    g = _stack_group(X for pair in pairs for X in pair)
    ys = np.arange(g.order, dtype=np.int64)[:, None]
    out: list[SliceInclusion] = []
    for block in column_blocks(len(pairs), g.order):
        As = [A for A, _ in pairs[block]]
        Bs = [B for _, B in pairs[block]]
        disp = [np.flatnonzero(col) for col in corr_columns(g, [(A, A) for A in As]).T]
        a_masks = _indicator_table(g, As, bool)
        s_masks = _indicator_table(g, sumsets(pairs[block]), bool)
        a_flat, s_flat = a_masks.T.ravel(), s_masks.T.ravel()  # pair p's column at p * N
        if g.is_boolean_space:
            b_side = np.array(_transforms(g, Bs)).T
        else:
            b_side = _indicator_table(g, Bs, bool)
        owners = np.repeat(np.arange(len(As)), [d.size for d in disp])
        all_xs = np.concatenate(disp)
        left = np.empty(len(all_xs), dtype=np.int64)
        right = np.empty(len(all_xs), dtype=np.int64)
        holds = np.empty(len(all_xs), dtype=bool)
        for cols in column_blocks(len(all_xs), g.order):
            own = owners[cols]
            shifted = sub_index_many(g, ys, all_xs[cols])
            shifted += own * g.order
            a_cols = a_flat[shifted] & _owner_columns(a_masks, own)
            s_cols = s_flat[shifted] & _owner_columns(s_masks, own)
            left_cols = _plus_columns(g, b_side, a_cols, own)
            left[cols] = left_cols.sum(axis=0)
            right[cols] = s_cols.sum(axis=0)
            holds[cols] = ~(left_cols & ~s_cols).any(axis=0)
        cuts = np.cumsum([d.size for d in disp])[:-1]
        out.extend(
            SliceInclusion(xs=d, left=lf, right=rt, holds=hd)
            for d, lf, rt, hd in zip(disp, np.split(left, cuts), np.split(right, cuts), np.split(holds, cuts))
        )
    return out


def _owner_columns(table: np.ndarray, owners: np.ndarray) -> np.ndarray:
    """Column owners[j] of table for every j, owners ascending: one column,
    broadcast, when a block holds one pair's displacements only."""
    return table[:, owners[:1]] if owners[0] == owners[-1] else table[:, owners]


def _plus_columns(g: GroupSpec, b_side: np.ndarray, cols: np.ndarray, owners: np.ndarray) -> np.ndarray:
    """B + C for every boolean column C of cols, an (N, k) table, where the
    B of column j is the set of column owners[j] of b_side.

    On 2-groups b_side holds the B's integer transforms, and B + C is the
    support of the convolution of C with B: one integer Walsh transform of
    the columns, times their B's transforms, transformed back.  A 0/1
    column has L1 norm at most N, and sum_t |C_hat(t)|^2 = N |C|
    (Parseval), so by Cauchy-Schwarz the L1 norm of C_hat * B_hat is at
    most N sqrt(|C| |B|) <= N^2 <= 2^48 under the membership cap: the int64
    butterflies are exact.  Elsewhere b_side holds the B's indicators, and
    B + C is the OR, over the members b of the union of the B's, of C with
    its rows moved by b (row z of the moved copy is row z - b), taken into
    the columns whose B holds b; the row orders are read from one table of
    z - b per chunk of members.
    """
    if g.is_boolean_space:
        cols_hat = wht_int_columns(g, cols.astype(np.int64))
        return wht_int_columns(g, cols_hat * _owner_columns(b_side, owners)) != 0
    ys = np.arange(g.order, dtype=np.int64)
    members = np.flatnonzero(_owner_columns(b_side, owners).any(axis=1))
    mixed = owners[0] != owners[-1]
    out = np.zeros_like(cols)
    moved = np.empty_like(cols)
    for chunk in column_blocks(len(members), g.order):
        for b, rows in zip(members[chunk], sub_index_many(g, ys, members[chunk, None])):
            np.take(cols, rows, axis=0, out=moved)
            if mixed:
                moved &= b_side[b, owners]
            out |= moved
    return out


def triangle_stack(
    g: GroupSpec,
    Ws: Sequence[np.ndarray | Sequence[Sequence[int]]],
    Ys: Sequence[np.ndarray | Sequence[Sequence[int]]],
    Xs: Sequence[Sequence[int]],
    Zs: Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of |W||X| |Y - diag(Z)| <= |(W, Y, Z) - diag(X)| for
    every instance i, (Ws[i], Ys[i], Xs[i], Zs[i]), as int64 arrays lhs and
    rhs.  W and Y are families of index tuples, each an int64 array of
    shape (members, length) or a sequence of tuples; X and Z are plain index
    sequences or 1-d arrays.  Every W tuple of the stack has one length, and
    every Y tuple one length, each 1 or 2.  The sides are cardinalities, so
    duplicates count once.

    A family of every instance is one int64 table of rows, its distinct
    members sorted by instance.  The tuples of Y - diag(Z) and of
    (W, Y, Z) - diag(X) are rows of each instance's product of families,
    their coordinates from sub_index_many, and each side counts distinct
    (instance, row) pairs: one lexsort, one compare of adjacent rows and one
    bincount.  A row is never packed into one integer: with tuples of length
    2 it lies in G^5, past int64 once N > 2^12.  A block of instances holds
    at most _BLOCK_ELEMENTS product rows, or one instance (column_blocks).
    """
    m = len(Ws)
    if not len(Ys) == len(Xs) == len(Zs) == m:
        raise ValueError("need one W, Y, X and Z family per instance")
    singletons = lambda fams: [np.asarray(fam, dtype=np.int64)[:, None] for fam in fams]
    fams = [_family_rows(g, F) for F in (Ws, Ys, singletons(Xs), singletons(Zs))]
    sizes = np.array([counts for _, counts, _ in fams]).reshape(4, m)
    if not sizes.all():
        raise ValueError("all four families must be nonempty")
    if (sizes > 1000).any():
        raise SizeLimitError("triangle check capped at 1000 members per family")
    products = sizes.prod(axis=0)
    if (products > _PAIR_LOOP_MAX).any():
        raise SizeLimitError("triangle check product too large")
    W, Y, X, Z = fams
    lhs = sizes[0] * sizes[2]
    rhs = np.empty(m, dtype=np.int64)
    for block in column_blocks(m, int(products.max(initial=1))):
        width = len(rhs[block])
        inst, (y, z) = _family_products(block, [Y, Z])
        lhs[block] *= _distinct_counts(inst, sub_index_many(g, y, z), width)
        inst, (w, y, z, x) = _family_products(block, [W, Y, Z, X])
        rows = np.concatenate([sub_index_many(g, t, x) for t in (w, y, z)], axis=1)
        rhs[block] = _distinct_counts(inst, rows, width)
    return lhs, rhs


def _family_rows(g: GroupSpec, fams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One triangle family of tuples of every instance as (rows, counts,
    starts): the distinct members in one (R, k) int64 table, sorted by
    instance, and the number and first row of each instance's members."""
    try:
        tables = [np.asarray(fam, dtype=np.int64) for fam in fams]
    except ValueError:  # numpy refuses a family whose tuples differ in length
        raise ValueError("ragged tuple family") from None
    filled = [t for t in tables if len(t)]
    shapes = {t.shape[1:] for t in filled}
    if len(shapes) > 1:
        raise ValueError("ragged tuple family")
    if not shapes <= {(1,), (2,)}:
        raise ValueError("tuple lengths must be 1 or 2")
    inst = np.repeat(np.arange(len(fams)), [len(t) for t in tables])
    rows = np.concatenate(filled).astype(np.int64, copy=False) if filled else np.empty((0, 1), dtype=np.int64)
    if rows.size and not (0 <= rows.min() and rows.max() < g.order):
        raise ValueError("triangle families must hold element indices in range")
    keep = _distinct(inst, rows)
    counts = np.bincount(inst[keep], minlength=len(fams))
    return rows[keep], counts, np.cumsum(counts) - counts


def _family_products(block: slice, fams) -> tuple[np.ndarray, list[np.ndarray]]:
    """Every tuple of members, one from each family, of every instance in
    block: the instance of each tuple (counted from the block's first) and,
    per family, the rows of its members.  A tuple's rank r within its
    instance is read in mixed radix, the last family's digit lowest."""
    total = np.prod([counts[block] for _, counts, _ in fams], axis=0)
    local = np.repeat(np.arange(len(total)), total)
    inst = local + block.start
    r = np.arange(len(local)) - np.repeat(np.cumsum(total) - total, total)
    picks = []
    for rows, counts, starts in reversed(fams):
        n = counts[inst]
        picks.append(rows[starts[inst] + r % n])
        r //= n
    return local, picks[::-1]


def _distinct(inst: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions of the distinct (instance, row) pairs, in (instance, row)
    order: one lexsort, then the first of every run of equal pairs."""
    order = np.lexsort((*rows.T[::-1], inst))
    inst, rows = inst[order], rows[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (inst[1:] != inst[:-1]) | (rows[1:] != rows[:-1]).any(axis=1)
    return order[first]


def _distinct_counts(inst: np.ndarray, rows: np.ndarray, width: int) -> np.ndarray:
    """How many distinct rows each instance 0..width-1 holds."""
    return np.bincount(inst[_distinct(inst, rows)], minlength=width)


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


def energy_difference_bounds(
    pairs: Sequence[tuple[GroupSet, GroupSet]], ks: Sequence[int]
) -> list[EnergyBoundReport]:
    """E_k(B) * E(A, A+B)^k >= |A|^(2k+1) |B|^(2k) / K' with K' = |A-A|/|A|,
    for every pair (A, B) at order k = ks[i], compared with cleared
    denominators: E_k(B) * E(A, A+B)^k * |A-A| >= |A|^(2k+2) * |B|^(2k).

    A block of pairs takes two stacks of pair counts: A + B, A o A and
    B o B first, then (A+B) o A.  The energies are power sums of their
    columns (_power_sums), so every side is an exact integer.
    """
    if len(ks) != len(pairs):
        raise ValueError("need one order k per pair")
    if any(k < 2 for k in ks):
        raise ValueError("need k >= 2")
    if any(len(A) == 0 or len(B) == 0 for A, B in pairs):
        raise ValueError("both sets must be nonempty")
    if not pairs:
        return []
    g = _stack_group(X for pair in pairs for X in pair)
    reports = []
    for block in column_blocks(len(pairs), g.order, per_item=3):
        chunk = pairs[block]
        As = [A for A, _ in chunk]
        Bs = [B for _, B in chunk]
        c = len(chunk)
        stack = [*chunk, *((A, A) for A in As), *((B, B) for B in Bs)]
        counts = _pair_columns(g, stack, [False] * c + [True] * 2 * c)
        sums = _supports(g, counts[:, :c])
        diffs = np.count_nonzero(counts[:, c : 2 * c], axis=0).tolist()
        e_b = _power_sums(counts[:, 2 * c :], 3)
        e_as = _power_sums(corr_columns(g, list(zip(sums, As))), 2)[0]
        for j, (A, B) in enumerate(chunk):
            k = ks[block][j]
            a, b = len(A), len(B)
            lhs = e_b[k - 2][j] * e_as[j] ** k * diffs[j]
            rhs = a ** (2 * k + 2) * b ** (2 * k)
            reports.append(EnergyBoundReport(
                k=k,
                e_k_b=e_b[k - 2][j],
                e_a_s=e_as[j],
                diff_size=diffs[j],
                lhs=lhs,
                rhs=rhs,
                margin=Fraction(lhs, rhs),
                holds=lhs >= rhs,
            ))
    return reports


def higher_energies(sets: Sequence[GroupSet], top: int) -> list[dict[int, int]]:
    """E_k(A) for k = 2..top and every set A: power sums of the columns of
    stacked autocorrelations A o A, exact (see _power_sums)."""
    if top < 2:
        raise ValueError("need k >= 2")
    if not sets:
        return []
    g = _stack_group(sets)
    out: list[dict[int, int]] = []
    for block in column_blocks(len(sets), g.order):
        sums = _power_sums(corr_columns(g, [(A, A) for A in sets[block]]), top)
        out.extend({k: sums[k - 2][j] for k in range(2, top + 1)} for j in range(len(sums[0])))
    return out


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
    if len(A) == 0:
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
