"""Subset statistics: sumsets, slices, additive energies, exact inequality checks.

All cardinalities and energies are Python integers, densities and doubling
constants exact fractions, so every inequality asserted here is decided
exactly.  A set is its strictly sorted, read-only int64 array of element
indices, counted as it is; writers turn it into Python ints at the edge.

Pair counts are stacked: conv_columns counts many pairs (A, B) at once,
one pair per column of an (N, k) table.  On 2-groups that is one inverse
integer Walsh-Hadamard transform of the stacked products of the sets'
transforms.  Elsewhere it is one inverse DFT of those products, rounded,
for every column where harmonic.conv_error proves each entry within 1/2
of its integer, and one bincount pass per member of the smaller set for
any other column.  Either way the counts are exact.  conv_counts, which
the pipelines call, is its one-column call when a cost rule prefers a
transform to a loop (on 2-groups always; elsewhere when the smaller set
has more than _FFT_COST * N.bit_length() members and N is within
MAX_TRANSFORM_ORDER), and the loop otherwise.  corr_counts is
conv_counts(-A, B), and sumset is the support of conv_counts.

The checks the verify suites run many times are stacked the same way,
and their one-instance calls are one-column calls: sumsets,
energy_difference_bounds (check_energy_difference_bound is its one-pair
call), higher_energies, and katz_koester_stack (katz_koester_rows is its
one-pair call, check_katz_koester its one-row call).  The Katz-Koester
check counts A + B once per pair and reads every displacement x from one
index table of y - x: A_x, (A+B)_x and B + A_x are boolean columns over
the group, compared cell by cell.  B + A_x is one integer Walsh transform
pass on 2-groups and one shifted copy per member of the B's elsewhere.  A
stack is cut in blocks of at most _KK_BLOCK_ELEMENTS cells
(column_blocks), so its memory grows neither with the number of
instances nor with the group order, and its energies are summed in int64
only under a stated bound, in Python ints otherwise.

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
from typing import Callable, Iterable, Iterator, Sequence

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
    dft_columns,
    idft_columns,
    indicator,
    magnitudes,
    sum_of_squares,
    transform_error,
    wht_int_columns,
)
from .report import CheckRecord, record_eq, record_ge, record_le, require

_PAIR_LOOP_MAX = 1 << 26
_FFT_COST = 4  # conv_counts transforms once the smaller set passes this times N.bit_length()
_KK_BLOCK_ELEMENTS = 1 << 18   # cells per stacked block of columns


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

    def _cached(self, name: str, compute: Callable[[], object]):
        value = self.__dict__.get(name)
        if value is None:
            value = compute()
            object.__setattr__(self, name, value)
        return value

    @property
    def transform(self) -> np.ndarray:
        """Transform of the indicator: int64 on 2-groups, complex128 elsewhere.
        A set made by neg() conjugates its source's (see neg)."""

        def compute() -> np.ndarray:
            source = self.__dict__.get("_neg_of")
            if source is not None:
                return read_only(np.conj(source.transform))
            return read_only(dft(self.indicator()).values)

        return self._cached("_transform", compute)

    @property
    def autocorr(self) -> np.ndarray:
        """(A o A)(x) = |A intersect (A + x)| for every x, as int64."""

        def compute() -> np.ndarray:
            source = self.__dict__.get("_neg_of")
            return source.autocorr if source is not None else read_only(corr_counts(self, self))

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

    The one-column call of conv_columns on 2-groups, and elsewhere when the
    order is at most MAX_TRANSFORM_ORDER and the smaller set has more than
    _FFT_COST * N.bit_length() members, so that a loop over it would cost
    more than a transform.  Otherwise it is one bincount pass over the
    larger set shifted by each member of the smaller.  Both sets keep the
    transforms computed here: the pipelines count with the same sets many
    times.
    """
    if A.group != B.group:
        raise GroupMismatchError("sets live on different groups")
    g = A.group
    n = g.order
    if len(A) == 0 or len(B) == 0:
        return np.zeros(n, dtype=np.int64)
    if g.is_boolean_space or (
        min(len(A), len(B)) > _FFT_COST * n.bit_length() and n <= MAX_TRANSFORM_ORDER
    ):
        A.transform, B.transform  # computed once, kept on each set
        return conv_columns(g, [(A, B)])[:, 0]
    return _conv_loop(A, B)


def _conv_loop(A: GroupSet, B: GroupSet) -> np.ndarray:
    g = A.group
    small, big = (A, B) if len(A) <= len(B) else (B, A)
    counts = np.zeros(g.order, dtype=np.int64)
    for a in small.members:
        counts += np.bincount(add_index_many(g, big.members, a), minlength=g.order)
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
    whose conv_error(g, |A|, |B|) is below 1/2 is the rounded real part
    of one inverse DFT of the stacked products; any other column, and
    every column beyond the transform cap, takes the direct loop.  A
    transform a set has kept is read, the others are computed in one
    stacked pass and not kept (see _transforms).
    """
    n = g.order
    if any(A.group != g or B.group != g for A, B in pairs):
        raise GroupMismatchError("sets live on different groups")
    live = [j for j, (A, B) in enumerate(pairs) if len(A) and len(B)]
    if g.is_boolean_space:
        fast = live
    elif n <= MAX_TRANSFORM_ORDER:
        fast = [j for j in live if conv_error(g, len(pairs[j][0]), len(pairs[j][1])) < 0.5]
    else:
        fast = []
    out = _stack(n, len(pairs), np.int64)
    if fast:
        hats = _transforms(g, [X for j in fast for X in pairs[j]])
        products = _stack(n, len(fast), hats[0].dtype, np.empty)
        for i in range(len(fast)):
            np.multiply(hats[2 * i], hats[2 * i + 1], out=products[:, i])
        if g.is_boolean_space:
            out[:, fast] = wht_int_columns(g, products) // n
        else:
            out[:, fast] = np.rint(idft_columns(g, products).real)
    for j in sorted(set(live) - set(fast)):
        out[:, j] = _conv_loop(*pairs[j])
    return out


def column_blocks(count: int, order: int, per_item: int = 1) -> Iterator[slice]:
    """Slices of range(count), each a block of items whose stack of
    per_item columns of order cells apiece holds at most
    _KK_BLOCK_ELEMENTS cells, one item at least: a stack's memory does not
    grow with the number of items."""
    step = max(1, _KK_BLOCK_ELEMENTS // (order * per_item))
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
    """The transform of each set, as GroupSet.transform gives it.  One a
    set has kept is read, or its source's conjugated for a set made by
    neg().  The others come from one stacked transform of their sources'
    indicators, each source once (the integer Walsh transform on 2-groups,
    whose int64 butterflies are exact since an indicator's L1 norm is at
    most N), and are not kept, so a stack's memory stays within its
    block."""
    out: list[np.ndarray | None] = [None] * len(sets)
    todo: dict[int, tuple[GroupSet, list[int]]] = {}
    for j, X in enumerate(sets):
        source = X.__dict__.get("_neg_of", X)
        if source.__dict__.get("_transform") is not None:
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
    err = Fraction(transform_error(A.indicator()))
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


def katz_koester_rows(A: GroupSet, B: GroupSet, xs: Sequence[int] | None = None) -> SliceInclusion:
    """B + A_x inside (A+B)_x for every x of xs (A - A when omitted): the
    one-pair call of katz_koester_stack."""
    return katz_koester_stack([(A, B)], None if xs is None else [xs])[0]


def katz_koester_stack(
    pairs: Sequence[tuple[GroupSet, GroupSet]], xs: Sequence[Sequence[int]] | None = None
) -> list[SliceInclusion]:
    """B + A_x inside (A+B)_x for every pair (A, B) and every x of xs[i],
    the displacements of pair i (A - A when xs is None), each row decided
    cell by cell over the group.

    A + B (and A - A) of a block of pairs come from one stack of pair
    counts.  The displacements of all the pairs in the block are the
    columns of one table with one row per element y, cut in blocks of at
    most _KK_BLOCK_ELEMENTS cells: A_x and (A+B)_x are read off as boolean
    columns through the table of y - x, B + A_x comes from _plus_columns,
    and x holds iff no cell is in B + A_x and not in (A+B)_x.
    """
    if not pairs:
        return []
    g = _stack_group(X for pair in pairs for X in pair)
    if xs is not None and len(xs) != len(pairs):
        raise ValueError("need one list of displacements per pair")
    ys = np.arange(g.order, dtype=np.int64)[:, None]
    out: list[SliceInclusion] = []
    for block in column_blocks(len(pairs), g.order):
        As = [A for A, _ in pairs[block]]
        Bs = [B for _, B in pairs[block]]
        if xs is None:
            disp = [D.members for D in sumsets([(A, A.neg()) for A in As])]
        else:
            disp = [np.asarray(x, dtype=np.int64) for x in xs[block]]
            if any(d.size and not (0 <= d.min() and d.max() < g.order) for d in disp):
                raise ValueError("displacements must be element indices in range")
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
    """E_k(B) * E(A, A+B)^k >= |A|^(2k+1) |B|^(2k) / K' with K' = |A-A|/|A|:
    the one-pair call of energy_difference_bounds."""
    return energy_difference_bounds([(A, B)], [k])[0]


def energy_difference_bounds(
    pairs: Sequence[tuple[GroupSet, GroupSet]], ks: Sequence[int]
) -> list[EnergyBoundReport]:
    """check_energy_difference_bound of every pair (A, B) at order ks[i],
    compared with cleared denominators:
    E_k(B) * E(A, A+B)^k * |A-A| >= |A|^(2k+2) * |B|^(2k).

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
        counts = conv_columns(g, [*chunk, *((A.neg(), A) for A in As), *((B.neg(), B) for B in Bs)])
        sums = _supports(g, counts[:, :c])
        diffs = np.count_nonzero(counts[:, c : 2 * c], axis=0).tolist()
        e_b = _power_sums(counts[:, 2 * c :], 3)
        e_as = _power_sums(conv_columns(g, [(S.neg(), A) for S, A in zip(sums, As)]), 2)[0]
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
        sums = _power_sums(conv_columns(g, [(A.neg(), A) for A in sets[block]]), top)
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
