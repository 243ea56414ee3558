"""Subset statistics: sumsets, slices, additive energies, exact inequality checks.

All cardinalities and energies are Python integers, densities and doubling
constants exact fractions, so every inequality asserted here is decided
exactly.  A set is its strictly sorted, read-only int64 array of element
indices, counted as it is; writers turn it into Python ints at the edge.

A family of sets is one SetStack: k sets of one group in one int64
array, set j being members[starts[j]:starts[j + 1]] (a GroupSet is a
stack of one, and its stack() is a view).  The checks the verify suites
run take stacks, one instance being a stack of one:
energy_difference_bounds, higher_energies, katz_koester_stack and
triangle_stack (W and Y may also be tuple families, sorted once into
the rows of one int64 table).  Their pair counts are the columns of one
(N, k) table, corr_columns of two stacks or one _columns call, on one
transform of each distinct set.  _columns turns the products of the
transforms into exact counts: one inverse integer Walsh-Hadamard
transform on 2-groups, and elsewhere one inverse DFT, rounded, for every
column where harmonic.conv_errors proves each entry within 1/2 of its
integer, and the pair loop (_conv_loop: the table of a + b in blocks of
rows, one bincount each) for any other column.  katz_koester_stack
takes B + A_x from it as well, as the support of one _columns call over
a block of slices A_x pooled with their B's, with no shift loop, so
every pair count here has one proof path.  Stacks and pair tables
are cut in blocks of at most _BLOCK_ELEMENTS cells (column_blocks), so
memory grows neither with the number of instances nor with the group
order, and energies are summed by harmonic.power_sums, in int64 only
under a stated bound.

conv_counts and corr_counts, which the pipelines call, take the
transform path (_columns of the two sets' kept transforms) when
_PAIR_COST |A| |B| exceeds (1 + u) harmonic.transform_cost(g), u the
transforms it would compute first (Bluestein axes charged their extra
work), on every group, and the pair loop otherwise; sumset is the
support of conv_counts.  Every kernel reads -A one way, as A's column
with a reflect flag: the transform path takes conj(A_hat), the transform
of -A's real indicator, and the pair loop negates A's members, so
corr_counts(A, B), the pair counts of (-A, B), builds no -A.

A GroupSet computes the statistics the pipelines read off its
autocorrelation once, on first use, and keeps them on the instance for
as long as the set lives: its transform (the exact integer Walsh
transform on 2-groups, the complex DFT elsewhere), its autocorrelation
A o A as an int64 array, the energy histogram (each distinct nonzero
value of A o A with its multiplicity, as Python ints, so E_k =
sum m * c^k is exact at every k), |A - A| (the support of A o A), |A + A|
(the same number on 2-groups), |A + B| for each other set B sumset_size
counted (keyed by B, which A then holds) and the peak coefficient, held as an
enclosure [lo, hi] of |A_hat|^2 from harmonic.transform_error (lo == hi on
2-groups, where the transform is exact).  A.neg() is a plain -A that
holds A and reads A's autocorrelation and A's transform, conjugated,
since (-A) o (-A) = A o A; its negation is A, and A keeps no reference
to it.  The cached arrays are read-only; there is no cache outside the
set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .groups import (
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
    power_sums,
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
    _source = None  # not a field: the set neg() negated to make this one

    def __post_init__(self) -> None:
        members = np.asarray(self.members)  # checked as a stack of one
        members = SetStack(self.group, members, np.array([0, members.size])).members
        object.__setattr__(self, "members", read_only(members.view(_Members)))

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
        """Transform of the indicator: int64 on 2-groups, complex128 elsewhere.
        A set made by neg() conjugates its source's (see neg)."""
        if self._source is not None:
            return read_only(np.conj(self._source.transform))
        self.group.require_transform()
        return read_only(_hats(self.stack())[0])

    @cached_property
    def autocorr(self) -> np.ndarray:
        """(A o A)(x) = |A intersect (A + x)| for every x, as int64."""
        return self._source.autocorr if self._source is not None else read_only(corr_counts(self, self))

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
    def _sum_sizes(self) -> dict["GroupSet", int]:
        """|A + B| for each other set B that sumset_size was asked for."""
        return {}

    @cached_property
    def peak(self) -> "Peak":
        """peak_coefficient(A), computed once."""
        return peak_coefficient(self)

    def indicator(self) -> FunctionTable:
        return indicator(self.group, self.members)

    def stack(self) -> "SetStack":
        """The stack of this one set, a view of its members."""
        return SetStack._view(self.group, np.asarray(self.members), np.array([0, len(self)]))

    def neg(self) -> "GroupSet":
        """-A, a plain set that holds A, its negation, and reads its
        autocorrelation and its transform off A, each computed once on A:
        (-A) o (-A) = A o A, and the exact transform of -A's real indicator
        is the conjugate of A's, so the conjugate of A's computed transform
        carries A's transform_error bound.  A keeps no reference to -A."""
        g = self.group
        if len(self) == 0 or g.is_boolean_space:
            return self
        if self._source is not None:
            return self._source
        out = GroupSet(g, np.sort(neg_index_many(g, self.members)))
        object.__setattr__(out, "_source", self)
        return out


class SetStack:
    """k subsets of one group in one array, checked once (a GroupSet is
    checked as a stack of one): set j = stack[j] is the strictly sorted run
    members[starts[j]:starts[j + 1]] of the read-only int64 members, and a
    slice of the stack picks a stack of sets."""

    def __init__(self, group: GroupSpec, members, starts) -> None:
        a, starts = np.asarray(members), np.asarray(starts)
        ends = starts.tolist() if starts.ndim == 1 and starts.dtype.kind in "iu" else []
        ok = (a.ndim == 1 and (not a.size or a.dtype.kind in "iu") and ends[:1] == [0] and ends[-1] == a.size
              and all(lo <= hi for lo, hi in zip(ends, ends[1:])))
        if ok:  # an integer dtype (any when empty), starts rising from 0 to len(members)
            a = a.astype(np.int64, copy=False)
            falls = a[1:] <= a[:-1]
            if starts.size > 2:  # a set's first member may lie below the set before's last
                firsts = starts[1:-1]
                falls[firsts[(0 < firsts) & (firsts < a.size)] - 1] = False
            # in uint64 a negative member, or a uint64 one past int64, reads as 2^63 or more
            ok = not (np.count_nonzero(falls) or np.count_nonzero(a.view(np.uint64) >= group.order))
        if not ok:
            raise GroupMismatchError("set members must be strictly sorted integer element indices in range")
        self.group, self.members = group, read_only(a.view())
        self.starts = read_only(starts.astype(np.int64))

    @classmethod
    def _view(cls, g: GroupSpec, members: np.ndarray, starts: np.ndarray) -> "SetStack":
        """A stack of members already checked, not checked again."""
        out = cls.__new__(cls)
        out.group, out.members, out.starts = g, read_only(members), read_only(starts)
        return out

    def __len__(self) -> int:
        return len(self.starts) - 1

    @cached_property
    def sizes(self) -> np.ndarray:
        return read_only(np.diff(self.starts))

    def __getitem__(self, key: int | slice):
        if not isinstance(key, slice):
            j = range(len(self))[key]
            return self.members[self.starts[j] : self.starts[j + 1]]
        picks = np.arange(len(self))[key]
        sizes = self.sizes[picks]
        starts = _starts(sizes)
        at = np.arange(starts[-1]) + np.repeat(self.starts[picks] - starts[:-1], sizes)
        return SetStack._view(self.group, self.members[at], starts)


def _starts(sizes: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


def _join(g: GroupSpec, stacks: Sequence[SetStack]) -> SetStack:
    """The sets of every stack, in order, as one stack on g."""
    members = np.concatenate([S.members for S in stacks]) if stacks else np.empty(0, dtype=np.int64)
    return SetStack._view(g, members, _starts(np.concatenate([S.sizes for S in stacks] or [[]])))


def group_set(g: GroupSpec, members: Iterable[int]) -> GroupSet:
    """The set of these element indices, sorted and deduplicated.  Nested
    input (coordinate tuples, a 2-D array) is refused, not read flat."""
    try:
        a = np.asarray(list(members))  # a ragged nesting raises here
        if a.ndim != 1:
            raise ValueError
    except ValueError:
        raise GroupMismatchError("group_set takes a flat sequence of element indices, not nested input") from None
    a = np.sort(a)
    return GroupSet(g, a[np.r_[True, a[1:] != a[:-1]]] if a.size else a)


# -- counting kernels -----------------------------------------------------------


def corr_counts(A: GroupSet, B: GroupSet | None = None) -> np.ndarray:
    """(A o B)(x) = |B intersect (A + x)| = #{(a, b) : b - a = x}, as int64:
    the pair counts of (-A, B), with A read reflected (_pair_counts)."""
    return _pair_counts(A, A if B is None else B, True)


def conv_counts(A: GroupSet, B: GroupSet) -> np.ndarray:
    """Number of pairs (a, b) with a + b = x, for every x, as int64 (_pair_counts)."""
    return _pair_counts(A, B, False)


def _pair_counts(A: GroupSet, B: GroupSet, reflect: bool) -> np.ndarray:
    """Number of pairs (a, b) with a + b = x, for every x, as int64, a
    ranging over -A where reflect.

    Exact on either of two paths, picked by one cost rule on every group.
    The transform path, _columns of the two sets' transforms (A's read
    reflected), costs one inverse transform plus one forward transform of
    each distinct source set whose transform is not yet kept (a set made
    by neg() counts as its source), u of them: (1 + u) transform_cost(g)
    radix-2 levels.  The pair path (_conv_loop, A's members negated) costs
    one cell per pair, each _PAIR_COST levels.  So the transform is taken
    when _PAIR_COST |A| |B| > (1 + u) transform_cost(g), and the order is
    within MAX_TRANSFORM_ORDER or g is a 2-group.  Both sets keep the
    transforms computed there: the pipelines count with the same sets many
    times.

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
    if g.within_transform_cap:
        sources = {id(s): s for s in (S if S._source is None else S._source for S in (A, B))}
        todo = sum("transform" not in s.__dict__ for s in sources.values())
        if _PAIR_COST * len(A) * len(B) > (1 + todo) * transform_cost(g):
            pool = _join(g, [A.stack(), B.stack()])
            hats = (A.transform, B.transform)  # computed once, kept on each set
            return _columns(pool, hats, np.array([0]), np.array([1]), np.array([reflect]))[:, 0]
    return _conv_loop(g, A.members, B.members, reflect)


def _conv_loop(g: GroupSpec, a: np.ndarray, b: np.ndarray, reflect: bool) -> np.ndarray:
    """conv_counts by pairs of members of a (negated where reflect) and b:
    the table of a + b over the smaller array (rows) and the larger
    (columns), in blocks of rows of at most _BLOCK_ELEMENTS cells
    (column_blocks), each counted by one bincount."""
    if reflect and not g.is_boolean_space:  # -a = a on 2-groups
        a = neg_index_many(g, a)
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    counts = np.zeros(g.order, dtype=np.int64)
    for rows in column_blocks(len(small), len(big)):
        sums = add_index_many(g, big[None, :], small[rows, None])
        counts += np.bincount(sums.ravel(), minlength=g.order)
    return counts


def _columns(pool: SetStack, hats: np.ndarray | None, left: np.ndarray, right: np.ndarray,
             reflect: np.ndarray) -> np.ndarray:
    """Exact pair counts as one (N, k) int64 table: column j counts a + b = x
    over a in set left[j] of pool (negated where reflect[j]) and b in set
    right[j].  hats[i] is the transform of the pool's set i (_hats); column j
    multiplies A_hat (conj(A_hat), -A's transform, with A's error bound,
    where reflected) by B_hat, all columns in one multiply of the gathered
    rows (_rows).  On 2-groups a column is one integer Walsh transform of
    its products, divided by N, exact in int64: a product column has L1
    norm at most sqrt(sum |A_hat|^2 sum |B_hat|^2) = N sqrt(|A| |B|) <=
    N^2 <= 2^48 (Cauchy-Schwarz, Parseval, the membership cap), and the
    transform takes N ceil(sqrt(max |A| |B|)) as its columns' bound.  Elsewhere
    a column whose conv_errors bound is below 1/2 (one call for all) is the
    rounded inverse DFT of its products, and any other, or every one when
    hats is None, counts by pairs (_conv_loop), which negates A's members
    where reflected."""
    g, n = pool.group, pool.group.order
    a, b = pool.sizes[left], pool.sizes[right]
    out = _table(n, len(left), np.int64)
    live = np.flatnonzero((a > 0) & (b > 0))
    exact = (hats is not None) & (g.is_boolean_space | (conv_errors(g, a[live], b[live]) < 0.5))
    fast, slow = live[exact], live[~exact].tolist()
    if len(fast):
        flip = reflect[fast] & (not g.is_boolean_space)  # -A = A on 2-groups
        # a single row broadcasts over every column (out[:, fast] repeats one product)
        products = (_rows(hats, left[fast], flip) * _rows(hats, right[fast])).T
        if g.is_boolean_space:
            bound = n * (math.isqrt(int((a[fast] * b[fast]).max()) - 1) + 1)  # N ceil(sqrt(|A| |B|))
            out[:, fast] = wht_int_columns(g, products, bound) // n
        else:
            out[:, fast] = np.rint(idft_columns(g, products).real)
    for j in slow:
        out[:, j] = _conv_loop(g, pool[left[j]], pool[right[j]], reflect[j])
    return out


def _rows(hats, picks: np.ndarray, flip: np.ndarray | None = None) -> np.ndarray:
    """Rows picks of hats, conjugated where flip holds: one (1, N) row when
    every pick reads the same row alike (hats may then be a tuple of kept
    transforms), else a (k, N) gather."""
    flip = np.zeros(len(picks), dtype=bool) if flip is None else flip
    if (picks == picks[0]).all() and (flip == flip[0]).all():
        row = hats[picks[0]]
        return (np.conj(row) if flip[0] else row)[None]
    rows = hats[picks]
    if flip.any():
        np.conjugate(rows, out=rows, where=flip[:, None])
    return rows


def corr_columns(As: SetStack, Bs: SetStack) -> np.ndarray:
    """corr_counts of every pair (As[j], Bs[j]), (A o B)(x) = #{b - a = x},
    as the columns of one (N, k) int64 table (_columns, every A read
    reflected), on one stacked transform of the sets (of As alone when Bs
    is As); the caller keeps k * N within a block."""
    g = _pair_group(As, Bs)
    j = np.arange(len(As))
    pool, right = (As, j) if As is Bs else (_join(g, [As, Bs]), j + len(As))
    return _columns(pool, _hats(pool), j, right, np.ones(len(As), dtype=bool))


def _pair_group(As: SetStack, Bs: SetStack) -> GroupSpec:
    if As.group != Bs.group:
        raise GroupMismatchError("sets live on different groups")
    if len(As) != len(Bs):
        raise ValueError("need one B per A")
    return As.group


def column_blocks(count: int, order: int, per_item: int = 1) -> Iterator[slice]:
    """Slices of range(count), each a block of items whose stack of
    per_item columns (or rows) of order cells apiece holds at most
    _BLOCK_ELEMENTS cells, one item at least: a stack's memory does not
    grow with the number of items."""
    step = max(1, _BLOCK_ELEMENTS // (order * per_item))
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _table(n: int, k: int, dtype) -> np.ndarray:
    """An (n, k) table of zeros whose columns are contiguous in memory, so
    each column is written, transformed and read as one run."""
    return np.zeros((k, n), dtype=dtype).T


def _indicator_table(S: SetStack, dtype) -> np.ndarray:
    """The indicators of S's sets as the columns of one (N, k) table."""
    table = _table(S.group.order, len(S), dtype)
    table[S.members, np.repeat(np.arange(len(S)), S.sizes)] = 1
    return table


def _hats(S: SetStack) -> np.ndarray | None:
    """The transforms of S's sets as the rows of one (k, N) table: integer
    Walsh on 2-groups (exact: an indicator's L1 norm is at most N), DFT
    elsewhere, None past MAX_TRANSFORM_ORDER."""
    g = S.group
    if not g.within_transform_cap:
        return None
    if g.is_boolean_space:  # an indicator's L1 norm is its set's size
        return wht_int_columns(g, _indicator_table(S, np.int16), int(S.sizes.max(initial=0))).T
    return dft_columns(g, _indicator_table(S, np.complex128)).T  # the DFT's own dtype: no copy


def _support_stack(g: GroupSpec, counts: np.ndarray) -> SetStack:
    """The supports of the columns of a table of counts, as a stack."""
    owners, members = np.nonzero(counts.T)
    return SetStack._view(g, members, _starts(np.bincount(owners, minlength=counts.shape[1])))


def sumset(A: GroupSet, B: GroupSet) -> GroupSet:
    """A + B, the support of conv_counts(A, B)."""
    return GroupSet(A.group, np.flatnonzero(conv_counts(A, B)))


def sumset_size(A: GroupSet, B: GroupSet) -> int:
    """|A + B|, read from A's cache when B is A, or is -A: A + (-A) = A - A;
    any other B is counted once and kept on A under B."""
    if B._source is A or A._source is B:
        return A.diff_size
    if B is A:
        return A.sum_size
    if B not in A._sum_sizes:
        A._sum_sizes[B] = len(sumset(A, B))
    return A._sum_sizes[B]


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


def katz_koester_stack(As: SetStack, Bs: SetStack) -> list[SliceInclusion]:
    """B + A_x inside (A+B)_x for every pair (A, B) = (As[j], Bs[j]) and
    every x of A - A, each row decided cell by cell over the group.

    A - A and A + B of a block of pairs are one stack of pair counts on one
    transform of its sets.  All its displacements are the columns of one
    table over the elements y, in blocks of at most _BLOCK_ELEMENTS / 4
    cells, since a displacement holds complex transform columns: A_x and
    (A+B)_x are boolean columns read through y - x, and B + A_x is the
    support of one _columns call (no shift loop) over the block's A_x,
    pooled with their owners' B's, whose transforms it takes from the stack
    of pair counts.  x holds iff B + A_x lies in (A+B)_x.
    """
    g = _pair_group(As, Bs)
    ys = np.arange(g.order, dtype=np.int64)[:, None]
    out: list[SliceInclusion] = []
    for block in column_blocks(len(As), g.order):
        A, B = As[block], Bs[block]
        c = len(A)
        pool = _join(g, [A, B])
        hats = _hats(pool)
        j = np.arange(c)
        counts = _columns(pool, hats, np.r_[j, j], np.r_[j, j + c], np.arange(2 * c) < c)
        owners, all_xs = np.nonzero(counts[:, :c].T)  # A - A, pair after pair
        a_masks = _indicator_table(A, bool)
        s_masks = counts[:, c:] != 0  # A + B
        a_flat, s_flat = a_masks.T.ravel(), s_masks.T.ravel()  # pair p's column at p * N
        b_hats = None if hats is None else hats[c:].copy()
        del counts, hats  # not held through the displacement blocks
        left, right, holds = (np.empty(len(all_xs), dtype=t) for t in (np.int64, np.int64, bool))
        for cols in column_blocks(len(all_xs), g.order, per_item=4):
            own = owners[cols]
            shifted = sub_index_many(g, ys, all_xs[cols])
            shifted += own * g.order
            a_cols = a_flat[shifted] & _owner_columns(a_masks, own)
            s_cols = s_flat[shifted] & _owner_columns(s_masks, own)
            del shifted
            first, last = own[0], own[-1] + 1
            slices = _support_stack(g, a_cols)  # the A_x, pooled after their owners' B's
            pool = _join(g, [B[first:last], slices])
            hats = None if b_hats is None else np.concatenate((b_hats[first:last], _hats(slices)))
            at = np.arange(last - first, len(pool))
            left_cols = _columns(pool, hats, at, own - first, np.zeros(len(own), dtype=bool)) != 0
            left[cols] = left_cols.sum(axis=0)
            right[cols] = s_cols.sum(axis=0)
            holds[cols] = ~(left_cols & ~s_cols).any(axis=0)
        ends = np.cumsum(np.bincount(owners, minlength=c)).tolist()
        out.extend(SliceInclusion(all_xs[lo:hi], left[lo:hi], right[lo:hi], holds[lo:hi])
                   for lo, hi in zip([0] + ends, ends))
    return out


def _owner_columns(table: np.ndarray, owners: np.ndarray) -> np.ndarray:
    """Column owners[j] of table for every j, owners ascending: one column,
    broadcast, when a block holds one pair's displacements only."""
    return table[:, owners[:1]] if owners[0] == owners[-1] else table[:, owners]


def triangle_stack(
    Ws: SetStack | Sequence[np.ndarray | Sequence[Sequence[int]]],
    Ys: SetStack | Sequence[np.ndarray | Sequence[Sequence[int]]],
    Xs: SetStack,
    Zs: SetStack,
) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of |W||X| |Y - diag(Z)| <= |(W, Y, Z) - diag(X)| for
    every instance i, (Ws[i], Ys[i], Xs[i], Zs[i]), as int64 arrays lhs and
    rhs, on the group of the stacks Xs and Zs.  W and Y are each a SetStack
    (a family of 1-tuples per set) or families of index tuples, each an
    int64 array of shape (members, length) or a sequence of tuples; every
    W tuple has one length, and every Y tuple one, each 1 or 2.  The sides
    are cardinalities: duplicates count once.

    A family of every instance is one int64 table of rows, its distinct
    members sorted by instance: a stack's members as they are, tuple
    families after one sort (_family_rows).  The tuples of Y - diag(Z) and of
    (W, Y, Z) - diag(X) are rows of each instance's product of families,
    their coordinates from sub_index_many, and each side counts distinct
    (instance, row) pairs: one lexsort, one compare of adjacent rows and one
    bincount.  A row is never packed into one integer: with tuples of length
    2 it lies in G^5, past int64 once N > 2^12.  A block of instances holds
    at most _BLOCK_ELEMENTS product rows, or one instance (column_blocks).
    """
    g = _pair_group(Xs, Zs)
    m = len(Ws)
    if not len(Ys) == len(Xs) == m:
        raise ValueError("need one W, Y, X and Z family per instance")
    fams = [_family_rows(g, F) for F in (Ws, Ys, Xs, Zs)]
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
    instance, and the number and first row of each instance's members.  A
    SetStack's members are its rows as they are, distinct and sorted."""
    if isinstance(fams, SetStack):
        if fams.group != g:
            raise GroupMismatchError("sets live on different groups")
        return fams.members[:, None], fams.sizes, fams.starts[:-1]
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


def energy_difference_bounds(As: SetStack, Bs: SetStack, ks: Sequence[int]) -> list[EnergyBoundReport]:
    """E_k(B) * E(A, A+B)^k >= |A|^(2k+1) |B|^(2k) / K' with K' = |A-A|/|A|,
    for every pair (A, B) = (As[j], Bs[j]) at order k = ks[j], compared with
    cleared denominators: E_k(B) * E(A, A+B)^k * |A-A| >= |A|^(2k+2) * |B|^(2k).

    A block of pairs takes two stacks of pair counts, A + B, A o A and
    B o B on one transform of its sets, then (A+B) o A on one more of the
    sums.  The energies are power sums of their columns
    (harmonic.power_sums), so every side is an exact integer.
    """
    g = _pair_group(As, Bs)
    if len(ks) != len(As):
        raise ValueError("need one order k per pair")
    if any(k < 2 for k in ks):
        raise ValueError("need k >= 2")
    if not (As.sizes.all() and Bs.sizes.all()):
        raise ValueError("both sets must be nonempty")
    reports = []
    for block in column_blocks(len(As), g.order, per_item=3):
        A, B = As[block], Bs[block]
        c = len(A)
        pool = _join(g, [A, B])
        hats = _hats(pool)
        j = np.arange(c)
        counts = _columns(pool, hats, np.r_[j, j, j + c], np.r_[j + c, j, j + c], np.arange(3 * c) >= c)
        sums = _support_stack(g, counts[:, :c])
        diffs = np.count_nonzero(counts[:, c : 2 * c], axis=0).tolist()
        e_b = power_sums(counts[:, 2 * c :], 3)
        del counts
        pool = _join(g, [A, sums])  # (A+B) o A on the A's transforms, the sums' in the B's place
        if hats is not None:
            hats[c:] = _hats(sums)
        e_as = power_sums(_columns(pool, hats, j + c, j, np.ones(c, dtype=bool)), 2)[0]
        for i, (k, a, b) in enumerate(zip(ks[block], A.sizes.tolist(), B.sizes.tolist())):
            lhs = e_b[k - 2][i] * e_as[i] ** k * diffs[i]
            rhs = a ** (2 * k + 2) * b ** (2 * k)
            reports.append(EnergyBoundReport(k, e_b[k - 2][i], e_as[i], diffs[i], lhs, rhs,
                                             Fraction(lhs, rhs), lhs >= rhs))
    return reports


def higher_energies(As: SetStack, top: int) -> list[dict[int, int]]:
    """E_k(A) for k = 2..top and every set A of As: exact power sums of the
    columns of stacked autocorrelations A o A (harmonic.power_sums)."""
    if top < 2:
        raise ValueError("need k >= 2")
    out: list[dict[int, int]] = []
    for block in column_blocks(len(As), As.group.order):
        S = As[block]
        sums = power_sums(corr_columns(S, S), top)
        out.extend({k: sums[k - 2][j] for k in range(2, top + 1)} for j in range(len(S)))
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
    g.require_transform()  # the peak reads A's transform: refuse before any count
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
