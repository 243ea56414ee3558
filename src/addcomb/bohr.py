"""Bohr sets: membership, dilation, intersection, regularity, size bounds.

B(Gamma, eps) = {x : ||gamma_j . x|| < eps_j for all j}, strict inequality,
where ||.|| is distance of the pairing phase to the nearest integer.  The
phase of gamma_j at x is c_j(x)/N with c_j an integer, so membership is the
integer test v_j(x) < ceil(eps_j N) with v_j = min(c_j, N - c_j).

Dilating every radius by rho only rescales one per-element statistic, so a
single table per (group, Gamma, radius shape) answers size queries for every
dilate.  It has one count entry, _ExactCounter.counts, which takes a batch
of queries over one denominator, and one members entry, member_indices.
The phases v_j come in int32 blocks from _phase_blocks.  One call, the one
a table makes, builds for all its characters a small table per digit of
the element index, then a row table over the low digits and a lead table
over the high ones, reduced mod N without a branch; one add of lead and
row per block and character is then the only pass over the group that
makes the phases.  With equal radii, the only shape the
pipelines build, they raise one int32 key max_j v_j per element, and a
cumulative histogram of the keys answers a batch by one lookup per cut,
exact with no rounding and no sort.  Any other shape keeps no table, and a
batch is one pass of the integer test over the group, a row per query.  The
table is cached, so the radius search, the materialization, the regularity
grid and the dilate profile of one Bohr set share it.

The regularity grid eta = +-i/(1000 d), i = 1..10, gives 100 d|eta| = i/10,
so Bourgain's test (1 - 100 d|eta|)|B| < |B_(1+eta)| < (1 + 100 d|eta|)|B|
is the integer test (10 - i)|B| < 10|B_(1+eta)| < (10 + i)|B|.  The 21
queries of a candidate radius (eta = 0 and the grid) are one batch, and the
verdict compares integers only.

The integer test is one function, _member_rows, over a stack of Bohr sets
at once.  The size bounds are checked in one place, size_bound_stack, on
a stack of instances.  They need a few sizes of many unrelated Bohr sets,
where a table per set would be built for two or three queries: they are
counted by that test instead, on one table of the phases of all their
characters, in one pass over the group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .groups import GroupMismatchError, GroupSpec, neg_index_many
from .report import CheckFailure, CheckRecord, record_ge, record_le, require
from .setstat import GroupSet, column_blocks

_CHUNK = 1 << 16
_ONE = Fraction(1)
# the regularity grid eta = +-i/(1000 d), i = 1..10, as the steps +-i in grid order
_GRID_STEPS = tuple(s * i for i in range(1, 11) for s in (1, -1))
_RADIUS_ROUNDS = (256, 1024, 4096)
_RADIUS_DENOM = 1 << 30


class RegularRadiusError(CheckFailure):
    """No candidate radius passed the regularity grid.  The record is the
    best candidate's worst grid margin (ten times the margin, an integer)
    against 1; sizes lists every candidate as (rho, |B|)."""

    def __init__(self, record: CheckRecord, message: str, sizes: list[tuple[Fraction, int]]):
        super().__init__(record, message=message)
        self.sizes = sizes


@dataclass(frozen=True)
class BohrSpec:
    group: GroupSpec
    gamma: tuple[int, ...]
    eps: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.gamma) != len(self.eps):
            raise ValueError("one radius per character required")
        for t in self.gamma:
            if not 0 <= t < self.group.order:
                raise ValueError(f"character index {t} out of range")
        for e in self.eps:
            if not 0 < e <= 1:
                raise ValueError(f"radius {e} outside (0, 1]")

    @property
    def d(self) -> int:
        return len(self.gamma)


@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    worst_margin: float | None
    sizes: tuple[tuple[Fraction, int], ...]
    base_size: int
    note: str = "finite grid evidence, not an all-eta proof"


@dataclass(frozen=True)
class BohrSet:
    spec: BohrSpec
    members: GroupSet

    def __len__(self) -> int:
        return len(self.members)

    @property
    def density(self) -> Fraction:
        return Fraction(len(self.members), self.spec.group.order)


def make_bohr_spec(g: GroupSpec, gamma: Sequence[int], eps) -> BohrSpec:
    """Normalize radii (a single rational is broadcast to every character)."""
    gam = tuple(int(t) for t in gamma)  # Python ints: they key the table cache and the report
    if isinstance(eps, (Fraction, int, str)):
        rad = tuple(Fraction(eps) for _ in gam)
    else:
        rad = tuple(Fraction(e) for e in eps)
    return BohrSpec(g, gam, rad)


class _ExactCounter:
    """Counts and members of the Bohr sets of one (group, Gamma, radius shape).

    Radii enter only through their shape r_j = eps_j / eps_0: x lies in the
    rho-dilate B(Gamma, rho * eps) iff v_j(x) < ceil(sigma r_j N) for every j
    at the query sigma = rho * eps_0, where v_j(x) = min(c_j(x), N - c_j(x))
    for the integer phase c_j(x) in [0, N) of gamma_j at x.

    Equal radii, the only shape the pipelines build, keep a table: the key
    k(x) = max_j v_j(x) in [0, N/2] (_keys) and its cumulative histogram
    cum[c] = #{x : k(x) <= c}, both int32 as N <= 2^24, 6 bytes per element;
    the two cached tables hold up to 192 MiB at the cap.  A count is
    cum[cut - 1] at the cut ceil(sigma N) clamped at N/2 + 1, and the members
    are the x with k(x) < cut, ascending: nothing is sorted.  Any other shape
    keeps no table: a batch is one blocked pass of _member_rows with a row
    per query, the scan that also counts the stacked size bounds of
    size_bound_stack.
    """

    def __init__(self, g: GroupSpec, gamma: tuple[int, ...], shape: tuple[Fraction, ...]):
        self.group = g
        self.shape = shape
        self.weights = _weights(g, gamma)
        self.keys: np.ndarray | None = None
        self.cum: np.ndarray | None = None
        if all(r == 1 for r in shape):
            self.keys = _keys(g, self.weights)
            # the keys' histogram, counted _CHUNK keys at a time (bincount
            # would copy every key to int64) and summed in place; an int32
            # one keeps add.at on its fast loop
            cum = np.zeros(g.order // 2 + 1, dtype=np.int32)
            for start in range(0, g.order, _CHUNK):
                np.add.at(cum, self.keys[start : start + _CHUNK], np.int32(1))
            self.cum = np.cumsum(cum, out=cum)

    def counts(self, nums: Sequence[int], den: int) -> list[int]:
        """|B| at every query sigma = num / den > 0 of the batch: the
        histogram read at each cut, or with no table one _rows pass."""
        if self.keys is None:
            return sum(member.sum(axis=1) for _, member in self._rows(nums, den)).tolist()
        n = self.group.order
        return [int(self.cum[min(_radius_cut(num, den, n), n // 2 + 1) - 1]) for num in nums]

    def member_indices(self, num: int, den: int) -> np.ndarray:
        """Ascending indices of the members at query sigma = num / den > 0."""
        if self.keys is None:
            rows = self._rows([num], den)
            return np.concatenate([start + np.flatnonzero(member[0]) for start, member in rows])
        return np.flatnonzero(self.keys < _radius_cut(num, den, self.group.order))

    def _rows(self, nums: Sequence[int], den: int):
        """The first index of each _phase_blocks block with its (len(nums), len)
        integer test v_j(x) < ceil(sigma r_j N) at every sigma = num / den:
        one _member_rows call per block for the whole batch."""
        n = self.group.order
        cuts = [[_radius_cut(num * r.numerator, den * r.denominator, n) for r in self.shape] for num in nums]
        cuts = np.array(cuts, dtype=np.int32)
        chars = np.broadcast_to(np.arange(len(self.shape)), cuts.shape)
        for start, v in _phase_blocks(self.group, self.weights, max(1, len(self.weights))):
            yield start, _member_rows(v, chars, cuts)


def _keys(g: GroupSpec, weights: np.ndarray) -> np.ndarray:
    """k(x) = max_j v_j(x) over the group (int32; 0 for no character), from
    one _phase_blocks call, so the digit, row and lead tables of the d
    characters are built once.  Its blocks come max(1, _CHUNK // 4N)
    characters of the _weights table at a time: one from order _CHUNK / 4
    on, so build memory is O(N) at any d, and on a smaller group up to
    _CHUNK / 4 phases in few numpy calls."""
    keys = np.zeros(g.order, dtype=np.int32)
    for start, v in _phase_blocks(g, weights, max(1, _CHUNK // (4 * g.order))):
        block = keys[start : start + v.shape[1]]
        for row in v:
            np.maximum(block, row, out=block)
    return keys


def _weights(g: GroupSpec, gamma: Sequence[int]) -> np.ndarray:
    """The (d, rank) int64 table with c_j(x) = sum_i x_i weights[j, i] mod N."""
    n = g.order
    return np.array(
        [[(c * (n // f)) % n for c, f in zip(g.unindex(t), g.factors)] for t in gamma],
        dtype=np.int64,
    ).reshape(len(gamma), g.rank)


def _digits(g: GroupSpec) -> list[tuple[int, int, int]]:
    """(axis, span, step) of every digit of the element index, least
    significant first.  A coordinate of an axis of length f is h b + l with
    base b = 2^ceil(log2(f) / 2), l < b and h < ceil(f / b): the digits l
    (step 1) and h (step b) each take O(sqrt f) values.  Only the top axis
    may pad, as h b + l >= f lies at an index >= N there; a lower axis
    whose length b does not divide stays one digit of span f and step 1."""
    digits = []
    for k, f in enumerate(g.factors):
        base = 1 << ((f - 1).bit_length() + 1) // 2
        high = -(-f // base)
        if high > 1 and (f % base == 0 or k == g.rank - 1):
            digits += [(k, base, 1), (k, high, base)]
        else:
            digits.append((k, f, 1))
    return digits


def _outer_sum(tables: Sequence[np.ndarray], n: int, d: int) -> np.ndarray:
    """(d, prod of spans) int32 phases c_j over a run of digits, least
    significant first: outer sums of their (d, span) tables, each brought
    back into [0, N) by subtracting N times the 0/1 table of out >= N.  That
    form has no branch: a masked subtraction mispredicts on phases, where
    out >= N holds at random."""
    if not tables:
        return np.zeros((d, 1), dtype=np.int32)
    out = tables[0]
    for table in tables[1:]:
        out = (table[:, :, None] + out[:, None, :]).reshape(d, table.shape[1] * out.shape[1])
        out -= (out >= n) * np.int32(n)
    return out


def _phase_blocks(g: GroupSpec, weights: np.ndarray, batch: int):
    """(start, v) for each block of element indices from start on, v the
    (k, len) int32 table of v_j = min(c_j, N - c_j) there for the k
    characters of one batch of a (d, rank) _weights table W.  The batches
    take batch >= 1 characters in order (the last may be short, and d = 0
    makes one empty batch), and each runs over every block before the next
    begins.  v is a view of one buffer that the next block overwrites.

    Digit u of span S and step s (_digits) adds u (s W_jk mod N) mod N to
    c_j.  These digit tables, the rows of one (d, digits, max S) table, are
    the only place that takes a remainder.  The trailing digits make a row
    of R indices: a digit joins while R is below the product of the digits
    left and stays at most _CHUNK with it, and the last digit never joins.
    The leading digits number the rows.  Each part is one _outer_sum
    table, built once for all d characters: d (R + N / R) int32, with R
    near sqrt N when the digits allow.  A block is a run of whole rows, at
    most _CHUNK elements, where c_j = lead[q] + row[r] < 2N <= 2^25 is
    exact in int32: that add is the one pass over the block that makes c.
    The row table is stored less N, so the add gives c - N in [-N, N), and
    v = min(u, N - u) at u = |c - N|.
    """
    n, d = g.order, len(weights)
    axes, spans, steps = zip(*_digits(g))
    units = np.array(steps) * weights[:, axes] % n
    table = (np.arange(max(spans)) * units[:, :, None] % n).astype(np.int32)
    tables = [table[:, i, :span] for i, span in enumerate(spans)]
    cut, width, rest = 0, 1, math.prod(spans)
    while cut < len(spans) - 1 and width < rest and width * spans[cut] <= _CHUNK:
        width *= spans[cut]
        rest //= spans[cut]
        cut += 1
    row = _outer_sum(tables[:cut], n, d)[:, None, :] - np.int32(n)
    rows = -(-n // width)  # the padded values of a top digit lie past the last row
    lead = _outer_sum(tables[cut:], n, d)[:, :rows, None].copy()
    del table, tables  # the blocks read row and lead alone
    per = _CHUNK // width
    buf = np.empty((min(batch, d), min(per, rows), width), dtype=np.int32)
    tmp = np.empty_like(buf)
    for j in range(0, max(d, 1), batch):
        k = min(batch, d - j)
        for q in range(0, rows, per):
            c, t = buf[:k, : rows - q], tmp[:k, : rows - q]
            np.add(lead[j : j + k, q : q + per], row[j : j + k], out=c)
            np.abs(c, out=c)
            np.subtract(n, c, out=t)
            np.minimum(c, t, out=c)
            start = q * width
            yield start, c.reshape(k, c.shape[1] * width)[:, : n - start]


def _radius_cut(num: int, den: int, n: int) -> int:
    """ceil(eps N) at eps = num / den, capped at N since v_j <= N/2:
    v_j < ceil(eps N) iff v_j / N < eps, as v_j is an integer."""
    return min(-(-num * n // den), n)


def _member_rows(v: np.ndarray, chars: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """The integer membership test of a stack of Bohr sets over the elements
    of a phase table v: row r of the (rows, len) result holds where
    v[chars[r, j]] < cuts[r, j] for every j."""
    out = np.ones((chars.shape[0], v.shape[1]), dtype=bool)
    for j in range(chars.shape[1]):
        out &= v[chars[:, j]] < cuts[:, j, None]
    return out


@lru_cache(maxsize=2)
def _phase_table(g: GroupSpec, gamma: tuple[int, ...], shape: tuple[Fraction, ...]) -> _ExactCounter:
    return _ExactCounter(g, gamma, shape)


def _counter(spec: BohrSpec) -> tuple[_ExactCounter, Fraction]:
    """The shared table for spec's characters and radius shape, and eps_0:
    the rho-dilate of spec is the query sigma = rho * eps_0."""
    e0 = spec.eps[0] if spec.eps else _ONE
    return _phase_table(spec.group, spec.gamma, tuple(e / e0 for e in spec.eps)), e0


def materialize(g: GroupSpec, spec: BohrSpec) -> BohrSet:
    """Enumerate members exactly; asserts the (N/2) prod eps_j size floor."""
    if spec.group != g:
        raise GroupMismatchError("spec belongs to a different group")
    counter, scale = _counter(spec)
    members = GroupSet(g, counter.member_indices(scale.numerator, scale.denominator))
    _check_members(spec, len(members), 0 in members, members.neg() == members)
    return BohrSet(spec, members)


def _check_members(spec: BohrSpec, size: int, has_identity: bool, symmetric: bool) -> int:
    """materialize's three checks on a Bohr set of this size: it holds the
    identity, it is symmetric under negation, and it meets the size floor
    (N/2) prod eps_j.  Returns the size."""
    if not has_identity:
        raise AssertionError("Bohr set lost the identity element")
    if not symmetric:
        raise AssertionError("Bohr set is not symmetric under negation")
    n = spec.group.order
    num, den = _radius_product(spec)
    require(
        record_ge(
            "Bohr size floor",
            "bohr:size_lower",
            2 * size * den,
            n * num,
            note=f"|B| = {size} vs (N/2) prod eps over order {n}",
        )
    )
    return size


def _radius_product(spec: BohrSpec) -> tuple[int, int]:
    return math.prod(e.numerator for e in spec.eps), math.prod(e.denominator for e in spec.eps)


def dilate(spec: BohrSpec, rho: Fraction) -> BohrSpec:
    rho = Fraction(rho)
    if rho <= 0:
        raise ValueError("dilation factor must be positive")
    new_eps = tuple(rho * e for e in spec.eps)
    for e in new_eps:
        if e > 1:
            raise ValueError(f"radius overflow: dilate by {rho} pushes a radius to {e} > 1")
    return BohrSpec(spec.group, spec.gamma, new_eps)


def size_profile(g: GroupSpec, spec: BohrSpec, rhos: Sequence[Fraction]) -> list[int]:
    """|B(Gamma, rho * eps)| for each rational dilation factor rho: the
    lengths of the materialized dilates, counted as one batch of queries
    on the shared table over a common denominator of the factors (the
    product of the distinct ones: a cut is exact over any)."""
    if spec.group != g:
        raise GroupMismatchError("spec belongs to a different group")
    if not rhos:
        return []
    if min(rhos) <= 0:
        raise ValueError("dilation factor must be positive")
    top = max(spec.eps, default=0)
    if max(rhos) * top > 1:
        raise ValueError(f"radius overflow at dilation {next(rho for rho in rhos if rho * top > 1)}")
    counter, scale = _counter(spec)
    den = math.prod({rho.denominator for rho in rhos})
    nums = [rho.numerator * (den // rho.denominator) * scale.numerator for rho in rhos]
    return counter.counts(nums, den * scale.denominator)


def intersect(spec1: BohrSpec, spec2: BohrSpec) -> BohrSpec:
    if spec1.group != spec2.group:
        raise GroupMismatchError("Bohr specs live on different groups")
    radii: dict[int, Fraction] = {}
    order: list[int] = []
    for t, e in zip(spec1.gamma + spec2.gamma, spec1.eps + spec2.eps):
        if t in radii:
            radii[t] = min(radii[t], e)
        else:
            radii[t] = e
            order.append(t)
    return BohrSpec(spec1.group, tuple(order), tuple(radii[t] for t in order))


def default_eta_grid(d: int) -> tuple[Fraction, ...]:
    """Symmetric grid eta = +-i/(1000 d), i = 1..10, so d|eta| <= 1/100."""
    if d == 0:
        return ()
    return tuple(Fraction(k, 1000 * d) for k in _GRID_STEPS)


def _grid_counts(counter: _ExactCounter, sigma: Fraction, d: int) -> list[int]:
    """|B| at query sigma, then |B_(1+eta)| at every eta of
    default_eta_grid(d), in its order: at the step k = +-i, sigma (1 + eta)
    is sigma (1000 d + k) / (1000 d), so the 21 queries are one batch over
    the common denominator 1000 d."""
    den = 1000 * d
    nums = [sigma.numerator * k for k in (den, *(den + k for k in _GRID_STEPS))]
    return counter.counts(nums, sigma.denominator * den)


def _grid_margins(counts: list[int]) -> list[int]:
    """For the counts of _grid_counts, ten times the margin of every grid
    point in the test (1 - 100 d|eta|)|B| < |B_(1+eta)| < (1 + 100 d|eta|)|B|.
    As 100 d|eta| = i/10, that is min(10|B_eta| - (10 - i)|B|,
    (10 + i)|B| - 10|B_eta|), an integer: the point passes iff it is
    positive."""
    base = counts[0]
    return [
        min(10 * size - (10 - abs(k)) * base, (10 + abs(k)) * base - 10 * size)
        for k, size in zip(_GRID_STEPS, counts[1:])
    ]


def regularity_test(b: BohrSet) -> RegularityVerdict:
    """Check (1 - 100 d|eta|)|B| < |B_(1+eta)| < (1 + 100 d|eta|)|B| on the
    default grid."""
    spec = b.spec
    d = spec.d
    if d == 0:
        return RegularityVerdict(True, None, (), len(b.members), note="dimension 0 is vacuously regular")
    counter, scale = _counter(spec)
    counts = _grid_counts(counter, scale, d)
    if counts[0] != len(b.members):
        raise AssertionError("materialized member count disagrees with the counting table")
    worst = min(_grid_margins(counts))
    return RegularityVerdict(
        regular=worst > 0,
        worst_margin=worst / 10,
        sizes=tuple(zip(default_eta_grid(d), counts[1:])),
        base_size=counts[0],
    )


def find_regular_radius(g: GroupSpec, gamma: Sequence[int], eps) -> BohrSpec:
    """Search rho in (1/2, 1) so that B(Gamma, rho * eps) passes the grid test.

    Geometric sweep of 256 candidate factors, densified by 4x up to twice:
    the schedule _RADIUS_ROUNDS, read at each call.  Exhaustion raises
    RegularRadiusError with the full size-vs-radius list; that signals a
    grid too coarse for this instance, not a structural impossibility.
    """
    base = make_bohr_spec(g, gamma, eps)
    counter, scale = _counter(base)
    d = base.d
    sizes: list[tuple[Fraction, int]] = []
    worsts: list[int] = []  # each candidate's worst grid margin
    seen: set[Fraction] = set()
    for points in _RADIUS_ROUNDS:
        for i in range(points):
            rho = Fraction(round(2 ** (-(i + 1) / (points + 1)) * _RADIUS_DENOM), _RADIUS_DENOM)
            if not Fraction(1, 2) < rho < 1 or rho in seen:
                continue
            seen.add(rho)
            if d == 0:
                return dilate(base, rho)
            counts = _grid_counts(counter, rho * scale, d)
            sizes.append((rho, counts[0]))
            worsts.append(min(_grid_margins(counts)))
            if worsts[-1] > 0:
                return dilate(base, rho)
    lines = [f"  rho={r}  size={s}" for r, s in sizes[:64]]
    if len(sizes) > 64:
        lines.append(f"  ... {len(sizes) - 64} more candidates")
    raise RegularRadiusError(
        record_ge("regular radius", "bohr:regular_radius", max(worsts, default=0), 1,
                  note=f"best worst grid margin (x10) of {len(sizes)} candidate radii"),
        "no regular radius found in (eps/2, eps) after densification; size-vs-radius trace:\n"
        + "\n".join(lines),
        sizes,
    )


def size_bound_stack(g: GroupSpec, instances: Sequence[Sequence[BohrSpec]]) -> list[CheckRecord]:
    """Three records for every instance (b, *others) of m specs on g, each
    required as it is made: the size floor of b, the half-radius doubling
    cap |B| <= 8^(d+1) |B_1/2| of b, and the intersection entropy bound
    |/\\ B^(i)| * N^(m-1) >= prod |B^(i)_(1/2)|.  Before them, every set of
    the instance passes materialize's checks (_check_members), and the
    wedge passes them between the cap and the entropy bound, so the first
    check that fails raises its CheckFailure.

    Every Bohr set a block of instances needs (each set, its wedge and each
    set at half its radii) is a row of one integer membership test,
    _member_rows, over one (characters, elements) table of the phases v_j
    of the union of the block's characters, built in one _phase_blocks
    pass, which also compares the rows at x with those at -x (_scan).  A
    block holds at most _BLOCK_ELEMENTS cells of rows by elements, or one
    instance (column_blocks), so memory grows neither with the number of
    instances nor with the group order.
    """
    if any(spec.group != g for sets in instances for spec in sets):
        raise GroupMismatchError("spec belongs to a different group")
    n = g.order
    records: list[CheckRecord] = []
    per_item = max((2 * len(sets) + 1 for sets in instances), default=1)
    for block in column_blocks(len(instances), n, per_item):
        rows: list[BohrSpec] = []
        for sets in instances[block]:
            rows += [*sets, reduce(intersect, sets), *(dilate(s, Fraction(1, 2)) for s in sets)]
        sizes, identity, symmetric = (a.tolist() for a in _scan(g, rows))
        at = 0
        for sets in instances[block]:
            m = len(sets)
            for j, spec in enumerate(sets, at):
                _check_members(spec, sizes[j], identity[j], symmetric[j])
            spec, size, w = sets[0], sizes[at], at + m
            halves = sizes[w + 1 : w + 1 + m]
            num, den = _radius_product(spec)
            floor = require(
                record_ge("Bohr size floor", "bohr:size_lower", 2 * size * den, n * num, note=f"d={spec.d}")
            )
            cap = require(
                record_le(
                    "half-radius doubling cap",
                    "bohr:size_halving",
                    size,
                    8 ** (spec.d + 1) * halves[0],
                    note=f"|B|={size}, |B_1/2|={halves[0]}",
                )
            )
            wedge = _check_members(rows[w], sizes[w], identity[w], symmetric[w])
            entropy = require(
                record_ge(
                    "intersection entropy floor",
                    "bohr:size_intersection",
                    wedge * n ** (m - 1),
                    math.prod(halves),
                    note=f"m={m} sets, wedge size {wedge}",
                )
            )
            records += [floor, cap, entropy]
            at = w + 1 + m
    return records


def _scan(g: GroupSpec, specs: Sequence[BohrSpec]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|B|, whether B holds the identity, and whether B is symmetric under
    negation, for the Bohr set B of every spec: one phase pass over the
    union of their characters.

    Symmetry compares the rows at x and at -x for every x of the first
    _phase_blocks block (the whole group at order _CHUNK or less): its rows
    are kept, and each block is compared at the negations that fall in it,
    one slice of them sorted.  As v_j(-x) = v_j(x), a true table passes,
    and one whose column x holds the phases of another element y(x) passes
    only where B holds y(x) and y(-x) alike.  (The phases of the negated
    characters equal those of the characters at any y(x): no check.)
    """
    n = g.order
    flat = [t for spec in specs for t in spec.gamma]
    gamma = sorted(set(flat))
    column = {t: j for j, t in enumerate(gamma)}
    dims = np.array([spec.d for spec in specs], dtype=np.int64)
    slots = np.arange(dims.max(initial=0)) < dims[:, None]  # row r's first d_r slots, row by row as flat
    chars = np.zeros(slots.shape, dtype=np.int64)
    chars[slots] = [column[t] for t in flat]
    # a padded slot always passes, as v_j <= N/2 < N
    cuts = np.full(slots.shape, n, dtype=np.int32)
    cuts[slots] = [_radius_cut(e.numerator, e.denominator, n) for spec in specs for e in spec.eps]
    sizes = np.zeros(len(specs), dtype=np.int64)
    symmetric = np.ones(len(specs), dtype=bool)
    for start, v in _phase_blocks(g, _weights(g, gamma), max(1, len(gamma))):
        member = _member_rows(v, chars, cuts)
        if start == 0:  # the first block's x in the order of -x, and -x in that order
            first = member
            negs = neg_index_many(g, np.arange(member.shape[1], dtype=np.int32))  # indices below 2^24
            by_neg = np.argsort(negs).astype(np.int32)
            negs = negs[by_neg]
        lo, hi = negs.searchsorted((start, start + member.shape[1]))
        symmetric &= (first.take(by_neg[lo:hi], axis=1) == member.take(negs[lo:hi] - start, axis=1)).all(axis=1)
        sizes += member.sum(axis=1)
    return sizes, first[:, 0], symmetric
