"""Bohr sets: membership, dilation, intersection, regularity, size bounds.

B(Gamma, eps) = {x : ||gamma_j . x|| < eps_j for all j}, strict inequality,
where ||.|| is distance of the pairing phase to the nearest integer.  The
phase of gamma_j at x is c_j(x)/N with c_j an integer, so membership is the
integer test v_j(x) < ceil(eps_j N) with v_j = min(c_j, N - c_j).

Dilating every radius by rho only rescales one per-element statistic, so a
single table per (group, Gamma, radius shape) answers size queries for every
dilate: the int64 phases v_j are built once into a sorted float key, a count
is a binary search, and the few points the key cannot separate from the cut
(a proven band of relative width 8 * 2^-53) are settled by the integer test.
See _ExactCounter.  The table is cached, so the radius search, the
materialization and the regularity grid of one Bohr set share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .groups import (
    MAX_MEMBERSHIP_ORDER,
    GroupMismatchError,
    GroupSpec,
    SizeLimitError,
    _coords_of,
)
from .report import CheckRecord, record_ge, record_le, require
from .setstat import GroupSet

_CHUNK = 1 << 16
# sigma and every key weight must be normal doubles with room for a factor
# N/2 < 2^23, so that the error band of _ExactCounter holds
_KEY_MIN = 2.0**-1000
_KEY_MAX = 2.0**1000
_BAND_LO = 1 - 2.0**-50  # 1 - 8u, exact in binary64
_BAND_HI = 1 + 2.0**-50
_ONE = Fraction(1)
_DEFAULT_GRID_STEPS = 10
_RADIUS_ROUNDS = (256, 1024, 4096)
_RADIUS_DENOM = 1 << 30


class RegularRadiusError(RuntimeError):
    """No candidate radius passed the regularity grid; carries the trace."""

    def __init__(self, message: str, trace: list[tuple[Fraction, int]]):
        super().__init__(message)
        self.trace = trace


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
    grid: tuple[Fraction, ...]
    sizes: tuple[tuple[Fraction, int], ...]
    base_size: int
    note: str = "finite grid evidence, not an all-eta proof"


@dataclass(frozen=True)
class BohrSet:
    spec: BohrSpec
    members: GroupSet
    regular: RegularityVerdict | None = None

    def __len__(self) -> int:
        return len(self.members)

    @property
    def density(self) -> Fraction:
        return Fraction(len(self.members), self.spec.group.order)


def make_bohr_spec(g: GroupSpec, gamma: Sequence[int], eps) -> BohrSpec:
    """Normalize radii (a single rational is broadcast to every character)."""
    gam = tuple(gamma)
    if isinstance(eps, (Fraction, int, str)):
        rad = tuple(Fraction(eps) for _ in gam)
    else:
        rad = tuple(Fraction(e) for e in eps)
    return BohrSpec(g, gam, rad)


class _ExactCounter:
    """Sorted float key over one (group, Gamma, radius shape), exact by band.

    Radii enter only through their shape r_j = eps_j / eps_0: for any spec
    with these characters and this shape, and any dilation rho, x lies in
    B(Gamma, rho * eps) iff m(x) < sigma with sigma = rho * eps_0 and

        m(x) = max_j v_j(x) / (r_j N),   v_j(x) = min(c_j(x), N - c_j(x)),

    where c_j(x) in [0, N) is the integer phase of gamma_j at x.  The phases
    are built once, in int64 chunks, to form the float key
    k(x) = max_j fl(v_j(x) * w_j) with w_j = fl(1 / (r_j N)); the table keeps
    only the keys in sorted order (float64) and the matching element indices
    (int32, as N <= 2^24), 12 bytes per element at any order.  The two most
    recent tables stay cached after the call that built them returns, so up
    to 24 N bytes are held: 384 KiB at N = 2^14, 384 MiB at the 2^24 cap.

    Error band.  Let u = 2^-53.  v_j <= N/2 <= 2^23 is exact in a double, w_j
    and the product are each rounded once, and the max is exact, so
    k(x) = m(x)(1 + theta) with |theta| <= 2u + u^2 < 3u, as long as every
    w_j is a normal double (checked at build).  A query rounds sigma once and
    widens it by the representable factors 1 -/+ 8u, so lo < sigma(1 - 5u)
    and hi > sigma(1 + 5u).  Then k(x) < lo proves m(x) < sigma, k(x) >= hi
    proves m(x) > sigma, and only the points with lo <= k(x) < hi are
    decided by the integer test v_j(x) < ceil(sigma r_j N) for every j.  A
    count is two binary searches plus that band; when sigma or a weight
    falls outside the normal double range, the integer test runs over the
    whole group instead.
    """

    def __init__(self, g: GroupSpec, gamma: tuple[int, ...], shape: tuple[Fraction, ...]):
        if g.order > MAX_MEMBERSHIP_ORDER:
            raise SizeLimitError(f"Bohr materialization capped at order {MAX_MEMBERSHIP_ORDER}")
        self.group = g
        self.shape = shape
        n = g.order
        # c_j(x) = sum_i x_i * weights[j, i] mod N
        self.weights = np.array(
            [[(c * (n // f)) % n for c, f in zip(g.unindex(t), g.factors)] for t in gamma],
            dtype=np.int64,
        ).reshape(len(gamma), g.rank)
        self.order: np.ndarray | None = None
        self.sorted_keys: np.ndarray | None = None
        try:
            # int / int rounds correctly, as float(Fraction) does
            w = [r.denominator / (r.numerator * n) for r in shape]
        except OverflowError:
            return
        if not all(_KEY_MIN <= x <= _KEY_MAX for x in w):
            return
        if shape:
            col = np.array(w)[:, None]
            keys = np.concatenate([(self._phases(idx) * col).max(axis=0) for idx in _index_chunks(n)])
        else:
            keys = np.zeros(n, dtype=np.float64)
        self.order = np.argsort(keys).astype(np.int32)
        self.sorted_keys = keys[self.order]

    def _phases(self, idx: np.ndarray) -> np.ndarray:
        """(d, len) int64 table of v_j over an index array."""
        n = self.group.order
        c = (self.weights @ _coords_of(self.group, idx).T) % n
        return np.minimum(c, n - c)

    def _passes(self, idx: np.ndarray, sigma: Fraction) -> np.ndarray:
        """The exact integer membership test, on an index array."""
        n = self.group.order
        a, b = sigma.numerator * n, sigma.denominator
        # ceil(sigma * r_j * N), capped at N since v_j <= N/2
        cuts = [min(-(-a * r.numerator // (b * r.denominator)), n) for r in self.shape]
        return (self._phases(idx) < np.array(cuts, dtype=np.int64)[:, None]).all(axis=0)

    def _split(self, sigma: Fraction) -> tuple[int, np.ndarray]:
        """(k, extra): the members at sigma are the first k indices in key
        order and the indices in extra, which the integer test admitted."""
        if sigma <= 0:
            raise ValueError("dilation factor must be positive")
        try:
            s = float(sigma)
        except OverflowError:
            s = math.inf
        if self.sorted_keys is None or not _KEY_MIN <= s <= _KEY_MAX:
            return 0, np.concatenate([idx[self._passes(idx, sigma)] for idx in _index_chunks(self.group.order)])
        inside = int(self.sorted_keys.searchsorted(s * _BAND_LO))
        edge = int(self.sorted_keys.searchsorted(s * _BAND_HI))
        band = self.order[inside:edge]
        if edge > inside:
            band = band[self._passes(band, sigma)]
        return inside, band

    def count(self, sigma: Fraction) -> int:
        inside, extra = self._split(sigma)
        return inside + len(extra)

    def member_indices(self, sigma: Fraction) -> np.ndarray:
        """Sorted indices of the members at query sigma."""
        inside, extra = self._split(sigma)
        if inside:
            extra = np.concatenate((self.order[:inside], extra))
        return np.sort(extra)


def _index_chunks(n: int):
    for lo in range(0, n, _CHUNK):
        yield np.arange(lo, min(n, lo + _CHUNK), dtype=np.int64)


@lru_cache(maxsize=2)
def _phase_table(g: GroupSpec, gamma: tuple[int, ...], shape: tuple[Fraction, ...]) -> _ExactCounter:
    return _ExactCounter(g, gamma, shape)


def _counter(spec: BohrSpec) -> tuple[_ExactCounter, Fraction]:
    """The shared table for spec's characters and radius shape, and eps_0:
    the rho-dilate of spec is the query sigma = rho * eps_0."""
    if not spec.eps:
        return _phase_table(spec.group, (), ()), _ONE
    e0 = spec.eps[0]
    return _phase_table(spec.group, spec.gamma, (_ONE, *(e / e0 for e in spec.eps[1:]))), e0


def materialize(g: GroupSpec, spec: BohrSpec, check_regular: bool = False) -> BohrSet:
    """Enumerate members exactly; asserts the (N/2) prod eps_j size floor."""
    if spec.group != g:
        raise GroupMismatchError("spec belongs to a different group")
    counter, scale = _counter(spec)
    members = GroupSet(g, tuple(counter.member_indices(scale).tolist()))
    if 0 not in members.index_set:
        raise AssertionError("Bohr set lost the identity element")
    if members.neg().index_set != members.index_set:
        raise AssertionError("Bohr set is not symmetric under negation")
    num = math.prod(e.numerator for e in spec.eps)
    den = math.prod(e.denominator for e in spec.eps)
    require(
        record_ge(
            "Bohr size floor",
            "bohr:size_lower",
            2 * len(members) * den,
            g.order * num,
            note=f"|B| = {len(members)} vs (N/2) prod eps over order {g.order}",
        )
    )
    out = BohrSet(spec, members)
    if check_regular:
        out = replace(out, regular=regularity_test(out))
    return out


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
    """|B(Gamma, rho * eps)| for each dilation factor, off one counting table.

    Equivalent to materializing each dilate and taking its length, but the
    membership statistic is computed once.
    """
    if spec.group != g:
        raise GroupMismatchError("spec belongs to a different group")
    counter, scale = _counter(spec)
    out = []
    for rho in rhos:
        rho = Fraction(rho)
        if rho <= 0:
            raise ValueError("dilation factor must be positive")
        if any(rho * e > 1 for e in spec.eps):
            raise ValueError(f"radius overflow at dilation {rho}")
        out.append(counter.count(rho * scale))
    return out


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


def default_eta_grid(d: int, steps: int = _DEFAULT_GRID_STEPS) -> tuple[Fraction, ...]:
    """Symmetric grid eta = +-i/(1000 d), all satisfying d|eta| <= 1/100."""
    if d == 0:
        return ()
    grid = []
    for i in range(1, steps + 1):
        grid.append(Fraction(i, 1000 * d))
        grid.append(Fraction(-i, 1000 * d))
    return tuple(grid)


def _grid_sizes(counter: _ExactCounter, sigma: Fraction, grid: Sequence[Fraction]) -> list[tuple[Fraction, int]]:
    return [(eta, counter.count(sigma * (1 + eta))) for eta in grid]


def _grid_verdict(
    d: int, base_size: int, sizes: Sequence[tuple[Fraction, int]], grid: Sequence[Fraction]
) -> RegularityVerdict:
    regular = True
    worst: Fraction | None = None
    for eta, size in sizes:
        mag = abs(eta)
        low = (1 - 100 * d * mag) * base_size
        high = (1 + 100 * d * mag) * base_size
        ok = low < size < high
        margin = min(Fraction(size) - low, high - Fraction(size))
        regular = regular and ok
        if worst is None or margin < worst:
            worst = margin
    return RegularityVerdict(
        regular=regular,
        worst_margin=None if worst is None else float(worst),
        grid=tuple(grid),
        sizes=tuple(sizes),
        base_size=base_size,
    )


def regularity_test(b: BohrSet, eta_grid: Sequence[Fraction] | None = None) -> RegularityVerdict:
    """Check (1 - 100 d|eta|)|B| < |B_(1+eta)| < (1 + 100 d|eta|)|B| on a grid."""
    spec = b.spec
    d = spec.d
    if d == 0:
        return RegularityVerdict(True, None, (), (), len(b.members), note="dimension 0 is vacuously regular")
    grid = tuple(eta_grid) if eta_grid is not None else default_eta_grid(d)
    for eta in grid:
        if d * abs(eta) > Fraction(1, 100):
            raise ValueError(f"grid point {eta} violates d|eta| <= 1/100")
    counter, scale = _counter(spec)
    base_size = counter.count(scale)
    if base_size != len(b.members):
        raise AssertionError("materialized member count disagrees with the counting table")
    sizes = _grid_sizes(counter, scale, grid)
    return _grid_verdict(d, base_size, sizes, grid)


def find_regular_radius(
    g: GroupSpec, gamma: Sequence[int], eps, rounds: Sequence[int] = _RADIUS_ROUNDS
) -> BohrSpec:
    """Search rho in (1/2, 1) so that B(Gamma, rho * eps) passes the grid test.

    Geometric sweep of 256 candidate factors, densified by 4x up to twice
    (override the schedule with rounds).  Exhaustion raises with the full
    size-vs-radius trace; that signals a grid too coarse for this instance,
    not a structural impossibility.
    """
    base = make_bohr_spec(g, gamma, eps)
    counter, scale = _counter(base)
    d = base.d
    grid = default_eta_grid(d)
    trace: list[tuple[Fraction, int]] = []
    seen: set[Fraction] = set()
    for points in rounds:
        for i in range(points):
            rho = Fraction(round(2 ** (-(i + 1) / (points + 1)) * _RADIUS_DENOM), _RADIUS_DENOM)
            if not Fraction(1, 2) < rho < 1 or rho in seen:
                continue
            seen.add(rho)
            base_size = counter.count(rho * scale)
            if d == 0:
                return dilate(base, rho)
            sizes = _grid_sizes(counter, rho * scale, grid)
            verdict = _grid_verdict(d, base_size, sizes, grid)
            trace.append((rho, base_size))
            if verdict.regular:
                return dilate(base, rho)
    lines = [f"  rho={r}  size={s}" for r, s in trace[:64]]
    if len(trace) > 64:
        lines.append(f"  ... {len(trace) - 64} more candidates")
    raise RegularRadiusError(
        "no regular radius found in (eps/2, eps) after densification; size-vs-radius trace:\n"
        + "\n".join(lines),
        trace,
    )


def check_size_bounds(b: BohrSet, others: Sequence[BohrSet] = ()) -> list[CheckRecord]:
    """Assert the size floor, the half-radius doubling cap, and the
    intersection entropy bound |/\\ B^(i)| * N^(m-1) >= prod |B^(i)_(1/2)|.
    """
    spec = b.spec
    g = spec.group
    records = []
    num = math.prod(e.numerator for e in spec.eps)
    den = math.prod(e.denominator for e in spec.eps)
    records.append(
        require(
            record_ge(
                "Bohr size floor",
                "bohr:size_lower",
                2 * len(b.members) * den,
                g.order * num,
                note=f"d={spec.d}",
            )
        )
    )
    counter, scale = _counter(spec)
    half = counter.count(scale / 2)
    records.append(
        require(
            record_le(
                "half-radius doubling cap",
                "bohr:size_halving",
                len(b.members),
                8 ** (spec.d + 1) * half,
                note=f"|B|={len(b.members)}, |B_1/2|={half}",
            )
        )
    )
    sets = [b, *others]
    wedge_spec = sets[0].spec
    for other in sets[1:]:
        wedge_spec = intersect(wedge_spec, other.spec)
    wedge = materialize(g, wedge_spec)
    halves = []
    for s in sets:
        c, c_scale = _counter(s.spec)
        halves.append(c.count(c_scale / 2))
    records.append(
        require(
            record_ge(
                "intersection entropy floor",
                "bohr:size_intersection",
                len(wedge.members) * g.order ** (len(sets) - 1),
                math.prod(halves),
                note=f"m={len(sets)} sets, wedge size {len(wedge.members)}",
            )
        )
    )
    return records
