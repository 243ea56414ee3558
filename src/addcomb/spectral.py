"""Large spectra, dissociated sets, Span, and additive dimension.

Spec_eps(f) = {t : |f_hat(t)| >= eps * ||f||_1}, decided against the
transform's proven error E (harmonic.transform_error): a frequency is kept
when its computed magnitude reaches eps ||f||_1 - E, so no member is
dropped (over-inclusion is sound for the extraction pipelines).  On
2-groups with integer tables E = 0 and the test is an exact integer
comparison.

Span(Lambda) is the set of {0, +1, -1} sums of Lambda, kept as a boolean
mask over the group and grown one member at a time: S | (S + mu) | (S - mu).
Viewed with the group's axes, S + mu is S rolled by mu's coordinates, so a
span pass is two rolls of the mask (slice copies along the axes mu moves
on).  On 2-groups the span is linear: its 2^k members are kept as a list,
and adjoining mu adds their XOR with mu.  Lambda with mu adjoined is
dissociated iff Lambda is and mu lies outside Span(Lambda), so
max_dissociated picks a maximal dissociated subset, heaviest first,
growing the span as it picks, and its witness keeps the span it grew.  On
2-groups that subset is a maximum one.  Distinct nonzero Lambda is
dissociated iff its witness (in the order given) keeps all of it.  A
dissociated set has distinct {0, 1}-sums, so at most log2(N) <= 24
members: the greedy makes at most log2(N) passes.

A spectrum is not sorted.  It keeps a dense weight table, |f_hat(t)| on
Spec_eps(f) and -1 off it, and the greedy witness reads it directly: per
pick, one argmax takes the heaviest candidate left (the first maximum, so
ties go to the smaller index), and once the span has grown, one masked
store sets the weight of everything in it to -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .groups import GroupSpec
from .harmonic import FunctionTable, dft, magnitudes, transform_error
from .setstat import GroupSet, read_only

CHANG_AUDIT_CONSTANT = Fraction(8)  # Chang (2002), "A polynomial bound in Freiman's theorem"


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Spec_eps(f): the frequencies t with |f_hat(t)| >= eps * ||f||_1.

    members ascend; weights is the dense table over the group that
    max_dissociated reads, |f_hat(t)| on the spectrum and -1 off it.
    """

    group: GroupSpec
    eps: Fraction
    members: np.ndarray  # read-only int64, ascending
    weights: np.ndarray = field(repr=False)  # read-only, one entry per group element

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class DissociatedWitness:
    """A dissociated set picked by max_dissociated, with the span mask its
    search grew: span_mask[t] is True iff t lies in Span(members)."""

    group: GroupSpec
    members: np.ndarray  # read-only int64, in the order picked
    span_mask: np.ndarray = field(repr=False)  # read-only bool, one entry per group element

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", read_only(np.array(self.members, dtype=np.int64)))
        read_only(self.span_mask)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def mode(self) -> str:
        """"exact" on 2-groups, where the greedy pick is a maximum, else "greedy"."""
        return "exact" if self.group.is_boolean_space else "greedy"

    @cached_property
    def span(self) -> GroupSet:
        """Span(members), read off the mask the search grew."""
        return GroupSet(self.group, np.flatnonzero(self.span_mask))


def spectrum(f: FunctionTable, eps: Fraction | int, *, fhat: FunctionTable | None = None,
             err: float | None = None) -> Spectrum:
    """Spec_eps(f), with its weight table for max_dissociated.

    A caller that already holds dft(f) passes it as fhat, and one that
    holds transform_error(f) passes it as err.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"spectrum threshold must be in (0, 1], got {eps}")
    g = f.group
    if not np.any(f.values):
        raise ValueError("spectrum of the zero function is undefined")
    if fhat is None:
        fhat = dft(f)
    elif fhat.group != g:
        raise ValueError("transform passed to spectrum lives on another group")
    mags = magnitudes(fhat.values)
    thr = eps * Fraction(f.l1())
    err = Fraction(transform_error(f) if err is None else err)
    keep = _at_least(mags, thr - err)
    mags[~keep] = -1
    return Spectrum(group=g, eps=eps, members=read_only(np.flatnonzero(keep)), weights=read_only(mags))


def _at_least(values: np.ndarray, cut: Fraction) -> np.ndarray:
    """values >= cut exactly: ceil(cut) for integers, the next double up for doubles."""
    if values.dtype == np.float64:
        c = float(cut)
        return values >= (c if c >= cut else math.nextafter(c, math.inf))
    return values >= math.ceil(cut)


def _grow(g: GroupSpec, mask: np.ndarray, elem: int) -> np.ndarray:
    """Span mask grown in place by one element: S | (S + elem) | (S - elem).

    S + elem is S rolled by elem's coordinates, one axis at a time through
    a scratch mask: axis j viewed as (outer, n_j, inner), a roll is two
    slice copies, and the last axis rolls straight into the OR.  Axes on
    which elem's coordinate is 0 are not touched.  (2-group spans grow from
    their member list in max_dissociated instead.)
    """
    axes = []  # (view shape, shift) of each axis elem moves along
    inner = 1
    for n, c in zip(g.factors, g.unindex(int(elem))):
        if c:
            axes.append(((g.order // (n * inner), n, inner), c))
        inner *= n
    if not axes:
        return mask
    src = mask.copy()
    for shifts in (axes, [(shape, shape[1] - c) for shape, c in axes]):  # +elem, then -elem
        cur = src
        for shape, c in shifts[:-1]:
            nxt = np.empty_like(src)
            _roll(cur.reshape(shape), nxt.reshape(shape), c, into=False)
            cur = nxt
        shape, c = shifts[-1]
        _roll(cur.reshape(shape), mask.reshape(shape), c, into=True)
    return mask


def _roll(src: np.ndarray, dst: np.ndarray, c: int, *, into: bool) -> None:
    """dst = src rolled by c along axis 1, or dst |= that with into."""
    n = src.shape[1]
    for d, s in ((dst[:, c:], src[:, :n - c]), (dst[:, :c], src[:, n - c:])):
        if into:
            np.logical_or(d, s, out=d)
        else:
            np.copyto(d, s)


def max_dissociated(
    g: GroupSpec,
    candidates: np.ndarray | list[int] | None = None,
    *,
    weights: np.ndarray | None = None,
) -> DissociatedWitness:
    """A maximal dissociated subset of the candidates, heaviest first.

    The candidates come as a weight table over the group (weights, as
    Spectrum.weights: candidates weigh >= 0, the rest -1) or as a sequence
    in the order given, which one scatter turns into a table of
    priorities.  Adjoining mu keeps a set dissociated iff mu lies outside
    its span, and a dissociated set has at most log2(N) members.  Per
    pick, one argmax takes the heaviest candidate left, ties to the
    smaller index; it stops when the maximum is negative; one mask pass
    of size N grows the span, and one masked store sets the weights in
    the span to -1 (0 and repeats lie in it), so at most log2(N) of each.
    Every candidate ends in the span, so the subset is maximal.  On
    2-groups the span is linear and dissociated sets are the independent
    ones, a matroid, so this greedy pick is a maximum (witness mode
    "exact"); there a pick adds the coset of its 2^k span members XOR t,
    and both stores touch that coset only.  The witness keeps the span
    mask its search grew.
    """
    if weights is None:
        cands = np.asarray(candidates, dtype=np.int64)
        weights = np.full(g.order, -1, dtype=np.int64)
        weights[cands[::-1]] = np.arange(1, len(cands) + 1)  # the first place of a repeat is written last
    left = np.array(weights)
    if left.shape != (g.order,):
        raise ValueError(f"weight table has shape {left.shape} for a group of order {g.order}")
    left[0] = -1  # 0 lies in every span
    picked = []
    span_mask = np.zeros(g.order, dtype=bool)
    span_mask[0] = True
    elems = np.zeros(g.order if g.is_boolean_space else 0, dtype=np.int64)  # a 2-group span's members lead
    while True:
        t = int(np.argmax(left))
        if left[t] < 0:
            break
        if g.is_boolean_space:
            k = 1 << len(picked)
            new = np.bitwise_xor(elems[:k], t, out=elems[k : 2 * k])
            span_mask[new] = True
            left[new] = -1
        else:
            left[_grow(g, span_mask, t)] = -1
        picked.append(t)
    return DissociatedWitness(g, picked, span_mask)


@dataclass(frozen=True)
class ChangReport:
    """The C/eps^2 log bound of a spectrum, and whether its witness fits it.

    ok says the max_dissociated witness (the additive dimension of the
    spectrum on 2-groups, a lower bound on it elsewhere) is at most the
    bound; the spectrum, eps and the witness are the caller's own.
    """

    c_chang: Fraction
    bound: float
    ok: bool


def chang_bound(f: FunctionTable, spec: Spectrum, witness: DissociatedWitness) -> ChangReport:
    """Evaluate c * eps^-2 * log(||f||_2^2 N / ||f||_1^2) against dim(Spec_eps(f)),
    with c = CHANG_AUDIT_CONSTANT.

    spec is Spec_eps(f), eps = spec.eps, and witness the max_dissociated
    witness of its weight table; the witness must be drawn from the
    spectrum.  dim is the witness size: the additive dimension on 2-groups,
    a lower bound on it elsewhere.
    """
    g = f.group
    if spec.group != g:
        raise ValueError("spectrum passed to chang_bound is not Spec_eps(f)")
    if witness.group != g or (spec.weights[witness.members] < 0).any():
        raise ValueError("witness passed to chang_bound is not drawn from its spectrum")
    eps = spec.eps
    l1 = float(f.l1())
    l2sq = float(f.l2_squared())
    ratio = l2sq * g.order / (l1 * l1)
    log_ratio = math.log(max(ratio, 1.0))
    try:
        bound = float(CHANG_AUDIT_CONSTANT) * float(eps) ** -2 * log_ratio if log_ratio else 0.0
    except (OverflowError, ZeroDivisionError):  # eps^-2 past the double range: no bound
        bound = math.inf
    return ChangReport(c_chang=CHANG_AUDIT_CONSTANT, bound=bound, ok=len(witness) <= max(1.0, bound))
