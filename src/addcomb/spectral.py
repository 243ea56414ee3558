"""Large spectra, dissociated sets, Span, and additive dimension.

Spec_eps(f) = {t : |f_hat(t)| >= eps * ||f||_1}.  On 2-groups with integer
tables the membership test is an exact integer comparison; everywhere else a
small downward guard band keeps borderline frequencies in (over-inclusion is
sound for the extraction pipelines) and flags them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import f2
from .groups import GroupSpec, SizeLimitError, add_index_many, sub_index_many
from .harmonic import FunctionTable, dft, wht_int
from .setstat import GroupSet, group_set

_FLOAT_GUARD = 1e-9
_EXHAUSTIVE_MAX = 12
_MEET_MIDDLE_MAX = 20
_EXACT_SEARCH_MAX = 24
_SPAN_CAP = 1 << 20
_GREEDY_SPAN_CAP = 1 << 22
CHANG_AUDIT_CONSTANT = Fraction(8)


@dataclass(frozen=True)
class Spectrum:
    """Frequencies t with |f_hat(t)| >= eps * ||f||_1, heaviest first."""

    group: GroupSpec
    eps: Fraction
    members: tuple[int, ...]
    magnitudes: tuple[float, ...]
    borderline: tuple[int, ...]
    exact: bool
    source: str

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, t: int) -> bool:
        return t in set(self.members)

    def magnitude(self, t: int) -> float:
        return self.magnitudes[self.members.index(t)]


@dataclass(frozen=True)
class DissociatedWitness:
    group: GroupSpec
    members: tuple[int, ...]
    mode: str  # "exact" | "greedy"
    certified_size: int

    def __len__(self) -> int:
        return len(self.members)


def spectrum(f: FunctionTable, eps: Fraction | int) -> Spectrum:
    """Members and |f_hat| magnitudes of the eps-spectrum, heaviest first."""
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"spectrum threshold must be in (0, 1], got {eps}")
    g = f.group
    if all(v == 0 for v in f.values):
        raise ValueError("spectrum of the zero function is undefined")
    if g.is_boolean_space and f.kind == "int":
        what = wht_int(g, f.values)
        l1 = sum(abs(v) for v in f.values)
        picked = [(abs(w), t) for t, w in enumerate(what) if abs(w) * eps.denominator >= eps.numerator * l1]
        picked.sort(key=lambda mt: (-mt[0], mt[1]))
        return Spectrum(
            group=g,
            eps=eps,
            members=tuple(t for _, t in picked),
            magnitudes=tuple(float(m) for m, _ in picked),
            borderline=(),
            exact=True,
            source=f"{f.kind} table, support {len(f.support())}",
        )
    fhat = dft(f)
    l1 = float(sum(abs(v) for v in f.values))
    thr = float(eps) * l1
    guard = _FLOAT_GUARD * max(1.0, thr)
    picked_f = []
    border = []
    for t in range(g.order):
        mag = abs(fhat.values[t])
        if mag >= thr - guard:
            picked_f.append((mag, t))
            if abs(mag - thr) <= guard:
                border.append(t)
    picked_f.sort(key=lambda mt: (-mt[0], mt[1]))
    return Spectrum(
        group=g,
        eps=eps,
        members=tuple(t for _, t in picked_f),
        magnitudes=tuple(m for m, _ in picked_f),
        borderline=tuple(border),
        exact=False,
        source=f"{f.kind} table, support {len(f.support())}",
    )


def _signed_sum(g: GroupSpec, elems: tuple[int, ...], signs: tuple[int, ...]) -> int:
    acc = 0
    for e, s in zip(elems, signs):
        if s == 1:
            acc = g.add_index(acc, e)
        elif s == -1:
            acc = g.sub_index(acc, e)
    return acc


def is_dissociated(g: GroupSpec, lam: list[int] | tuple[int, ...]) -> bool:
    """True iff no nontrivial {0, +1, -1} combination of lam vanishes."""
    elems = tuple(lam)
    if len(set(elems)) != len(elems):
        return False  # x - x = 0 is a nontrivial relation
    if 0 in elems:
        return False
    if g.is_boolean_space:
        # signs collapse mod 2, so dissociated = linearly independent
        return f2.rank(elems) == len(elems)
    if len(elems) <= _EXHAUSTIVE_MAX:
        for signs in product((-1, 0, 1), repeat=len(elems)):
            if any(signs) and _signed_sum(g, elems, signs) == 0:
                return False
        return True
    if len(elems) <= _MEET_MIDDLE_MAX:
        return _dissociated_meet_middle(g, elems)
    raise SizeLimitError(f"dissociativity check capped at {_MEET_MIDDLE_MAX} characters, got {len(elems)}")


def _dissociated_meet_middle(g: GroupSpec, elems: tuple[int, ...]) -> bool:
    half = len(elems) // 2
    left, right = elems[:half], elems[half:]
    # sum value -> reachable by some nonzero sign assignment of the left half
    nonzero_left: dict[int, bool] = {0: False}
    for signs in product((-1, 0, 1), repeat=len(left)):
        s = _signed_sum(g, left, signs)
        if any(signs):
            nonzero_left[s] = True
        else:
            nonzero_left.setdefault(s, False)
    for signs in product((-1, 0, 1), repeat=len(right)):
        s = _signed_sum(g, right, signs)
        target = g.neg_index(s)
        if any(signs):
            if target in nonzero_left:
                return False
        elif nonzero_left.get(target, False):
            return False
    return True


def _grow(g: GroupSpec, mask: np.ndarray, elem: int) -> np.ndarray:
    """Span mask grown in place by one element: S | (S + elem) | (S - elem)."""
    idx = np.flatnonzero(mask)
    mask[add_index_many(g, idx, elem)] = True
    mask[sub_index_many(g, idx, elem)] = True
    return mask


def _zero_mask(g: GroupSpec) -> np.ndarray:
    mask = np.zeros(g.order, dtype=bool)
    mask[0] = True
    return mask


def max_dissociated(
    g: GroupSpec,
    candidates: list[int] | tuple[int, ...],
    weights: dict[int, float] | None = None,
) -> DissociatedWitness:
    """Largest dissociated subset of the candidates.

    Exact on 2-groups (rank by elimination) and on candidate lists of at
    most 24 characters (branch and bound over the span-growth tree, using
    that adjoining mu keeps dissociativity iff mu is outside the current
    span).  Larger general inputs fall back to greedy in decreasing weight
    order, recorded in the witness mode.
    """
    seen: set[int] = set()
    cands = []
    for c in candidates:
        if c != 0 and c not in seen:
            seen.add(c)
            cands.append(c)
    if weights is not None:
        cands.sort(key=lambda c: (-weights.get(c, 0.0), c))
    if g.is_boolean_space:
        picked = f2.independent_subset(cands)
        return DissociatedWitness(g, tuple(picked), "exact", len(picked))
    if len(cands) <= _EXACT_SEARCH_MAX:
        best: list[int] = []

        def descend(i: int, chosen: list[int], span_mask: np.ndarray) -> None:
            nonlocal best
            if len(chosen) > len(best):
                best = list(chosen)
            if len(chosen) + (len(cands) - i) <= len(best):
                return
            for j in range(i, len(cands)):
                c = cands[j]
                if not span_mask[c]:
                    chosen.append(c)
                    descend(j + 1, chosen, _grow(g, span_mask.copy(), c))
                    chosen.pop()
                    if len(chosen) + (len(cands) - j - 1) <= len(best):
                        return

        descend(0, [], _zero_mask(g))
        return DissociatedWitness(g, tuple(best), "exact", len(best))
    picked = []
    span_mask = _zero_mask(g)
    for c in cands:
        if not span_mask[c]:
            picked.append(c)
            _grow(g, span_mask, c)
            if np.count_nonzero(span_mask) > _GREEDY_SPAN_CAP:
                raise SizeLimitError("span tracking exceeded the greedy cap")
    return DissociatedWitness(g, tuple(picked), "greedy", len(picked))


def span(g: GroupSpec, lam: list[int] | tuple[int, ...]) -> GroupSet:
    """All sums over lam with coefficients in {0, +1, -1}, as a set."""
    elems = tuple(dict.fromkeys(lam))
    if g.is_boolean_space:
        basis = f2.echelon_basis(elems)
        return group_set(g, f2.subspace_elements(basis))
    if 3 ** len(elems) > _SPAN_CAP:
        raise SizeLimitError(f"span of {len(elems)} characters exceeds the enumeration cap")
    mask = _zero_mask(g)
    for e in elems:
        _grow(g, mask, e)
    return GroupSet(g, tuple(np.flatnonzero(mask).tolist()))


@dataclass(frozen=True)
class ChangReport:
    """Additive dimension of a spectrum next to the C/eps^2 log bound."""

    eps: Fraction
    c_chang: Fraction
    bound: float
    spectrum_size: int
    dim: int
    witness_mode: str
    ok: bool | None  # None = diagnostic only (constant below the audit floor)


def chang_bound(
    f: FunctionTable,
    eps: Fraction | int,
    c_chang: Fraction = CHANG_AUDIT_CONSTANT,
    *,
    spec: Spectrum | None = None,
    witness: DissociatedWitness | None = None,
) -> ChangReport:
    """Evaluate c * eps^-2 * log(||f||_2^2 N / ||f||_1^2) against dim(Spec_eps(f)).

    The comparison is asserted only when c_chang is at least the audit
    constant; below that it is reported as a plain diagnostic.  A caller
    that already holds Spec_eps(f), and the max_dissociated witness of its
    members weighted by magnitude, passes them in instead of recomputing; a
    witness is accepted only together with the spectrum it was drawn from.
    """
    eps = Fraction(eps)
    if spec is None:
        if witness is not None:
            raise ValueError("a witness passed to chang_bound needs its spectrum")
        spec = spectrum(f, eps)
    elif spec.eps != eps or spec.group != f.group:
        raise ValueError("spectrum passed to chang_bound is not Spec_eps(f)")
    if witness is not None and (
        witness.group != f.group or not set(witness.members) <= set(spec.members)
    ):
        raise ValueError("witness passed to chang_bound is not drawn from its spectrum")
    g = f.group
    l1 = float(sum(abs(v) for v in f.values))
    l2sq = float(f.l2_squared())
    ratio = l2sq * g.order / (l1 * l1)
    bound = float(c_chang) * float(eps) ** -2 * math.log(max(ratio, 1.0))
    if witness is None:
        weights = dict(zip(spec.members, spec.magnitudes))
        witness = max_dissociated(g, list(spec.members), weights)
    ok: bool | None = None
    if c_chang >= CHANG_AUDIT_CONSTANT:
        ok = witness.certified_size <= max(1.0, bound)
    return ChangReport(
        eps=eps,
        c_chang=Fraction(c_chang),
        bound=bound,
        spectrum_size=len(spec),
        dim=witness.certified_size,
        witness_mode=witness.mode,
        ok=ok,
    )
