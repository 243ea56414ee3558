"""Large spectra, dissociated sets, Span, and additive dimension.

Spec_eps(f) = {t : |f_hat(t)| >= eps * ||f||_1}, decided against the
transform's proven error E (harmonic.transform_error): a frequency is kept
when its computed magnitude reaches eps ||f||_1 - E and flagged borderline
below eps ||f||_1 + E, so no member is dropped (over-inclusion is sound for
the extraction pipelines).  On 2-groups with integer tables E = 0 and the
test is an exact integer comparison.

Span(Lambda) is the set of {0, +1, -1} sums of Lambda, kept as a boolean
mask over the group and grown one member at a time (S | S + mu | S - mu).
Lambda with mu adjoined is dissociated iff Lambda is and mu lies outside
Span(Lambda), so the same mask pass decides dissociativity: the test, the
greedy witness and the branch and bound all grow spans.  A dissociated set
has distinct {0, 1}-sums, so it has at most log2(N) <= 24 members, and the
test and the greedy witness each make at most log2(N) passes of size N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import f2
from .groups import GroupSpec, add_index_many, sub_index_many
from .harmonic import FunctionTable, dft, magnitudes, transform_error
from .setstat import GroupSet, read_only

_EXACT_SEARCH_MAX = 24
CHANG_AUDIT_CONSTANT = Fraction(8)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Frequencies t with |f_hat(t)| >= eps * ||f||_1, heaviest first."""

    group: GroupSpec
    eps: Fraction
    members: np.ndarray  # read-only int64
    magnitudes: tuple[float, ...]
    borderline: np.ndarray  # read-only int64
    exact: bool

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class DissociatedWitness:
    group: GroupSpec
    members: np.ndarray  # read-only int64, in the order picked
    mode: str  # "exact" | "greedy"
    certified_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", read_only(np.array(self.members, dtype=np.int64)))

    def __len__(self) -> int:
        return len(self.members)


def spectrum(f: FunctionTable, eps: Fraction | int, *, fhat: FunctionTable | None = None) -> Spectrum:
    """Members and |f_hat| magnitudes of the eps-spectrum, heaviest first.

    A caller that already holds dft(f) passes it as fhat.
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
    err = Fraction(transform_error(f))
    picked = np.flatnonzero(_at_least(mags, thr - err))
    border = picked[~_at_least(mags[picked], thr + err)]
    # heaviest first, ties by index: picked ascends and the sort is stable
    picked = picked[np.argsort(-mags[picked], kind="stable")]
    return Spectrum(
        group=g,
        eps=eps,
        members=read_only(picked),
        magnitudes=tuple(mags[picked].astype(np.float64).tolist()),
        borderline=read_only(border),
        exact=fhat.kind == "int",
    )


def _at_least(values: np.ndarray, cut: Fraction) -> np.ndarray:
    """values >= cut exactly: ceil(cut) for integers, the next double up for doubles."""
    if values.dtype == np.float64:
        c = float(cut)
        return values >= (c if c >= cut else math.nextafter(c, math.inf))
    return values >= math.ceil(cut)


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


def is_dissociated(g: GroupSpec, lam: list[int] | tuple[int, ...]) -> bool:
    """True iff no nontrivial {0, +1, -1} combination of lam vanishes, that
    is, iff each member lies outside the span of the members before it.

    One span mask grows member by member and the test stops at the first
    member already in it (0 and repeats included).  A dissociated set has
    distinct {0, 1}-sums, hence at most log2(N) members, so at most
    log2(N) mask passes of size N are made.
    """
    mask = _zero_mask(g)
    for e in lam:
        if mask[e]:
            return False
        _grow(g, mask, e)
    return True


def max_dissociated(
    g: GroupSpec,
    candidates: np.ndarray | list[int],
) -> DissociatedWitness:
    """Largest dissociated subset of the candidates.

    Adjoining mu keeps a set dissociated iff mu lies outside its span, and
    a dissociated set has at most log2(N) members.  Exact on 2-groups
    (rank by elimination) and on candidate lists of at most 24 characters
    (branch and bound over the span-growth tree).  Larger general inputs
    fall back to greedy span growth in the order given (callers pass
    spectra heaviest first), recorded in the witness mode: one mask pass
    of size N per pick, so at most log2(N).
    """
    if g.is_boolean_space:
        picked = f2.independent_subset(candidates)  # 0 and repeats lie in the span
        return DissociatedWitness(g, picked, "exact", len(picked))
    cands = [c for c in dict.fromkeys(np.asarray(candidates).tolist()) if c != 0]  # searched in Python ints
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
        return DissociatedWitness(g, best, "exact", len(best))
    picked = []
    span_mask = _zero_mask(g)
    for c in cands:
        if not span_mask[c]:
            picked.append(c)
            _grow(g, span_mask, c)
    return DissociatedWitness(g, picked, "greedy", len(picked))


def span(g: GroupSpec, lam: list[int] | tuple[int, ...]) -> GroupSet:
    """All sums over lam with coefficients in {0, +1, -1}, as a set (on
    2-groups, the linear span).  One mask pass of size N per distinct
    member: the output is at most N elements, the work N |lam|."""
    mask = _zero_mask(g)
    for e in dict.fromkeys(lam):
        _grow(g, mask, e)
    return GroupSet(g, np.flatnonzero(mask))


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
    members in spectrum order, passes them in instead of recomputing; a
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
        witness.group != f.group or not np.isin(witness.members, spec.members).all()
    ):
        raise ValueError("witness passed to chang_bound is not drawn from its spectrum")
    g = f.group
    l1 = float(f.l1())
    l2sq = float(f.l2_squared())
    ratio = l2sq * g.order / (l1 * l1)
    bound = float(c_chang) * float(eps) ** -2 * math.log(max(ratio, 1.0))
    if witness is None:
        witness = max_dissociated(g, spec.members)  # heaviest first already
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
