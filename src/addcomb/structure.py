"""Energy-jump structure extraction and its corollary drivers.

The central pipeline: detect the first higher-energy jump of B, form
phi(x) = |B_x|^k at the jump exponent, read off the large spectrum of phi,
take a maximal dissociated set Lambda inside it, and intersect B with a
translate of the annihilator of Lambda (a subspace on 2-groups, a regular
Bohr set in general).  Every density guarantee the theory promises is
re-verified by direct counting before a result is returned; a failed
certificate is raised as a theory-violation witness, never papered over.

Drivers built on the pipeline: the 2-eps dichotomy (large Fourier
coefficient or a structured piece inside A-A), the M-dichotomy with its
coset decomposition, a desk-scale exhaustive stand-in for the 3B'-subspace
step, and the density regularization loop.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import f2
from .bohr import BohrSet, dilate, find_regular_radius, make_bohr_spec, materialize, size_profile
from .groups import MAX_TRANSFORM_ORDER, GroupSpec, SizeLimitError, boolean_group
from .harmonic import FunctionTable, dft, table_from_values, wht_int
from .report import CheckFailure, CheckRecord, record_eq, record_ge, record_le, require
from .setstat import (
    GroupSet,
    corr_counts,
    difference_set,
    group_set,
    higher_energy,
    peak_coefficient,
    sumset,
)
from .spectral import chang_bound, max_dissociated, span, spectrum

_PI_UPPER = Fraction(355, 113)  # exceeds pi, so it is safe in upper bounds
# Relative slack for comparisons against float transform values.  It always
# points toward the structured branch, whose conclusion is re-verified by
# exact counting, so noise can only cost sharpness, never soundness.
_FLOAT_SLACK = 1e-9
_ESCALATION_TRIES = 3
_BRUTE_N_MAX = 14
_REGULARIZE_N_MAX = 16
_SUBSPACES_PER_LEVEL_CAP = 1 << 21


class NoJump(RuntimeError):
    """No energy jump up to k0; with valid hypotheses this flags a bug."""

    def __init__(self, message: str, energies: list[int], k0: int, m_star: Fraction):
        super().__init__(message)
        self.energies = energies
        self.k0 = k0
        self.m_star = m_star


class DensityGuaranteeFailed(RuntimeError):
    """A certified density bound failed the direct count."""

    def __init__(self, message: str, trace: dict):
        super().__init__(message)
        self.trace = trace


class InclusionFailed(RuntimeError):
    """A claimed subset relation has explicit counterexamples."""

    def __init__(self, message: str, missing: list[int]):
        super().__init__(message)
        self.missing = missing


class HypothesisFailure(ValueError):
    """An input fails the gating hypotheses of the requested driver."""

    def __init__(self, record: CheckRecord):
        super().__init__(f"hypothesis not met: {record.name}: lhs={record.lhs} rhs={record.rhs}")
        self.record = record


@dataclass(frozen=True)
class StructureParams:
    """Knobs of the extraction pipeline.

    m and m_prime cap the peak coefficient and the additive energy, kappa
    caps the sumset, zeta is the spectral slack, t > 1 the jump tension,
    omega the size ratio |B|/|A|.  c_local scales the Bohr radius choice,
    k0_pad the jump-search depth, c_chang the dimension diagnostic.
    """

    m: Fraction
    m_prime: Fraction
    kappa: Fraction
    zeta: Fraction
    t: Fraction
    omega: Fraction = Fraction(1)
    c_local: Fraction = Fraction(1, 32)
    k0_pad: int = 10
    c_chang: Fraction = Fraction(8)

    def __post_init__(self) -> None:
        for name in ("m", "m_prime", "kappa", "zeta", "t", "omega", "c_local", "c_chang"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.m <= 0 or self.m_prime <= 0 or self.kappa <= 0 or self.omega <= 0:
            raise ValueError("m, m_prime, kappa, omega must be positive")
        if not 0 < self.zeta < 1:
            raise ValueError(f"zeta must lie in (0, 1), got {self.zeta}")
        if self.t <= 1:
            raise ValueError(f"t must exceed 1, got {self.t}")
        if self.c_local <= 0:
            raise ValueError("c_local must be positive")
        if self.k0_pad < 1:
            raise ValueError("k0_pad must be at least 1")

    @property
    def m_star(self) -> Fraction:
        return (self.m + self.kappa) * self.t / self.omega

    @property
    def k0(self) -> int:
        # ceil(pad * log_t(y)) + pad computed exactly: the least integer
        # exponent with t^exp >= y^pad
        y = self.m_prime * (self.m + self.kappa) / self.omega
        if y <= 1:
            return self.k0_pad
        target = y**self.k0_pad
        acc = Fraction(1)
        exp = 0
        while acc < target:
            acc *= self.t
            exp += 1
        return exp + self.k0_pad


@dataclass(frozen=True)
class EnergyJump:
    k: int
    e_k: int
    e_next: int
    m_star: Fraction
    k0: int


@dataclass(frozen=True)
class LargeCoefficient:
    x: int
    value: Fraction | float  # squared transform value at x


@dataclass(frozen=True)
class SubspacePiece:
    subspace: GroupSet
    z: int
    density: Fraction
    codim: int


@dataclass(frozen=True)
class BohrPiece:
    bohr: BohrSet
    z: int
    density: Fraction
    dim: int
    size_ratio: Fraction


@dataclass
class StructureResult:
    variant: LargeCoefficient | SubspacePiece | BohrPiece
    achieved: Fraction
    guaranteed: Fraction
    records: list[CheckRecord] = field(default_factory=list)
    jump: EnergyJump | None = None
    witness_mode: str = ""
    diagnostics: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return type(self.variant).__name__


@dataclass
class HypothesisReport:
    group: GroupSpec
    a: int
    b: int
    order: int
    delta: Fraction
    omega: Fraction
    k: Fraction
    k_prime: Fraction
    records: list[CheckRecord]
    core_ok: bool  # the three capacity conditions plus the omega binding
    ok: bool  # everything, including the advisory parameter windows


def _argmax(values) -> tuple[int, int]:
    """(value, smallest index attaining it)."""
    best, arg = None, 0
    for i, v in enumerate(values):
        if best is None or v > best:
            best, arg = v, i
    return best, arg


def check_hypotheses(A: GroupSet, B: GroupSet, params: StructureParams) -> HypothesisReport:
    """Evaluate every pipeline hypothesis exactly; reporting only.

    Core conditions (capacity of peak, energy, sumset, and the omega
    binding) gate the extraction guarantees; the m/m_prime/t windows are
    recorded as advisory context.
    """
    if A.group != B.group:
        raise ValueError("A and B must live on the same group")
    g = A.group
    a, b, order = len(A), len(B), g.order
    if a == 0 or b == 0:
        raise ValueError("hypothesis check needs nonempty sets")
    s = len(sumset(A, B))
    k = Fraction(s, a)
    k_prime = Fraction(len(difference_set(A, A)), a)
    delta = Fraction(a, order)
    omega = Fraction(b, a)
    peak_sq, peak_arg = peak_coefficient(A)
    records = []
    records.append(
        record_eq("size ratio binding", "structure:omega", params.omega, omega, note="omega vs |B|/|A|")
    )
    if isinstance(peak_sq, int):
        peak_rec = record_le(
            "peak capacity",
            "structure:peak_cap",
            Fraction(peak_sq) * k,
            params.m * a * a,
            note=f"peak at x={peak_arg}",
        )
    else:
        peak_rec = record_le(
            "peak capacity",
            "structure:peak_cap",
            peak_sq * float(k),
            float(params.m * a * a) * (1 + _FLOAT_SLACK),
            note=f"peak at x={peak_arg} (float transform, relative slack {_FLOAT_SLACK})",
        )
    records.append(peak_rec)
    eb = higher_energy(B, 2)
    records.append(
        record_le(
            "energy capacity",
            "structure:energy_cap",
            Fraction(eb) * k_prime,
            params.m_prime * b**3,
            note=f"E(B)={eb}",
        )
    )
    records.append(
        record_le("sumset capacity", "structure:sumset_cap", Fraction(s * s), params.kappa * a * order)
    )
    core_ok = all(r.ok for r in records)
    records.append(record_le("peak window", "structure:m_window", params.m, k, note="m vs |A+B|/|A|"))
    records.append(
        record_le("energy window", "structure:m_prime_window", params.m_prime, k_prime, note="m' vs |A-A|/|A|")
    )
    records.append(
        record_le(
            "tension window",
            "structure:t_window",
            params.t,
            params.m_prime * (params.m + params.kappa) / params.omega,
            note="t vs m'(m+kappa)/omega",
        )
    )
    return HypothesisReport(
        group=g,
        a=a,
        b=b,
        order=order,
        delta=delta,
        omega=omega,
        k=k,
        k_prime=k_prime,
        records=records,
        core_ok=core_ok,
        ok=core_ok and all(r.ok for r in records),
    )


def find_energy_jump(B: GroupSet, params: StructureParams) -> EnergyJump:
    """Smallest k in [2, k0] with E_{k+1}(B) >= |B| E_k(B) / m_star, exactly."""
    if not B.members:
        raise ValueError("energy jump needs a nonempty set")
    b = len(B)
    m_star = params.m_star
    k0 = params.k0
    hist = Counter(v for v in corr_counts(B, B) if v)
    powers = {v: v * v for v in hist}  # v^k, currently k = 2
    e_k = sum(hist[v] * p for v, p in powers.items())
    energies = [b * b, e_k]
    for k in range(2, k0 + 1):
        for v in powers:
            powers[v] *= v
        e_next = sum(hist[v] * p for v, p in powers.items())
        energies.append(e_next)
        if e_next * m_star.numerator >= b * e_k * m_star.denominator:
            return EnergyJump(k=k, e_k=e_k, e_next=e_next, m_star=m_star, k0=k0)
        e_k = e_next
    raise NoJump(
        f"no energy jump in [2, {k0}] at m_star={m_star}; E_k table: {energies[:12]}...",
        energies,
        k0,
        m_star,
    )


def phi_k(B: GroupSet, k: int) -> FunctionTable:
    """The table x -> |B intersect (B+x)|^k; its mass equals E_k(B)."""
    if k < 2:
        raise ValueError("need k >= 2")
    counts = corr_counts(B, B)
    values = [c**k for c in counts]
    table = table_from_values(B.group, values, kind="int")
    require(
        record_eq("phi mass", "structure:phi_mass", sum(values), higher_energy(B, k), note=f"k={k}")
    )
    _check_phi_transform_sign(table)
    return table


def _check_phi_transform_sign(phi: FunctionTable) -> None:
    g = phi.group
    if g.is_boolean_space:
        what = wht_int(g, phi.values)
        bad = [t for t, w in enumerate(what) if w < 0]
        if bad:
            raise AssertionError(f"transform of a correlation power went negative at {bad[:5]}")
        return
    if g.order > MAX_TRANSFORM_ORDER:
        return
    fhat = dft(phi)
    scale = float(sum(phi.values))
    for t in range(g.order):
        v = fhat.values[t]
        if v.real < -1e-6 * scale or abs(v.imag) > 1e-6 * scale:
            raise AssertionError(f"transform of a correlation power went negative at {t}")


def _spectrum_threshold(params: StructureParams) -> tuple[Fraction, bool]:
    eps = params.zeta / params.m_star
    if eps > 1:
        return Fraction(1), True
    return eps, False


def _pipeline_front(
    A: GroupSet, B: GroupSet, params: StructureParams, check: bool
) -> tuple[HypothesisReport, EnergyJump, FunctionTable, Fraction, object]:
    report = check_hypotheses(A, B, params)
    if check and not report.core_ok:
        bad = next(r for r in report.records if not r.ok)
        raise HypothesisFailure(bad)
    jump = find_energy_jump(B, params)
    phi = phi_k(B, jump.k)
    eps, clamped = _spectrum_threshold(params)
    spec_phi = spectrum(phi, eps)
    weights = dict(zip(spec_phi.members, spec_phi.magnitudes))
    witness = max_dissociated(B.group, list(spec_phi.members), weights)
    return report, jump, phi, eps, (spec_phi, witness, clamped)


def _codim_diagnostic(report: HypothesisReport, params: StructureParams) -> float:
    oz = float(params.omega * params.zeta)
    tmk = float(params.t) ** 2 * float(params.m + params.kappa) ** 2
    y = float(params.m_prime * (params.m + params.kappa) / params.omega)
    base = math.log(float(1 / report.delta * report.k_prime))
    cross = (math.log(y) / math.log(float(params.t))) * math.log(float((params.m + params.kappa) / params.omega))
    return oz**-2 * tmk * (max(base, 0.0) + max(cross, 0.0))


def extract_subspace(
    A: GroupSet, B: GroupSet, params: StructureParams, check: bool = True
) -> StructureResult:
    """Jump pipeline on a 2-group: a subspace translate dense in B.

    Asserts, by direct count, that the returned translate z satisfies
    |B intersect (L+z)| >= (1-zeta) omega |L| / (t (m+kappa)).
    """
    g = A.group
    if not g.is_boolean_space:
        raise ValueError("subspace extraction needs a 2-group; use extract_bohr")
    report, jump, phi, eps, (spec_phi, witness, clamped) = _pipeline_front(A, B, params, check)
    n = g.rank
    lam = witness.members
    basis = f2.nullspace_basis(lam, n)
    if len(basis) != n - len(lam):
        raise AssertionError("annihilator dimension disagrees with the dissociated rank")
    lset = group_set(g, f2.subspace_elements(basis))
    counts = corr_counts(lset, B)
    achieved, z = _argmax(counts)
    guaranteed = (1 - params.zeta) * params.omega * len(lset) / (params.t * (params.m + params.kappa))
    bb = corr_counts(B, B)
    corr_sum = sum(bb[x] for x in lset.members)
    sum_rec = record_ge(
        "correlation mass on the subspace",
        "structure:corr_sum",
        Fraction(corr_sum),
        guaranteed * len(B),
        note="sum over L of (B o B); the certificate follows by pigeonhole",
    )
    cert_rec = record_ge(
        "subspace density certificate",
        "structure:density_subspace",
        Fraction(achieved),
        guaranteed,
        note=f"codim {len(lam)}, z={z}",
    )
    if not (cert_rec.ok and sum_rec.ok):
        raise DensityGuaranteeFailed(
            "subspace density certificate failed the direct count",
            {
                "k": jump.k,
                "eps": eps,
                "clamped": clamped,
                "lambda": lam,
                "subspace_size": len(lset),
                "corr_sum": corr_sum,
                "achieved": achieved,
                "guaranteed": guaranteed,
                "witness_mode": witness.mode,
            },
        )
    records = [require(sum_rec), require(cert_rec)]
    diagnostics = {
        "eps_spectrum": eps,
        "eps_clamped": clamped,
        "spectrum_size": len(spec_phi),
        "codim_bound": _codim_diagnostic(report, params),
        "chang": chang_bound(phi, eps, params.c_chang, spec=spec_phi, witness=witness),
    }
    return StructureResult(
        variant=SubspacePiece(
            subspace=lset, z=z, density=Fraction(achieved, len(lset)), codim=len(lam)
        ),
        achieved=Fraction(achieved),
        guaranteed=guaranteed,
        records=records,
        jump=jump,
        witness_mode=witness.mode,
        diagnostics=diagnostics,
    )


def _bohr_attempt(
    B: GroupSet,
    lam: tuple[int, ...],
    rho: Fraction,
    params: StructureParams,
) -> tuple[BohrSet, int, int, Fraction, list[CheckRecord], dict]:
    g = B.group
    if lam:
        reg_spec = find_regular_radius(g, lam, min(rho, Fraction(1)))
    else:
        reg_spec = make_bohr_spec(g, (), ())
    b_star = materialize(g, reg_spec, check_regular=True)
    counts = corr_counts(b_star.members, B)
    achieved, z = _argmax(counts)
    sq_sum = sum(c * c for c in counts)
    guaranteed = (
        (1 - 2 * params.zeta) * params.omega * len(b_star.members) / (params.t * (params.m + params.kappa))
    )
    sq_floor = (
        (1 - 2 * params.zeta)
        * params.omega
        * len(B)
        * len(b_star.members) ** 2
        / (params.t * (params.m + params.kappa))
    )
    records = [
        record_ge(
            "translate energy of the Bohr piece",
            "structure:corr_sq_sum",
            Fraction(sq_sum),
            sq_floor,
            note=f"|B_*|={len(b_star.members)}",
        ),
        record_ge(
            "Bohr density certificate",
            "structure:density_bohr",
            Fraction(achieved),
            guaranteed,
            note=f"dim {len(lam)}, z={z}",
        ),
    ]
    diag = {}
    if lam:
        worst = max(reg_spec.eps)
        diag["sufficiency"] = record_le(
            "radius smallness for spectral alignment",
            "structure:radius_sufficient",
            2 * _PI_UPPER * len(lam) * worst,
            params.zeta / 4,
            note="pi bounded above by 355/113",
        )
    return b_star, z, achieved, guaranteed, records, diag


def _bohr_span_diagnostics(
    B: GroupSet, phi: FunctionTable, lam: tuple[int, ...], params: StructureParams, jump: EnergyJump
) -> dict:
    """Spectral-mass and transform-floor checks over Span(Lambda)."""
    g = B.group
    out = {}
    if 3 ** len(lam) > 1 << 16 or (not g.is_boolean_space and g.order > MAX_TRANSFORM_ORDER):
        out["span_checks"] = "skipped (size)"
        return out
    members = span(g, lam).members
    floor = (
        (1 - params.zeta)
        * params.omega
        * len(B)
        * jump.e_k
        * g.order
        / (params.t * (params.m + params.kappa))
    )
    if g.is_boolean_space:
        what_phi = wht_int(g, phi.values)
        what_b = wht_int(g, B.indicator().values)
        mass = sum(what_phi[x] * what_b[x] * what_b[x] for x in members)
        out["spectral_mass"] = record_ge(
            "spectral mass on the span", "structure:spectral_mass", Fraction(mass), floor
        )
    else:
        fhat_phi = dft(phi)
        fhat_b = dft(B.indicator())
        mass = sum(fhat_phi.values[x].real * abs(fhat_b.values[x]) ** 2 for x in members)
        out["spectral_mass"] = record_ge(
            "spectral mass on the span", "structure:spectral_mass", mass, float(floor)
        )
    return out


def extract_bohr(
    A: GroupSet, B: GroupSet, params: StructureParams, check: bool = True
) -> StructureResult:
    """Jump pipeline on a general group: a regular Bohr set dense in B.

    Asserts |B intersect (B_*+z)| >= (1-2 zeta) omega |B_*| / (t (m+kappa))
    by direct count.  The radius constant is escalated a bounded number of
    times before failure is surfaced.
    """
    if not 0 < params.zeta < Fraction(1, 2):
        raise ValueError("Bohr extraction needs zeta < 1/2")
    g = A.group
    report, jump, phi, eps, (spec_phi, witness, clamped) = _pipeline_front(A, B, params, check)
    lam = witness.members
    attempts = []
    c = params.c_local
    for _ in range(1 + _ESCALATION_TRIES):
        rho = c * params.zeta / (params.m_star * max(len(lam), 1))
        b_star, z, achieved, guaranteed, records, diag = _bohr_attempt(B, lam, rho, params)
        attempts.append(
            {
                "c_local": c,
                "rho": rho,
                "size": len(b_star.members),
                "achieved": achieved,
                "guaranteed": guaranteed,
                "sufficiency": diag.get("sufficiency"),
            }
        )
        if all(r.ok for r in records):
            for r in records:
                require(r)
            diagnostics = {
                "eps_spectrum": eps,
                "eps_clamped": clamped,
                "spectrum_size": len(spec_phi),
                "dim_bound": _codim_diagnostic(report, params),
                "attempts": attempts,
                "chang": chang_bound(phi, eps, params.c_chang, spec=spec_phi, witness=witness),
            }
            diagnostics.update(diag)
            diagnostics.update(_bohr_span_diagnostics(B, phi, lam, params, jump))
            size_ratio = Fraction(len(b_star.members), g.order)
            return StructureResult(
                variant=BohrPiece(
                    bohr=b_star,
                    z=z,
                    density=Fraction(achieved, len(b_star.members)),
                    dim=len(lam),
                    size_ratio=size_ratio,
                ),
                achieved=Fraction(achieved),
                guaranteed=guaranteed,
                records=records,
                jump=jump,
                witness_mode=witness.mode,
                diagnostics=diagnostics,
            )
        c = 2 * c
    raise DensityGuaranteeFailed(
        "Bohr density certificate failed after radius escalation",
        {"k": jump.k, "lambda": lam, "witness_mode": witness.mode, "attempts": attempts},
    )


def _auto_m_prime(k: Fraction, m: Fraction, kappa: Fraction) -> Fraction:
    """Energy cap for B = -A implied by the peak cap: (1 + kappa/(k m)) m."""
    return (1 + kappa / (k * m)) * m


def certify_difference_subset(A: GroupSet, eps_param: Fraction | int) -> StructureResult:
    """The 2-eps dichotomy: a large coefficient, or structure inside A-A.

    Requires 100 K^2 delta <= eps with K = |A-A|/|A|.  The structured branch
    runs the pipeline with B = -A and verifies the subset conclusion
    element by element: every member x of the structured set has
    (A o A)(x) > 0.
    """
    eps = Fraction(eps_param)
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    g = A.group
    a = len(A)
    if a == 0:
        raise ValueError("need a nonempty set")
    order = g.order
    diff = difference_set(A, A)
    k = Fraction(len(diff), a)
    delta = Fraction(a, order)
    gate = record_le("smallness gate", "dichotomy:gate_2eps", 100 * k * k * delta, eps)
    if not gate.ok:
        raise HypothesisFailure(gate)
    peak_sq, peak_arg = peak_coefficient(A)
    threshold = (2 - eps) * a * a / k
    if isinstance(peak_sq, int):
        large = Fraction(peak_sq) >= threshold
    else:
        large = peak_sq >= float(threshold) * (1 + _FLOAT_SLACK)
    if large:
        value = Fraction(peak_sq) if isinstance(peak_sq, int) else peak_sq
        return StructureResult(
            variant=LargeCoefficient(x=peak_arg, value=value),
            achieved=Fraction(peak_sq),
            guaranteed=threshold,
            records=[gate, record_ge("large coefficient", "dichotomy:large_2eps", value, threshold)],
        )
    b = A.neg()
    kappa = eps / 100 if g.is_boolean_space else eps / 200
    m = 2 - eps
    params = StructureParams(
        m=m,
        m_prime=_auto_m_prime(k, m, kappa),
        kappa=kappa,
        zeta=kappa,
        t=1 + kappa,
        omega=Fraction(1),
    )
    if g.is_boolean_space:
        return _certify_subspace_branch(A, b, params, eps, gate)
    return _certify_bohr_branch(A, b, params, eps, gate)


def _verify_difference_membership(A: GroupSet, members, ref: str) -> CheckRecord:
    diff_counts = corr_counts(A, A)
    members = list(members)
    missing = [x for x in members if diff_counts[x] == 0]
    if missing:
        raise InclusionFailed(
            f"{len(missing)} members are outside A-A (first few: {missing[:5]})", missing
        )
    return record_eq(
        "difference-set membership",
        ref,
        len(members) - len(missing),
        len(members),
        note="every member has (A o A)(x) > 0",
    )


def _certify_subspace_branch(
    A: GroupSet, b: GroupSet, params: StructureParams, eps: Fraction, gate: CheckRecord
) -> StructureResult:
    result = extract_subspace(A, b, params)
    piece = result.variant
    lset = piece.subspace
    counts = corr_counts(lset, A)
    achieved, z = _argmax(counts)
    half_plus = (Fraction(1, 2) + eps / 8) * len(lset)
    cert = record_ge(
        "majority-overlap certificate",
        "dichotomy:half_plus",
        Fraction(achieved),
        half_plus,
        note=f"z={z}",
    )
    if not cert.ok:
        raise DensityGuaranteeFailed(
            "2-eps subspace certificate failed the direct count",
            {"achieved": achieved, "needed": half_plus, "subspace_size": len(lset)},
        )
    inclusion = _verify_difference_membership(A, lset.members, "dichotomy:inclusion_subspace")
    result.records.extend([gate, require(cert), inclusion])
    result.variant = SubspacePiece(
        subspace=lset, z=z, density=Fraction(achieved, len(lset)), codim=piece.codim
    )
    result.achieved = Fraction(achieved)
    result.guaranteed = half_plus
    return result


def _certify_bohr_branch(
    A: GroupSet, b: GroupSet, params: StructureParams, eps: Fraction, gate: CheckRecord
) -> StructureResult:
    g = A.group
    result = extract_bohr(A, b, params)
    piece = result.variant
    spec_star = piece.bohr.spec
    d = spec_star.d
    steps = max(1, math.ceil(100 * d / eps))
    eta = Fraction(1, 2 * steps)
    rhos = [Fraction(1, 2) + j * eta for j in range(steps + 1)]
    sizes = size_profile(g, spec_star, rhos)
    chosen = None
    for j in range(1, steps + 1):
        if Fraction(sizes[j]) <= (1 + eps / 4) * sizes[j - 1]:
            chosen = j
            break
    if chosen is None:
        raise CheckFailure(
            record_le(
                "dilate chain growth",
                "dichotomy:dilate_chain",
                min(Fraction(sizes[j], sizes[j - 1]) for j in range(1, steps + 1)),
                1 + eps / 4,
                note="no slowly-growing step found",
            )
        )
    b_lo = materialize(g, dilate(spec_star, rhos[chosen - 1]))
    b_hi = materialize(g, dilate(spec_star, rhos[chosen]))
    if (len(b_lo.members), len(b_hi.members)) != (sizes[chosen - 1], sizes[chosen]):
        raise AssertionError("profile sizes disagree with materialized dilates")
    lo_counts = corr_counts(b_lo.members, A)
    hi_counts = corr_counts(b_hi.members, A)
    score, z = _argmax([x + y for x, y in zip(lo_counts, hi_counts)])
    need = (Fraction(1, 2) + eps / 8) * (len(b_lo.members) + len(b_hi.members))
    cert = record_ge(
        "two-dilate majority certificate",
        "dichotomy:half_plus",
        Fraction(score),
        need,
        note=f"j={chosen} of {steps}, z={z}",
    )
    if not cert.ok:
        raise DensityGuaranteeFailed(
            "2-eps Bohr certificate failed the direct count",
            {"score": score, "needed": need, "j": chosen, "sizes": sizes[:8]},
        )
    eta_set = materialize(g, dilate(spec_star, eta))
    inclusion = _verify_difference_membership(A, eta_set.members.members, "dichotomy:inclusion_bohr")
    final_spec = find_regular_radius(g, spec_star.gamma, tuple(eta * e for e in spec_star.eps))
    final = materialize(g, final_spec, check_regular=True)
    if not final.members.index_set <= eta_set.members.index_set:
        raise AssertionError("regularized shrink left the verified dilate")
    final_inclusion = _verify_difference_membership(A, final.members.members, "dichotomy:inclusion_final")
    records = result.records + [gate, require(cert), inclusion, final_inclusion]
    return StructureResult(
        variant=BohrPiece(
            bohr=final,
            z=z,
            density=Fraction(score, len(b_lo.members) + len(b_hi.members)),
            dim=d,
            size_ratio=Fraction(len(final.members), g.order),
        ),
        achieved=Fraction(score),
        guaranteed=need,
        records=records,
        jump=result.jump,
        witness_mode=result.witness_mode,
        diagnostics={**result.diagnostics, "eta": eta, "chain_steps": steps, "chain_j": chosen},
    )


def dichotomy_M(
    A: GroupSet,
    M: Fraction | int | None = None,
    B_sub: GroupSet | None = None,
    decompose: bool = True,
) -> StructureResult:
    """Either a coefficient above M|A|^2/K, or a piece of density 1/(8M).

    Requires 100 K^2 |A| <= N with K = |A-A|/|A|.  B_sub must sit inside A
    or -A; omega is bound to |B_sub|/|A|.  On 2-groups the structured branch
    is followed by the coset decomposition of A along the subspace.
    """
    g = A.group
    a = len(A)
    if a == 0:
        raise ValueError("need a nonempty set")
    if B_sub is None:
        B_sub = A
    in_a = B_sub.index_set <= A.index_set
    in_neg = B_sub.index_set <= A.neg().index_set
    if not (in_a or in_neg):
        raise ValueError("B_sub must be a subset of A or of -A")
    diff = difference_set(A, A)
    k = Fraction(len(diff), a)
    gate = record_le("smallness gate", "dichotomy:gate_M", 100 * k * k * a, g.order)
    if not gate.ok:
        raise HypothesisFailure(gate)
    peak_sq, peak_arg = peak_coefficient(A)
    if M is None:
        raw = Fraction(peak_sq) * k / (a * a)
        if not isinstance(peak_sq, int):
            raw = raw * (1 - Fraction(1, 10**9))  # keep float noise off integer edges
        M = Fraction(math.ceil(raw))
        M = max(Fraction(1), min(M, k))
    M = Fraction(M)
    if not 1 <= M <= k:
        raise ValueError(f"M must lie in [1, K] = [1, {k}], got {M}")
    threshold = M * a * a / k
    if isinstance(peak_sq, int):
        large = Fraction(peak_sq) > threshold
    else:
        large = peak_sq > float(threshold) * (1 + _FLOAT_SLACK)
    if large:
        value = Fraction(peak_sq) if isinstance(peak_sq, int) else peak_sq
        return StructureResult(
            variant=LargeCoefficient(x=peak_arg, value=value),
            achieved=Fraction(peak_sq),
            guaranteed=threshold,
            records=[gate, record_ge("large coefficient", "dichotomy:large_M", value, threshold)],
            diagnostics={"m": M},
        )
    params = StructureParams(
        m=M,
        m_prime=2 * M,
        kappa=Fraction(1),
        zeta=Fraction(1, 8),
        t=Fraction(2),
        omega=Fraction(len(B_sub), a),
    )
    if g.is_boolean_space:
        result = extract_subspace(A, B_sub, params)
        piece_size = len(result.variant.subspace)
    else:
        result = extract_bohr(A, B_sub, params)
        piece_size = len(result.variant.bohr.members)
    eight_m = record_ge(
        "piece density vs omega/(8M)",
        "dichotomy:density_8M",
        result.achieved,
        params.omega * piece_size / (8 * M),
        note=f"M={M}; with B_sub = A this is the 1/(8M) floor",
    )
    result.records.extend([gate, require(eight_m)])
    result.diagnostics["m"] = M
    if g.is_boolean_space and decompose and B_sub.index_set == A.index_set:
        result.diagnostics["decomposition"] = _coset_decomposition(A, result.variant.subspace, M, result.records)
    return result


def _coset_decomposition(
    A: GroupSet, lset: GroupSet, M: Fraction, records: list[CheckRecord]
) -> dict:
    """Cosets of the subspace holding at least |L|/(16M) points of A each.

    Asserts that these cosets cover at least |A|/(16M) points and that
    their count times |L| stays below 16M|A|.
    """
    g = A.group
    basis = f2.echelon_basis(lset.members)
    counts = corr_counts(lset, A)
    by_label: dict[int, int] = {}
    for z in range(g.order):
        label = f2.coset_label(basis, z)
        if label not in by_label:
            by_label[label] = counts[z]
    a = len(A)
    sq_sum = sum(c * c for c in by_label.values())
    records.append(
        require(
            record_ge(
                "coset energy floor",
                "dichotomy:coset_energy",
                Fraction(sq_sum),
                Fraction(a * len(lset), 1) / (8 * M),
                note="sum of squared coset counts",
            )
        )
    )
    cut = Fraction(len(lset)) / (16 * M)
    heavy = {label: c for label, c in by_label.items() if c >= cut}
    covered = sum(heavy.values())
    records.append(
        require(
            record_ge(
                "heavy-coset coverage",
                "dichotomy:coset_coverage",
                Fraction(covered),
                Fraction(a) / (16 * M),
            )
        )
    )
    records.append(
        require(
            record_le(
                "heavy-coset count",
                "dichotomy:coset_count",
                len(heavy) * len(lset),
                16 * M * a,
            )
        )
    )
    return {"heavy_cosets": len(heavy), "covered": covered, "cut": cut}


def brute_force_3B_subspace(
    b_prime: GroupSet, max_codim: int, ambient: GroupSet | None = None
) -> tuple[GroupSet, int] | None:
    """Largest subspace H with H + z inside B'+B'+B', by exhaustive search.

    Scans codimensions inside the ambient subspace in increasing order
    (so decreasing subspace size) and returns the first hit.
    """
    g = b_prime.group
    if not g.is_boolean_space:
        raise ValueError("the 3B' search works on 2-groups only")
    if g.rank > _BRUTE_N_MAX:
        raise SizeLimitError(f"3B' search capped at rank {_BRUTE_N_MAX}")
    if not b_prime.members:
        return None
    triple = sumset(sumset(b_prime, b_prime), b_prime)
    triple_mask = triple.mask
    if ambient is None:
        amb_basis = [1 << i for i in range(g.rank)]
    else:
        amb_basis = f2.echelon_basis(ambient.members)
    m = len(amb_basis)
    if not 0 <= max_codim <= m:
        raise ValueError(f"max_codim must lie in [0, {m}]")
    from .groups import xor_translate_mask

    for codim in range(max_codim + 1):
        dim = m - codim
        for coord_basis in f2.dual_spaces(m, dim, cap=_SUBSPACES_PER_LEVEL_CAP):
            h_basis = [_embed(amb_basis, w) for w in coord_basis]
            valid = triple_mask
            for vec in h_basis:
                valid &= xor_translate_mask(valid, vec, g.rank)
                if not valid:
                    break
            if valid:
                z = _lowest_set_bit_index(valid)
                h = group_set(g, f2.subspace_elements(h_basis))
                return h, z
    return None


def _embed(basis: list[int], coords: int) -> int:
    out = 0
    i = 0
    while coords:
        if coords & 1:
            out ^= basis[i]
        coords >>= 1
        i += 1
    return out


def _lowest_set_bit_index(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


@dataclass(frozen=True)
class RegularizationStep:
    branch: str  # "piece" (dense subspace translate) or "increment" (half space)
    codim: int
    translate: int  # in the coordinates of the original group
    density_before: Fraction
    density_after: Fraction


@dataclass
class RegularizationTrace:
    original: GroupSet
    steps: list[RegularizationStep]
    final_group: GroupSpec
    final_set: GroupSet
    basis: tuple[int, ...]
    translate: int
    final_k: Fraction
    final_delta: Fraction
    records: list[CheckRecord]

    def lift(self) -> GroupSet:
        """The final set mapped back into the original group."""
        lifted = [
            _embed(list(self.basis), x) ^ self.translate for x in self.final_set.members
        ]
        return group_set(self.original.group, sorted(lifted))


def _coords_in_basis(basis: list[int], v: int) -> int:
    coords = 0
    rest = v
    for i, row in enumerate(basis):
        lead = 1 << (row.bit_length() - 1)
        if rest & lead:
            coords |= 1 << i
            rest ^= row
    if rest:
        raise AssertionError("vector left the subspace during reduction")
    return coords


def regularize_density(A: GroupSet) -> RegularizationTrace:
    """Pass to denser and denser pieces until 100 K^2 delta exceeds 1.

    Each round either restricts to a dense subspace translate found by the
    extraction pipeline (density at least doubles) or keeps the denser side
    of a half-space split at the peak frequency (density grows by a factor
    1 + delta/8).  Both branches drop the ambient dimension, so the loop
    ends after at most rank(G) rounds.
    """
    g = A.group
    if not g.is_boolean_space:
        raise ValueError("density regularization works on 2-groups only")
    if g.rank > _REGULARIZE_N_MAX:
        raise SizeLimitError(f"regularization capped at rank {_REGULARIZE_N_MAX}")
    if not A.members:
        raise ValueError("need a nonempty set")
    records: list[CheckRecord] = []
    steps: list[RegularizationStep] = []
    cur_g = g
    cur = A
    basis = [1 << i for i in range(g.rank)]
    translate = 0
    for _ in range(g.rank + 1):
        a = len(cur)
        order = cur_g.order
        delta = Fraction(a, order)
        k = Fraction(len(difference_set(cur, cur)), a)
        if 100 * k * k * delta > 1:
            break
        peak_sq, peak_arg = peak_coefficient(cur)
        m_exact = Fraction(peak_sq) * k / (a * a)
        records.append(
            require(
                record_ge(
                    "peak floor inside the loop",
                    "regularize:m_floor",
                    m_exact + delta * k,
                    Fraction(1),
                    note=f"m={m_exact}, delta={delta}, K={k}",
                )
            )
        )
        if m_exact <= 1 / (16 * delta):
            params = StructureParams(
                m=m_exact,
                m_prime=2 * m_exact,
                kappa=Fraction(1),
                zeta=Fraction(1, 8),
                t=Fraction(2),
                omega=Fraction(1),
            )
            result = extract_subspace(cur, cur, params)
            piece = result.variant
            lbasis = f2.echelon_basis(piece.subspace.members)
            z = piece.z
            member_test = piece.subspace.index_set
            if not lbasis:
                # a zero-dimensional piece is a single point; keep one spare
                # direction so the quotient stays a representable group (the
                # kept density is then >= 1/2, still past the doubling floor)
                lbasis = [1]
                member_test = frozenset((0, 1))
            new_members = sorted(
                _coords_in_basis(lbasis, x ^ z) for x in cur.members if (x ^ z) in member_test
            )
            new_g = boolean_group(len(lbasis))
            new_set = group_set(new_g, new_members)
            density_after = Fraction(len(new_set), new_g.order)
            records.append(
                require(
                    record_ge(
                        "density doubling",
                        "regularize:double",
                        density_after,
                        2 * delta,
                        note=f"codim {piece.codim}",
                    )
                )
            )
            translate ^= _embed(basis, z)
            steps.append(
                RegularizationStep(
                    branch="piece",
                    codim=piece.codim,
                    translate=translate,
                    density_before=delta,
                    density_after=density_after,
                )
            )
            basis = [_embed(basis, row) for row in lbasis]
            cur_g, cur = new_g, new_set
        else:
            # split along the kernel of the peak character, keep the denser side
            what = wht_int(cur_g, cur.indicator().values)
            coeff = what[peak_arg]
            side0 = (a + coeff) // 2
            if (a + coeff) % 2:
                raise AssertionError("parity mismatch in the half-space split")
            side1 = a - side0
            if side0 >= side1:
                z, count = 0, side0
            else:
                z, count = 1 << _lowest_set_bit_index(peak_arg), side1
            records.append(
                require(
                    record_ge(
                        "half-space increment",
                        "regularize:increment",
                        16 * order * count,
                        8 * a * order + a * a,
                    )
                )
            )
            kbasis = f2.nullspace_basis([peak_arg], cur_g.rank)
            kbasis = f2.echelon_basis(kbasis)
            new_members = sorted(
                _coords_in_basis(kbasis, x ^ z)
                for x in cur.members
                if f2.in_span(kbasis, x ^ z)
            )
            new_g = boolean_group(len(kbasis))
            new_set = group_set(new_g, new_members)
            density_after = Fraction(len(new_set), new_g.order)
            if not density_after > delta:
                raise AssertionError("half-space split failed to raise the density")
            translate ^= _embed(basis, z)
            steps.append(
                RegularizationStep(
                    branch="increment",
                    codim=1,
                    translate=translate,
                    density_before=delta,
                    density_after=density_after,
                )
            )
            basis = [_embed(basis, row) for row in kbasis]
            cur_g, cur = new_g, new_set
    else:
        raise AssertionError("regularization failed to terminate within rank(G) rounds")
    final_delta = Fraction(len(cur), cur_g.order)
    final_k = Fraction(len(difference_set(cur, cur)), len(cur))
    records.append(
        require(
            record_ge(
                "final coarseness",
                "regularize:final",
                100 * final_k * final_k * final_delta,
                Fraction(1),
                note="strict excess required",
            )
        )
    )
    if not 100 * final_k * final_k * final_delta > 1:
        raise AssertionError("final coarseness must be strict")
    densities = [s.density_before for s in steps] + [final_delta]
    if any(y <= x for x, y in zip(densities, densities[1:])):
        raise AssertionError("trace densities must strictly increase")
    return RegularizationTrace(
        original=A,
        steps=steps,
        final_group=cur_g,
        final_set=cur,
        basis=tuple(basis),
        translate=translate,
        final_k=final_k,
        final_delta=final_delta,
        records=records,
    )
