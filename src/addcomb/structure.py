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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import f2
from .bohr import BohrSet, dilate, find_regular_radius, make_bohr_spec, materialize, size_profile
from .groups import MAX_TRANSFORM_ORDER, GroupSpec, SizeLimitError, boolean_group
from .harmonic import INT64_SAFE, FunctionTable, dft, magnitudes, sum_of_squares, transform_error
from .report import CheckFailure, CheckRecord, record_eq, record_ge, record_le, require
from .setstat import GroupSet, conv_counts, corr_counts, group_set, higher_energy, sumset, sumset_size
from .spectral import DissociatedWitness, Spectrum, chang_bound, max_dissociated, span, spectrum

_PI_UPPER = Fraction(355, 113)  # exceeds pi, so it is safe in upper bounds
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
    value: int | float  # proven lower bound on the squared transform value at x


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
    hypotheses: HypothesisReport | None = None  # as checked by the pipeline

    @property
    def kind(self) -> str:
        return type(self.variant).__name__


@dataclass
class HypothesisReport:
    delta: Fraction  # |A|/N
    k_prime: Fraction  # |A-A|/|A|
    records: list[CheckRecord]
    core_ok: bool  # the three capacity conditions plus the omega binding


def _argmax(values: np.ndarray) -> tuple[int, int]:
    """(value, smallest index attaining it)."""
    arg = int(np.argmax(values))
    return int(values[arg]), arg


def check_hypotheses(A: GroupSet, B: GroupSet, params: StructureParams) -> HypothesisReport:
    """Evaluate every pipeline hypothesis exactly; reporting only.

    Core conditions (capacity of peak, energy, sumset, and the omega
    binding) gate the extraction guarantees; the m/m_prime/t windows are
    recorded as advisory context.  The peak capacity is checked with the
    upper end of the peak's enclosure, so it holds for the true peak.
    """
    if A.group != B.group:
        raise ValueError("A and B must live on the same group")
    a, b, order = len(A), len(B), A.group.order
    if a == 0 or b == 0:
        raise ValueError("hypothesis check needs nonempty sets")
    s = sumset_size(A, B)
    k = Fraction(s, a)
    k_prime = Fraction(A.diff_size, a)
    peak = A.peak
    records = []
    records.append(
        record_eq(
            "size ratio binding", "structure:omega", params.omega, Fraction(b, a), note="omega vs |B|/|A|"
        )
    )
    records.append(
        record_le(
            "peak capacity",
            "structure:peak_cap",
            Fraction(peak.hi) * k,
            params.m * a * a,
            note=f"peak at x={peak.arg}",
        )
    )
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
    return HypothesisReport(delta=Fraction(a, order), k_prime=k_prime, records=records, core_ok=core_ok)


def find_energy_jump(B: GroupSet, params: StructureParams) -> EnergyJump:
    """Smallest k in [2, k0] with E_{k+1}(B) >= |B| E_k(B) / m_star, exactly."""
    if len(B) == 0:
        raise ValueError("energy jump needs a nonempty set")
    b = len(B)
    m_star = params.m_star
    k0 = params.k0
    hist = dict(B.energy_hist)
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
    e_k = higher_energy(B, k)
    # E_k(B) bounds every entry and every partial sum of the table, so below
    # 2^62 the powers are exact in int64 (FunctionTable's rule)
    corr = B.autocorr if e_k < INT64_SAFE else B.autocorr.astype(object)
    table = FunctionTable(B.group, corr**k, "int")
    require(record_eq("phi mass", "structure:phi_mass", table.l1(), e_k, note=f"k={k}"))
    return table


def _check_phi_transform_sign(phi: FunctionTable, phi_hat: FunctionTable) -> None:
    """A correlation power is positive definite: its transform is real and
    >= 0.  Only a value the transform's proven error cannot explain fails."""
    w = phi_hat.values
    err = transform_error(phi)
    bad = np.flatnonzero((w.real < -err) | (np.abs(w.imag) > err))
    if bad.size:
        raise AssertionError(f"transform of a correlation power went negative at {bad[:5].tolist()}")


def _spectrum_threshold(params: StructureParams) -> tuple[Fraction, bool]:
    eps = params.zeta / params.m_star
    if eps > 1:
        return Fraction(1), True
    return eps, False


@dataclass(frozen=True)
class _Front:
    """What both jump pipelines compute before they build a piece: the
    hypotheses, the jump, phi_k and its transform, Spec_eps(phi) and the
    dissociated witness Lambda drawn from it."""

    params: StructureParams
    report: HypothesisReport
    jump: EnergyJump
    phi: FunctionTable
    phi_hat: FunctionTable
    eps: Fraction
    clamped: bool
    spec: Spectrum
    witness: DissociatedWitness

    def result(
        self,
        variant: SubspacePiece | BohrPiece,
        achieved: int,
        guaranteed: Fraction,
        records: list[CheckRecord],
        bound_key: str,
        **extra,
    ) -> StructureResult:
        """The certified piece, with the diagnostics both pipelines report."""
        diagnostics = {
            "eps_spectrum": self.eps,
            "eps_clamped": self.clamped,
            "spectrum_size": len(self.spec),
            bound_key: _codim_diagnostic(self.report, self.params),
            "chang": chang_bound(
                self.phi, self.eps, self.params.c_chang, spec=self.spec, witness=self.witness
            ),
            **extra,
        }
        return StructureResult(
            variant=variant,
            achieved=Fraction(achieved),
            guaranteed=guaranteed,
            records=records,
            jump=self.jump,
            witness_mode=self.witness.mode,
            diagnostics=diagnostics,
            hypotheses=self.report,
        )


def _pipeline_front(A: GroupSet, B: GroupSet, params: StructureParams) -> _Front:
    report = check_hypotheses(A, B, params)
    if not report.core_ok:
        bad = next(r for r in report.records if not r.ok)
        raise HypothesisFailure(bad)
    jump = find_energy_jump(B, params)
    phi = phi_k(B, jump.k)
    phi_hat = dft(phi)
    _check_phi_transform_sign(phi, phi_hat)
    eps, clamped = _spectrum_threshold(params)
    spec = spectrum(phi, eps, fhat=phi_hat)
    witness = max_dissociated(B.group, spec.members)  # heaviest first already
    return _Front(params, report, jump, phi, phi_hat, eps, clamped, spec, witness)


def _codim_diagnostic(report: HypothesisReport, params: StructureParams) -> float:
    oz = float(params.omega * params.zeta)
    tmk = float(params.t) ** 2 * float(params.m + params.kappa) ** 2
    y = float(params.m_prime * (params.m + params.kappa) / params.omega)
    base = math.log(float(1 / report.delta * report.k_prime))
    cross = (math.log(y) / math.log(float(params.t))) * math.log(float((params.m + params.kappa) / params.omega))
    return oz**-2 * tmk * (max(base, 0.0) + max(cross, 0.0))


def _recount(piece: GroupSet, B: GroupSet) -> tuple[np.ndarray, int, int]:
    """(counts, achieved, z): |B intersect (piece + x)| for every x, its
    maximum, and the smallest translate attaining it."""
    counts = corr_counts(piece, B)
    achieved, z = _argmax(counts)
    return counts, achieved, z


def _density_floor(params: StructureParams, n: int, loss: int) -> Fraction:
    """(1 - loss zeta) omega n / (t (m+kappa)).  With n = |piece| this is
    the count the pipeline guarantees: a subspace loses one zeta, a Bohr
    set two."""
    return (1 - loss * params.zeta) * params.omega * n / (params.t * (params.m + params.kappa))


def extract_subspace(A: GroupSet, B: GroupSet, params: StructureParams) -> StructureResult:
    """Jump pipeline on a 2-group: a subspace translate dense in B.

    Asserts, by direct count, that the returned translate z satisfies
    |B intersect (L+z)| >= (1-zeta) omega |L| / (t (m+kappa)).
    """
    g = A.group
    if not g.is_boolean_space:
        raise ValueError("subspace extraction needs a 2-group; use extract_bohr")
    front = _pipeline_front(A, B, params)
    n = g.rank
    lam = front.witness.members
    basis = f2.nullspace_basis(lam.tolist(), n)
    if len(basis) != n - len(lam):
        raise AssertionError("annihilator dimension disagrees with the dissociated rank")
    lset = group_set(g, f2.subspace_elements(basis))
    _, achieved, z = _recount(lset, B)
    guaranteed = _density_floor(params, len(lset), loss=1)
    corr_sum = int(B.autocorr[lset.members].sum())
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
                "k": front.jump.k,
                "eps": front.eps,
                "clamped": front.clamped,
                "lambda": lam.tolist(),
                "subspace_size": len(lset),
                "corr_sum": corr_sum,
                "achieved": achieved,
                "guaranteed": guaranteed,
                "witness_mode": front.witness.mode,
            },
        )
    piece = SubspacePiece(subspace=lset, z=z, density=Fraction(achieved, len(lset)), codim=len(lam))
    return front.result(piece, achieved, guaranteed, [sum_rec, cert_rec], "codim_bound")


def _bohr_span_diagnostics(
    B: GroupSet, phi_hat: FunctionTable, lam: np.ndarray, params: StructureParams, jump: EnergyJump
) -> dict:
    """Spectral-mass and transform-floor checks over Span(Lambda)."""
    g = B.group
    out = {}
    if 3 ** len(lam) > 1 << 16 or (not g.is_boolean_space and g.order > MAX_TRANSFORM_ORDER):
        out["span_checks"] = "skipped (size)"
        return out
    members = span(g, lam).members
    floor = _density_floor(params, len(B) * jump.e_k * g.order, loss=1)
    phi_span = phi_hat.values[members]
    fhat_b = B.transform[members]
    if g.is_boolean_space:
        # phi_hat * |B_hat|^2 may pass 2^63: multiply as Python ints
        mass = int((phi_span.astype(object) * (fhat_b * fhat_b)).sum())
        out["spectral_mass"] = record_ge(
            "spectral mass on the span", "structure:spectral_mass", Fraction(mass), floor
        )
    else:
        # summed in Python, in span order, as the report has always shown it
        mags = magnitudes(fhat_b).tolist()
        mass = sum(w * m**2 for w, m in zip(phi_span.real.tolist(), mags))
        out["spectral_mass"] = record_ge(
            "spectral mass on the span", "structure:spectral_mass", mass, float(floor)
        )
    return out


def extract_bohr(A: GroupSet, B: GroupSet, params: StructureParams) -> StructureResult:
    """Jump pipeline on a general group: a regular Bohr set dense in B.

    Asserts |B intersect (B_*+z)| >= (1-2 zeta) omega |B_*| / (t (m+kappa))
    by direct count, together with the translate energy sum_x |B intersect
    (B_*+x)|^2 >= that floor times |B| |B_*|.  A failed count doubles the
    radius constant c_local, at most _ESCALATION_TRIES times; the failure
    is then raised with every attempt in its trace.
    """
    if not 0 < params.zeta < Fraction(1, 2):
        raise ValueError("Bohr extraction needs zeta < 1/2")
    g = A.group
    front = _pipeline_front(A, B, params)
    lam = front.witness.members
    attempts = []
    c = params.c_local
    for _ in range(1 + _ESCALATION_TRIES):
        rho = c * params.zeta / (params.m_star * max(len(lam), 1))
        if len(lam):
            reg_spec = find_regular_radius(g, lam, min(rho, Fraction(1)))
        else:
            reg_spec = make_bohr_spec(g, (), ())
        b_star = materialize(g, reg_spec)
        size = len(b_star)
        counts, achieved, z = _recount(b_star.members, B)
        guaranteed = _density_floor(params, size, loss=2)
        records = [
            record_ge(
                "translate energy of the Bohr piece",
                "structure:corr_sq_sum",
                Fraction(sum_of_squares(counts)),
                guaranteed * len(B) * size,
                note=f"|B_*|={size}",
            ),
            record_ge(
                "Bohr density certificate",
                "structure:density_bohr",
                Fraction(achieved),
                guaranteed,
                note=f"dim {len(lam)}, z={z}",
            ),
        ]
        extra = {}
        if len(lam):
            extra["sufficiency"] = record_le(
                "radius smallness for spectral alignment",
                "structure:radius_sufficient",
                2 * _PI_UPPER * len(lam) * max(reg_spec.eps),
                params.zeta / 4,
                note="pi bounded above by 355/113",
            )
        attempts.append(
            {
                "c_local": c,
                "rho": rho,
                "size": size,
                "achieved": achieved,
                "guaranteed": guaranteed,
                "sufficiency": extra.get("sufficiency"),
            }
        )
        if all(r.ok for r in records):
            extra.update(_bohr_span_diagnostics(B, front.phi_hat, lam, params, front.jump))
            piece = BohrPiece(
                bohr=b_star,
                z=z,
                density=Fraction(achieved, size),
                dim=len(lam),
                size_ratio=Fraction(size, g.order),
            )
            return front.result(piece, achieved, guaranteed, records, "dim_bound", attempts=attempts, **extra)
        c = 2 * c
    raise DensityGuaranteeFailed(
        "Bohr density certificate failed after radius escalation",
        {"k": front.jump.k, "lambda": lam.tolist(), "witness_mode": front.witness.mode, "attempts": attempts},
    )


def _auto_m_prime(k: Fraction, m: Fraction, kappa: Fraction) -> Fraction:
    """Energy cap for B = -A implied by the peak cap: (1 + kappa/(k m)) m."""
    return (1 + kappa / (k * m)) * m


def _m_params(m: Fraction, omega: Fraction) -> StructureParams:
    """Pipeline knobs of the M-dichotomy: m' = 2m, kappa 1, zeta 1/8, t 2."""
    return StructureParams(
        m=m, m_prime=2 * m, kappa=Fraction(1), zeta=Fraction(1, 8), t=Fraction(2), omega=omega
    )


def _large_coefficient(
    A: GroupSet, threshold: Fraction, strict: bool, ref: str, gate: CheckRecord, diagnostics: dict
) -> StructureResult | None:
    """The peak of |A_hat|^2 as a LargeCoefficient result when the lower
    end of its enclosure reaches threshold (passes it, if strict), so the
    certified value is proven; None sends the caller to the structured
    branch, whose conclusion is recounted.  An enclosure that straddles the
    threshold goes there too."""
    peak = A.peak
    if not (peak.lo > threshold if strict else peak.lo >= threshold):
        return None
    return StructureResult(
        variant=LargeCoefficient(x=peak.arg, value=peak.lo),
        achieved=Fraction(peak.lo),
        guaranteed=threshold,
        records=[gate, record_ge("large coefficient", ref, peak.lo, threshold)],
        diagnostics=diagnostics,
    )


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
    k = Fraction(A.diff_size, a)
    delta = Fraction(a, order)
    gate = record_le("smallness gate", "dichotomy:gate_2eps", 100 * k * k * delta, eps)
    if not gate.ok:
        raise HypothesisFailure(gate)
    large = _large_coefficient(
        A, (2 - eps) * a * a / k, strict=False, ref="dichotomy:large_2eps", gate=gate, diagnostics={}
    )
    if large is not None:
        return large
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


def _verify_difference_membership(A: GroupSet, piece: GroupSet, ref: str) -> CheckRecord:
    missing = piece.members[A.autocorr[piece.members] == 0].tolist()
    if missing:
        raise InclusionFailed(
            f"{len(missing)} members are outside A-A (first few: {missing[:5]})", missing
        )
    return record_eq(
        "difference-set membership",
        ref,
        len(piece) - len(missing),
        len(piece),
        note="every member has (A o A)(x) > 0",
    )


def _certify_subspace_branch(
    A: GroupSet, b: GroupSet, params: StructureParams, eps: Fraction, gate: CheckRecord
) -> StructureResult:
    # on a 2-group -A = A, so the pipeline's count against b is the count
    # against A: result.achieved = |A intersect (L + z)| at the best z
    result = extract_subspace(A, b, params)
    lset = result.variant.subspace
    z = result.variant.z
    half_plus = (Fraction(1, 2) + eps / 8) * len(lset)
    cert = record_ge(
        "majority-overlap certificate",
        "dichotomy:half_plus",
        result.achieved,
        half_plus,
        note=f"z={z}",
    )
    if not cert.ok:
        raise DensityGuaranteeFailed(
            "2-eps subspace certificate failed the direct count",
            {"achieved": int(result.achieved), "needed": half_plus, "subspace_size": len(lset)},
        )
    inclusion = _verify_difference_membership(A, lset, "dichotomy:inclusion_subspace")
    result.records.extend([gate, require(cert), inclusion])
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
    if (len(b_lo), len(b_hi)) != (sizes[chosen - 1], sizes[chosen]):
        raise AssertionError("profile sizes disagree with materialized dilates")
    lo_counts = corr_counts(b_lo.members, A)
    hi_counts = corr_counts(b_hi.members, A)
    score, z = _argmax(lo_counts + hi_counts)
    need = (Fraction(1, 2) + eps / 8) * (len(b_lo) + len(b_hi))
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
    inclusion = _verify_difference_membership(A, eta_set.members, "dichotomy:inclusion_bohr")
    final_spec = find_regular_radius(g, spec_star.gamma, tuple(eta * e for e in spec_star.eps))
    final = materialize(g, final_spec)
    if not np.isin(final.members.members, eta_set.members.members).all():
        raise AssertionError("regularized shrink left the verified dilate")
    final_inclusion = _verify_difference_membership(A, final.members, "dichotomy:inclusion_final")
    records = result.records + [gate, require(cert), inclusion, final_inclusion]
    return StructureResult(
        variant=BohrPiece(
            bohr=final,
            z=z,
            density=Fraction(score, len(b_lo) + len(b_hi)),
            dim=d,
            size_ratio=Fraction(len(final), g.order),
        ),
        achieved=Fraction(score),
        guaranteed=need,
        records=records,
        jump=result.jump,
        witness_mode=result.witness_mode,
        diagnostics={**result.diagnostics, "eta": eta, "chain_steps": steps, "chain_j": chosen},
    )


def dichotomy_M(
    A: GroupSet, M: Fraction | int | None = None, B_sub: GroupSet | None = None
) -> StructureResult:
    """Either a coefficient above M|A|^2/K, or a piece of density 1/(8M).

    Requires 100 K^2 |A| <= N with K = |A-A|/|A|.  B_sub must sit inside A
    or -A; omega is bound to |B_sub|/|A|.  The default M is the least
    integer that caps the peak's enclosure, ceil(hi K/|A|^2), within [1, K].
    On 2-groups with B_sub = A the structured branch is followed by the
    coset decomposition of A along the subspace.
    """
    g = A.group
    a = len(A)
    if a == 0:
        raise ValueError("need a nonempty set")
    if B_sub is None:
        B_sub = A
    if not (np.isin(B_sub.members, A.members).all() or np.isin(B_sub.members, A.neg().members).all()):
        raise ValueError("B_sub must be a subset of A or of -A")
    k = Fraction(A.diff_size, a)
    gate = record_le("smallness gate", "dichotomy:gate_M", 100 * k * k * a, g.order)
    if not gate.ok:
        raise HypothesisFailure(gate)
    if M is None:
        M = Fraction(math.ceil(Fraction(A.peak.hi) * k / (a * a)))
        M = max(Fraction(1), min(M, k))
    M = Fraction(M)
    if not 1 <= M <= k:
        raise ValueError(f"M must lie in [1, K] = [1, {k}], got {M}")
    large = _large_coefficient(
        A, M * a * a / k, strict=True, ref="dichotomy:large_M", gate=gate, diagnostics={"m": M}
    )
    if large is not None:
        return large
    params = _m_params(M, Fraction(len(B_sub), a))
    if g.is_boolean_space:
        result = extract_subspace(A, B_sub, params)
        piece_size = len(result.variant.subspace)
    else:
        result = extract_bohr(A, B_sub, params)
        piece_size = len(result.variant.bohr)
    eight_m = record_ge(
        "piece density vs omega/(8M)",
        "dichotomy:density_8M",
        result.achieved,
        params.omega * piece_size / (8 * M),
        note=f"M={M}; with B_sub = A this is the 1/(8M) floor",
    )
    result.records.extend([gate, require(eight_m)])
    result.diagnostics["m"] = M
    if g.is_boolean_space and B_sub == A:
        result.diagnostics["decomposition"] = _coset_decomposition(A, result.variant.subspace, M, result.records)
    return result


def _coset_decomposition(
    A: GroupSet, lset: GroupSet, M: Fraction, records: list[CheckRecord]
) -> dict:
    """Cosets of the subspace holding at least |L|/(16M) points of A each.

    Asserts that these cosets cover at least |A|/(16M) points and that
    their count times |L| stays below 16M|A|.
    """
    _, labels = _coords_in_basis(f2.echelon_basis(lset.members.tolist()), A.members)
    # |A intersect (L + z)| for every coset of L that meets A
    counts = np.unique(labels, return_counts=True)[1]
    a = len(A)
    sq_sum = sum_of_squares(counts)
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
    heavy = [c for c in counts.tolist() if c >= cut]
    covered = sum(heavy)
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


def brute_force_3B_subspace(b_prime: GroupSet, max_codim: int) -> tuple[GroupSet, int] | None:
    """Largest subspace H with H + z inside B'+B'+B', by exhaustive search.

    Scans codimensions in increasing order (so decreasing subspace size)
    and returns the first hit.
    """
    g = b_prime.group
    if not g.is_boolean_space:
        raise ValueError("the 3B' search works on 2-groups only")
    if g.rank > _BRUTE_N_MAX:
        raise SizeLimitError(f"3B' search capped at rank {_BRUTE_N_MAX}")
    if len(b_prime) == 0:
        return None
    in_triple = conv_counts(sumset(b_prime, b_prime), b_prime) > 0
    idx = np.arange(g.order)
    m = g.rank
    if not 0 <= max_codim <= m:
        raise ValueError(f"max_codim must lie in [0, {m}]")

    for codim in range(max_codim + 1):
        for h_basis in f2.dual_spaces(m, m - codim, cap=_SUBSPACES_PER_LEVEL_CAP):
            # valid[z] says z + span(h_basis so far) lies inside B'+B'+B'
            valid = in_triple
            for vec in h_basis:
                valid = valid & valid[idx ^ vec]
                if not valid.any():
                    break
            if valid.any():
                z = int(np.flatnonzero(valid)[0])
                h = group_set(g, f2.subspace_elements(h_basis))
                return h, z
    return None


def _embed(basis: list[int], coords):
    """The XOR of basis[i] over the bits i of coords, an int or an int64 array."""
    out = 0
    for i, row in enumerate(basis):
        out = out ^ (coords >> i & 1) * row
    return out


@dataclass(frozen=True)
class RegularizationStep:
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
        lifted = _embed(list(self.basis), self.final_set.members) ^ self.translate
        return GroupSet(self.original.group, np.sort(lifted))  # the lift is one to one


def _coords_in_basis(basis: list[int], v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(coords, rest) for each entry of v, reduced by an echelon basis: its
    coordinates in the basis, and the remainder, which labels its coset of
    the span (f2.coset_label) and is 0 exactly on the span."""
    coords = np.zeros_like(v)
    for i, row in enumerate(basis):
        bit = v >> (row.bit_length() - 1) & 1
        coords |= bit << i
        v = v ^ bit * row
    return coords, v


def regularize_density(A: GroupSet) -> RegularizationTrace:
    """Pass to denser and denser pieces until 100 K^2 delta exceeds 1.

    Each round runs the extraction pipeline with the M-dichotomy knobs at
    m = |A_hat|^2_max K/|A|^2, restricts to the subspace translate it
    certifies and re-coordinatizes that translate as a smaller 2-group.
    Every round the kept density at least doubles (a recounted record) and
    the ambient dimension drops, so the loop ends within rank(G) rounds.
    """
    g = A.group
    if not g.is_boolean_space:
        raise ValueError("density regularization works on 2-groups only")
    if g.rank > _REGULARIZE_N_MAX:
        raise SizeLimitError(f"regularization capped at rank {_REGULARIZE_N_MAX}")
    if len(A) == 0:
        raise ValueError("need a nonempty set")
    records: list[CheckRecord] = []
    steps: list[RegularizationStep] = []
    cur_g = g
    cur = A
    basis = [1 << i for i in range(g.rank)]
    translate = 0
    for _ in range(g.rank + 1):
        a = len(cur)
        delta = Fraction(a, cur_g.order)
        k = Fraction(cur.diff_size, a)
        if 100 * k * k * delta > 1:
            break
        m_exact = Fraction(cur.peak.hi) * k / (a * a)
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
        # The loop gate gives 100 K^2 delta <= 1, so delta <= 1/100 (as
        # K >= 1), and the peak is at most |A|^2, so m <= K.  Hence
        # m <= K <= 1/(10 sqrt(delta)) < 1/(16 delta).  So the pipeline's
        # piece always applies, and the half-space density increment, which
        # the argument keeps for m > 1/(16 delta), can never be reached.
        if m_exact > 1 / (16 * delta):
            raise AssertionError(f"peak ratio m={m_exact} passed 1/(16 delta) under the loop gate")
        piece = extract_subspace(cur, cur, _m_params(m_exact, Fraction(1))).variant
        # a zero-dimensional piece is a single point; keep one spare
        # direction so the quotient stays a representable group (the kept
        # density is then >= 1/2, still past the doubling floor)
        lbasis = f2.echelon_basis(piece.subspace.members.tolist()) or [1]
        z = piece.z
        coords, rest = _coords_in_basis(lbasis, cur.members ^ z)
        new_g = boolean_group(len(lbasis))
        new_set = GroupSet(new_g, np.sort(coords[rest == 0]))  # the members in L + z
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
                codim=piece.codim,
                translate=translate,
                density_before=delta,
                density_after=density_after,
            )
        )
        basis = [_embed(basis, row) for row in lbasis]
        cur_g, cur = new_g, new_set
    else:
        raise AssertionError("regularization failed to terminate within rank(G) rounds")
    final_delta = Fraction(len(cur), cur_g.order)
    final_k = Fraction(cur.diff_size, len(cur))
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
