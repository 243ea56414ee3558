"""Energy-jump structure extraction and its corollary drivers.

The central pipeline: detect the first higher-energy jump of B, form
phi(x) = |B_x|^k at the jump exponent, read off the large spectrum of phi,
take a maximal dissociated set Lambda inside it, and intersect B with a
translate of a Bohr set of Lambda.  extract(A, B, params) is the one
entry point: the group decides the piece kind, and extract runs the core
(_extract), which builds one piece and recounts it once.  Every piece is a
Piece, a translate of a Bohr set with its spec and members: on a 2-group
the annihilator of Lambda, which is B(Lambda, 1/2) as every phase there is
0 or 1/2 (kind "subgroup", from _annihilator, with the echelon basis the
coset decomposition and the regularization loop read); the regular Bohr
set at the paper's radius elsewhere, or on a 2-group when asked for (kind
"bohr", from _paper_bohr).  _extract picks the builder, and the zeta loss,
at its one kind branch.  check_hypotheses
states the hypotheses and derive_params meets them, both reading _measure.
The piece is returned when its density floor and mass record hold by direct
count; a failed certificate is raised as a theory-violation witness, never
papered over.  Every failed check here, a hypothesis, a gate, a
certificate, a membership recount or the energy-jump search, raises
report.CheckFailure with its failed record; a failed certificate adds the
trace of its one attempt.  A broken internal invariant (a transform sign,
an annihilator dimension, the regularization loop's own bounds) raises
AssertionError: a program fault, not a failed check.

Four drivers reach the pipeline, each through extract: harness's
structure run, the 2-eps dichotomy (certify_difference_subset: a large
Fourier coefficient or a structured piece inside A-A), the M-dichotomy
(dichotomy_M) with its coset decomposition, and the density regularization
loop (regularize_density), once per round.  The paper's argument does not
go through a Bogolyubov-type 3B' subspace (Sanders 2012), and none is
searched for here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NoReturn

import numpy as np

from . import f2
from .bohr import BohrSet, dilate, find_regular_radius, make_bohr_spec, materialize, size_profile
from .groups import GroupSpec, SizeLimitError, boolean_group
from .harmonic import INT64_SAFE, FunctionTable, dft, magnitudes, power_sums, transform_error
from .report import CheckFailure, CheckRecord, record_eq, record_ge, record_le, require
from .setstat import GroupSet, Peak, corr_counts, higher_energy, sumset_size
from .spectral import DissociatedWitness, Spectrum, chang_bound, max_dissociated, spectrum

_PI_UPPER = Fraction(355, 113)  # exceeds pi, so it is safe in upper bounds
_REGULARIZE_N_MAX = 16
_C_LOCAL = Fraction(1, 32)  # the paper's Bohr radius factor c in rho = c zeta / (m_star |Lambda|)
_K0_PAD = 10  # jump-search depth past the least t^e >= y^pad
# the deepest jump search allowed: 3.8x the k0 of the 2-eps dichotomy at eps = 1/100
_K0_MAX = 1 << 20


class NoJump(CheckFailure):
    """No energy jump up to k0; with valid hypotheses this flags a bug.  The
    record counts the k in [2, k0] where the jump held (none) against 1;
    energies lists E_1, ..., E_(k0+1)."""

    def __init__(self, record: CheckRecord, message: str, energies: list[int], k0: int, m_star: Fraction):
        super().__init__(record, message=message)
        self.energies = energies
        self.k0 = k0
        self.m_star = m_star


def _gate(record: CheckRecord) -> CheckRecord:
    """require for a driver's hypothesis, raised as "hypothesis not met"."""
    if not record.ok:
        raise CheckFailure(record, message=f"hypothesis not met: {record.name}: lhs={record.lhs} rhs={record.rhs}")
    return record


@dataclass(frozen=True)
class StructureParams:
    """Hypotheses of the extraction pipeline.

    m and m_prime cap the peak coefficient and the additive energy, kappa
    caps the sumset, zeta is the spectral slack, t > 1 the jump tension,
    omega the size ratio |B|/|A|.
    """

    m: Fraction
    m_prime: Fraction
    kappa: Fraction
    zeta: Fraction
    t: Fraction
    omega: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        for name in ("m", "m_prime", "kappa", "zeta", "t", "omega"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.m <= 0 or self.m_prime <= 0 or self.kappa <= 0 or self.omega <= 0:
            raise ValueError("m, m_prime, kappa, omega must be positive")
        if not 0 < self.zeta < 1:
            raise ValueError(f"zeta must lie in (0, 1), got {self.zeta}")
        if self.t <= 1:
            raise ValueError(f"t must exceed 1, got {self.t}")

    @property
    def m_star(self) -> Fraction:
        return (self.m + self.kappa) * self.t / self.omega

    @property
    def k0(self) -> int:
        """pad plus the least e with t^e >= y^pad, y = m'(m + kappa)/omega
        (pad when y <= 1): e = ceil(pad ln y / ln t) is bracketed by proven
        bounds on the logs, and exact powers settle only a bracket of two or
        more integers.  A depth past _K0_MAX is refused before any power."""
        y = self.m_prime * (self.m + self.kappa) / self.omega
        if y <= 1:
            return _K0_PAD
        (y_lo, y_hi), (t_lo, t_hi) = _ln_bounds(y), _ln_bounds(self.t)
        e, top = math.ceil(_K0_PAD * y_lo / t_hi), math.ceil(_K0_PAD * y_hi / t_lo)
        if e < top and e + _K0_PAD <= _K0_MAX:
            target, power = y**_K0_PAD, self.t**e
            while power < target:
                e += 1
                power *= self.t
        if e + _K0_PAD > _K0_MAX:
            raise SizeLimitError(f"energy-jump search depth k0 past the cap {_K0_MAX}")
        return e + _K0_PAD


def _series_bounds(a: int, b: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= ln(a/b) <= hi at 1 <= a/b <= 2, hi - lo within a few
    2^-64 of lo: ln(a/b) = sum_i 2 u^(2i+1)/(2i+1) at u = (a - b)/(a + b)
    <= 1/3, summed in integers at a scale 2^p that gives u 64 + 2 bits,
    rounding down for lo and up for hi.  It is cut once a power u^(2n+1) is
    2^-64 of the sum, and the tail past it is below 9 u^(2n+1)/(4(2n+1))."""
    p = 64 + 2 + (a + b).bit_length() - (a - b).bit_length()
    low, high = ((a - b) << p) // (a + b), -(-((a - b) << p) // (a + b))
    low_sq, high_sq = low * low >> p, -(-high * high >> p)
    lo = hi = 0
    i = 1
    while high << 64 > lo:
        lo, hi = lo + 2 * low // i, hi - (-2 * high // i)
        low, high, i = low * low_sq >> p, -(-high * high_sq >> p), i + 2
    return Fraction(lo, 1 << p), Fraction(hi - (-9 * high // (4 * i)), 1 << p)


_LN2 = _series_bounds(2, 1)


def _ln_bounds(q: Fraction) -> tuple[Fraction, Fraction]:
    """Rationals lo <= ln q <= hi for a rational q >= 1, hi - lo within a few
    2^-64 of lo: ln q = s ln 2 + ln(a/b) at q = 2^s a/b, 1 <= a/b < 2."""
    s = q.numerator.bit_length() - q.denominator.bit_length()
    a, b = (q.numerator, q.denominator << s) if s >= 0 else (q.numerator << -s, q.denominator)
    if a < b:
        s, a = s - 1, 2 * a
    lo, hi = _series_bounds(a, b)
    return s * _LN2[0] + lo, s * _LN2[1] + hi


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
class Piece:
    """A translate bohr + z of a Bohr set dense in B.  kind is "subgroup"
    (zeta loss 1) for the annihilator of Lambda on a 2-group, the Bohr set
    B(Lambda, 1/2), and "bohr" (zeta loss 2) otherwise; dim is |Lambda|, the
    codimension of a subgroup piece, and basis its echelon basis (None for
    a Bohr piece)."""

    kind: str
    bohr: BohrSet
    z: int
    density: Fraction
    basis: tuple[int, ...] | None = None

    @property
    def dim(self) -> int:
        return self.bohr.spec.d


@dataclass
class StructureResult:
    variant: LargeCoefficient | Piece
    achieved: Fraction
    guaranteed: Fraction
    records: list[CheckRecord] = field(default_factory=list)
    jump: EnergyJump | None = None
    witness_mode: str = ""
    diagnostics: dict = field(default_factory=dict)
    hypotheses: HypothesisReport | None = None  # as checked by the pipeline

    @property
    def kind(self) -> str:
        """The report name: SubspacePiece, BohrPiece or LargeCoefficient."""
        if isinstance(self.variant, Piece):
            return {"subgroup": "SubspacePiece", "bohr": "BohrPiece"}[self.variant.kind]
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


def _measure(A: GroupSet, B: GroupSet) -> tuple[int, Fraction, Fraction, Peak, int]:
    """What the hypotheses read off (A, B): |A+B|, K = |A+B|/|A|, K' = |A-A|/|A|, the peak and E(B)."""
    if A.group != B.group:
        raise ValueError("A and B must live on the same group")
    a = len(A)
    if a == 0 or len(B) == 0:
        raise ValueError("hypothesis check needs nonempty sets")
    s = sumset_size(A, B)
    return s, Fraction(s, a), Fraction(A.diff_size, a), A.peak, higher_energy(B, 2)


def check_hypotheses(A: GroupSet, B: GroupSet, params: StructureParams) -> HypothesisReport:
    """Evaluate every pipeline hypothesis exactly; reporting only.

    Core conditions (capacity of peak, energy, sumset, and the omega
    binding) gate the extraction guarantees; the m/m_prime/t windows are
    recorded as advisory context.  The peak capacity is checked with the
    upper end of the peak's enclosure, so it holds for the true peak.
    """
    s, k, k_prime, peak, eb = _measure(A, B)
    a, b, order = len(A), len(B), A.group.order
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


def derive_params(A: GroupSet, B: GroupSet) -> StructureParams:
    """The tightest parameters check_hypotheses' core conditions allow for
    (A, B): omega = |B|/|A|, and each capacity met with equality (m at least
    1/|A|, m' at least m), so they pass by construction.  zeta is 1/8, and t
    is 2 or the narrower t-window, which highly structured sets close almost
    to 1."""
    s, k, k_prime, peak, eb = _measure(A, B)
    a, b = len(A), len(B)
    m = max(Fraction(peak.hi) * k / a**2, Fraction(1, a))
    m_prime = max(Fraction(eb) * k_prime / b**3, m)
    kappa = Fraction(s * s, a * A.group.order)
    omega = Fraction(b, a)
    t_max = m_prime * (m + kappa) / omega
    t = t_max if 1 < t_max < 2 else Fraction(2)
    return StructureParams(m=m, m_prime=m_prime, kappa=kappa, zeta=Fraction(1, 8), t=t, omega=omega)


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
    jump = record_ge("energy jump", "structure:energy_jump", 0, 1,
                     note=f"k in [2, {k0}] with E_(k+1) >= |B| E_k / m_star")
    raise NoJump(
        jump, f"no energy jump in [2, {k0}] at m_star={m_star}; E_k table: {energies[:12]}...", energies, k0, m_star
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


def _check_phi_transform_sign(phi_hat: FunctionTable, err: float) -> None:
    """A correlation power is positive definite: its transform is real and
    >= 0.  Only a value the transform's proven error err cannot explain
    fails; the exact integer Walsh transform (err 0) is tested for a
    negative entry alone."""
    w = phi_hat.values
    if phi_hat.kind == "int":
        bad = np.flatnonzero(w < 0)
    else:
        bad = np.flatnonzero((w.real < -err) | (np.abs(w.imag) > err))
    if bad.size:
        raise AssertionError(f"transform of a correlation power went negative at {bad[:5].tolist()}")


@dataclass(frozen=True)
class _Front:
    """What the pipeline computes before it builds a piece: the hypotheses,
    the jump, phi_k and its transform, Spec_eps(phi) and the dissociated
    witness Lambda drawn from it."""

    params: StructureParams
    report: HypothesisReport
    jump: EnergyJump
    phi: FunctionTable
    phi_hat: FunctionTable
    eps: Fraction
    clamped: bool
    spec: Spectrum
    witness: DissociatedWitness


def _pipeline_front(A: GroupSet, B: GroupSet, params: StructureParams) -> _Front:
    report = check_hypotheses(A, B, params)
    if not report.core_ok:
        _gate(next(r for r in report.records if not r.ok))
    jump = find_energy_jump(B, params)
    phi = phi_k(B, jump.k)
    phi_hat = dft(phi)
    err = transform_error(phi)
    _check_phi_transform_sign(phi_hat, err)
    eps = params.zeta / params.m_star  # the spectrum threshold, clamped at 1
    clamped = eps > 1
    eps = min(eps, Fraction(1))
    spec = spectrum(phi, eps, fhat=phi_hat, err=err)
    witness = max_dissociated(B.group, weights=spec.weights)  # heaviest first, by one argmax per pick
    return _Front(params, report, jump, phi, phi_hat, eps, clamped, spec, witness)


def _codim_diagnostic(report: HypothesisReport, params: StructureParams) -> float:
    """The paper's codim (dim) bound, unasserted: inf, a vacuous bound, past the double range."""
    try:
        oz = float(params.omega * params.zeta)
        tmk = float(params.t) ** 2 * float(params.m + params.kappa) ** 2
        y = float(params.m_prime * (params.m + params.kappa) / params.omega)
        base = math.log(float(1 / report.delta * report.k_prime))
        cross = (math.log(y) / math.log(float(params.t))) * math.log(float((params.m + params.kappa) / params.omega))
        logs = max(base, 0.0) + max(cross, 0.0)
        return oz**-2 * tmk * logs if logs else 0.0
    except (OverflowError, ZeroDivisionError, ValueError):  # ValueError: the log of an underflowed 0.0
        return math.inf


def _density_floor(params: StructureParams, n: int, loss: int) -> Fraction:
    """(1 - loss zeta) omega n / (t (m+kappa)).  With n = |piece| this is
    the count the pipeline guarantees: a subspace loses one zeta, a Bohr
    set two."""
    return (1 - loss * params.zeta) * params.omega * n / (params.t * (params.m + params.kappa))


# The two records that certify a piece, by its zeta loss: 1 for a subspace
# L, 2 for a Bohr set.  The mass record reads sum_x |B intersect (P+x)|^2,
# over |L| for a subspace: its counts are constant on the cosets of L, so
# that quotient is the sum over L of (B o B).
_RECORDS = {
    1: (
        ("correlation mass on the subspace", "structure:corr_sum",
         "sum over L of (B o B); the certificate follows by pigeonhole"),
        ("subspace density certificate", "structure:density_subspace"),
    ),
    2: (
        ("translate energy of the Bohr piece", "structure:corr_sq_sum", "|B_*|={size}"),
        ("Bohr density certificate", "structure:density_bohr"),
    ),
}


def _annihilator(g: GroupSpec, lam: np.ndarray) -> tuple[BohrSet, tuple[int, ...]]:
    """The subgroup piece on a 2-group: the annihilator of Lambda, which is
    B(Lambda, 1/2), and its echelon basis (distinct leading bits, highest
    first), spanned from Lambda's nullspace."""
    basis = f2.echelon_basis(f2.nullspace_basis(lam.tolist(), g.rank))
    if len(basis) != g.rank - len(lam):
        raise AssertionError("annihilator dimension disagrees with the dissociated rank")
    members = GroupSet(g, np.sort(f2.subspace_elements(basis)))
    return BohrSet(make_bohr_spec(g, lam.tolist(), Fraction(1, 2)), members), tuple(basis)


def _paper_bohr(g: GroupSpec, lam: np.ndarray, params: StructureParams) -> tuple[BohrSet, dict]:
    """The Bohr piece: the regular Bohr set of Lambda at the paper's radius
    rho = c zeta / (m_star |Lambda|), c = _C_LOCAL, and the fields its
    attempt entry shows.  With Lambda empty that Bohr set is the whole
    group."""
    rho = _C_LOCAL * params.zeta / (params.m_star * max(len(lam), 1))
    shows = {"c_local": _C_LOCAL, "rho": rho, "sufficiency": None}
    if len(lam):
        spec = find_regular_radius(g, lam, min(rho, Fraction(1)))
        shows["sufficiency"] = record_le(
            "radius smallness for spectral alignment",
            "structure:radius_sufficient",
            2 * _PI_UPPER * len(lam) * max(spec.eps),
            params.zeta / 4,
            note="pi bounded above by 355/113",
        )
    else:
        spec = make_bohr_spec(g, (), ())
    return materialize(g, spec), shows


def _fail(record: CheckRecord, message: str, result: StructureResult, attempt: dict) -> NoReturn:
    """Raise a failed certificate on the piece of result with its trace: the
    jump order, Lambda (the piece's characters), the witness mode and the
    one attempt."""
    trace = {"k": result.jump.k, "lambda": list(result.variant.bohr.spec.gamma),
             "witness_mode": result.witness_mode, "attempts": [attempt]}
    raise CheckFailure(record, message=message, trace=trace)


def _extract(front: _Front, B: GroupSet, kind: str) -> StructureResult:
    """The certified piece of the front's witness, recounted once: a Piece
    of the given kind, with the diagnostics it reports.  The piece P passes
    when achieved = max_x |B intersect (P+x)| reaches the floor of its zeta
    loss (the key of _RECORDS) and its mass record holds; otherwise the
    failure is raised with its one attempt in the trace and the failed
    density record (or mass record).  A Bohr piece also reports its
    attempt, which holds the radius sufficiency record, and the span
    checks."""
    lam = front.witness.members
    if kind == "subgroup":
        bohr, basis = _annihilator(B.group, lam)
        shows, loss, word, per = {}, 1, "codim", len(bohr)
    else:
        bohr, shows = _paper_bohr(B.group, lam, front.params)
        basis, loss, word, per = None, 2, "dim", 1
    size, head = len(bohr), f"{word} {len(lam)}"
    counts = corr_counts(bohr.members, B)
    achieved, z = _argmax(counts)
    guaranteed = _density_floor(front.params, size, loss)
    (name, ref, note), density = _RECORDS[loss]
    energy = Fraction(power_sums(counts, 2)[0], per)
    records = [
        record_ge(name, ref, energy, guaranteed * len(B) * size / per, note=note.format(size=size)),
        record_ge(*density, Fraction(achieved), guaranteed, note=f"{head}, z={z}"),
    ]
    result = StructureResult(variant=Piece(kind, bohr, z, Fraction(achieved, size), basis),
                             achieved=Fraction(achieved), guaranteed=guaranteed, records=records,
                             jump=front.jump, witness_mode=front.witness.mode, hypotheses=front.report)
    attempt = {**shows, "size": size, "achieved": achieved, "guaranteed": guaranteed}
    failed = [r for r in records if not r.ok]
    if failed:
        _fail(failed[-1], f"the piece failed the direct count ({head})", result, attempt)
    result.diagnostics = {
        "eps_spectrum": front.eps,
        "eps_clamped": front.clamped,
        "spectrum_size": len(front.spec),
        f"{word}_bound": _codim_diagnostic(front.report, front.params),
        "chang": chang_bound(front.phi, front.spec, front.witness),
    }
    if shows:
        result.diagnostics["attempts"] = [attempt]
        result.diagnostics.update(_bohr_span_diagnostics(B, front))
    return result


def _bohr_span_diagnostics(B: GroupSet, front: _Front) -> dict:
    """Spectral-mass check over Span(Lambda), the span the witness search
    grew.  On a 2-group the span has 2^|Lambda| <= N members and the mass
    is an exact integer sum, so it always runs; elsewhere it is skipped
    past 3^|Lambda| > 2^16."""
    g = B.group
    witness = front.witness
    out = {}
    if not g.is_boolean_space and 3 ** len(witness) > 1 << 16:
        out["span_checks"] = "skipped (size)"
        return out
    members = witness.span.members
    floor = _density_floor(front.params, len(B) * front.jump.e_k * g.order, loss=1)
    phi_span = front.phi_hat.values[members]
    fhat_b = B.transform[members]
    if g.is_boolean_space:
        # phi_hat * |B_hat|^2 may pass 2^63: multiply as Python ints
        mass = int((phi_span.astype(object) * (fhat_b * fhat_b)).sum())
        out["spectral_mass"] = record_ge(
            "spectral mass on the span", "structure:spectral_mass", Fraction(mass), floor
        )
    else:
        # one array pass with the bits of the float sum the report has always
        # shown: each term is w * pow(m, 2.0) (float_power calls libm pow,
        # as Python's m**2 does, where np.power and m*m may round apart),
        # added in span order from 0.0 (add.accumulate, where np.sum pairs)
        terms = phi_span.real * np.float_power(magnitudes(fhat_b), 2.0)
        mass = float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])
        out["spectral_mass"] = record_ge(
            "spectral mass on the span", "structure:spectral_mass", mass, float(floor)
        )
    return out


def extract(A: GroupSet, B: GroupSet, params: StructureParams, *, bohr: bool = False) -> StructureResult:
    """The jump pipeline's one entry point: a translate of a piece dense in
    B, its kind decided by the group.

    On a 2-group the piece is the annihilator L of Lambda (kind
    "subgroup"), with |B intersect (L+z)| >= (1-zeta) omega |L| / (t
    (m+kappa)) asserted by direct count.  Elsewhere, or on a 2-group with
    bohr=True, it is the regular Bohr set B_* of Lambda at the paper's
    radius rho = c zeta / (m_star |Lambda|), c = 1/32 (kind "bohr"), with
    |B intersect (B_*+z)| >= (1-2 zeta) omega |B_*| / (t (m+kappa)) and
    the translate energy sum_x |B intersect (B_*+x)|^2 >= that floor times
    |B| |B_*| asserted by direct count; it needs zeta < 1/2, a ValueError
    before any work otherwise.  A failed count is raised with the piece's
    one attempt in its trace.
    """
    kind = "bohr" if bohr or not A.group.is_boolean_space else "subgroup"
    if kind == "bohr" and params.zeta >= Fraction(1, 2):
        raise ValueError("Bohr extraction needs zeta < 1/2")
    return _extract(_pipeline_front(A, B, params), B, kind)


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
    gate = _gate(record_le("smallness gate", "dichotomy:gate_2eps", 100 * k * k * delta, eps))
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
    result = extract(A, b, params)
    if result.variant.kind == "bohr":
        return _certify_bohr_branch(A, result, eps, gate)
    # on a 2-group -A = A, so the pipeline's count against b is the count
    # against A: result.achieved = |A intersect (L + z)| at the best z
    lset = result.variant.bohr
    cert, result.guaranteed = _majority(
        result, "majority-overlap certificate", result.achieved, len(lset), eps, f"z={result.variant.z}"
    )
    inclusion = _verify_difference_membership(A, lset.members, "dichotomy:inclusion_subspace")
    result.records.extend([gate, cert, inclusion])
    return result


def _majority(
    result: StructureResult, name: str, score: int | Fraction, size: int, eps: Fraction, note: str
) -> tuple[CheckRecord, Fraction]:
    """The 2-eps majority record, score >= (1/2 + eps/8) size, and that
    floor.  A failed count is raised with the trace of result's piece."""
    need = (Fraction(1, 2) + eps / 8) * size
    cert = record_ge(name, "dichotomy:half_plus", Fraction(score), need, note=note)
    if not cert.ok:
        _fail(cert, f"2-eps {name} failed the direct count ({note})", result,
              {"size": size, "achieved": score, "guaranteed": need})
    return cert, need


def _verify_difference_membership(A: GroupSet, piece: GroupSet, ref: str) -> CheckRecord:
    """require: the members of piece in A-A, those with (A o A)(x) > 0,
    are all of piece.  A failed record's note names the first few missing."""
    missing = piece.members[A.autocorr[piece.members] == 0].tolist()
    note = (f"{len(missing)} members are outside A-A (first few: {missing[:5]})" if missing
            else "every member has (A o A)(x) > 0")
    return require(record_eq("difference-set membership", ref, len(piece) - len(missing), len(piece), note=note))


def _certify_bohr_branch(A: GroupSet, result: StructureResult, eps: Fraction, gate: CheckRecord) -> StructureResult:
    g = A.group
    piece = result.variant
    spec_star = piece.bohr.spec
    steps = max(1, math.ceil(100 * spec_star.d / eps))
    eta = Fraction(1, 2 * steps)
    rhos = [Fraction(steps + j, 2 * steps) for j in range(steps + 1)]
    sizes = size_profile(g, spec_star, rhos)
    # the first slow step, |B_j| <= (1 + eps/4) |B_(j-1)|, compared in integers
    num, den = eps.numerator, eps.denominator
    chosen = next((j for j in range(1, steps + 1) if 4 * den * sizes[j] <= (4 * den + num) * sizes[j - 1]), None)
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
    cert, need = _majority(
        result, "two-dilate majority certificate", score, len(b_lo) + len(b_hi), eps, f"j={chosen} of {steps}, z={z}"
    )
    eta_set = materialize(g, dilate(spec_star, eta))
    inclusion = _verify_difference_membership(A, eta_set.members, "dichotomy:inclusion_bohr")
    final_spec = find_regular_radius(g, spec_star.gamma, tuple(eta * e for e in spec_star.eps))
    final = materialize(g, final_spec)
    if not np.isin(final.members.members, eta_set.members.members, assume_unique=True).all():
        raise AssertionError("regularized shrink left the verified dilate")
    final_inclusion = _verify_difference_membership(A, final.members, "dichotomy:inclusion_final")
    result.variant = Piece("bohr", final, z, Fraction(score, len(b_lo) + len(b_hi)))
    result.achieved, result.guaranteed = Fraction(score), need
    result.records.extend([gate, cert, inclusion, final_inclusion])
    result.diagnostics.update(eta=eta, chain_steps=steps, chain_j=chosen)
    return result


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
    if not any(np.isin(B_sub.members, S.members, assume_unique=True).all() for S in (A, A.neg())):
        raise ValueError("B_sub must be a subset of A or of -A")
    k = Fraction(A.diff_size, a)
    gate = _gate(record_le("smallness gate", "dichotomy:gate_M", 100 * k * k * a, g.order))
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
    result = extract(A, B_sub, params)
    eight_m = record_ge(
        "piece density vs omega/(8M)",
        "dichotomy:density_8M",
        result.achieved,
        params.omega * len(result.variant.bohr) / (8 * M),
        note=f"M={M}; with B_sub = A this is the 1/(8M) floor",
    )
    result.records.extend([gate, require(eight_m)])
    result.diagnostics["m"] = M
    if result.variant.kind == "subgroup" and B_sub == A:
        result.diagnostics["decomposition"] = _coset_decomposition(A, result.variant, M, result.records)
    return result


def _coset_decomposition(A: GroupSet, piece: Piece, M: Fraction, records: list[CheckRecord]) -> dict:
    """Cosets of the subspace L = B(Lambda, 1/2) of a subgroup piece holding
    at least |L|/(16M) points of A each.

    Asserts that these cosets cover at least |A|/(16M) points and that
    their count times |L| stays below 16M|A|.  The coset labels come from
    the piece's echelon basis; the label does not depend on which echelon
    basis, as its pivot set is L's own.
    """
    size = len(piece.bohr)
    _, labels = f2.reduce_in_basis(piece.basis, A.members)
    # |A intersect (L + z)| for every coset of L that meets A
    counts = np.unique(labels, return_counts=True)[1]
    a = len(A)
    sq_sum = power_sums(counts, 2)[0]
    records.append(require(record_ge("coset energy floor", "dichotomy:coset_energy", Fraction(sq_sum),
                                     Fraction(a * size, 1) / (8 * M), note="sum of squared coset counts")))
    cut = Fraction(size) / (16 * M)
    heavy = [c for c in counts.tolist() if c >= cut]
    covered = sum(heavy)
    records.append(require(record_ge("heavy-coset coverage", "dichotomy:coset_coverage", Fraction(covered),
                                     Fraction(a) / (16 * M))))
    records.append(require(record_le("heavy-coset count", "dichotomy:coset_count", len(heavy) * size, 16 * M * a)))
    return {"heavy_cosets": len(heavy), "covered": covered, "cut": cut}


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
        lifted = f2.subspace_elements(self.basis)[self.final_set.members] ^ self.translate
        return GroupSet(self.original.group, np.sort(lifted))  # the lift is one to one


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
        piece = extract(cur, cur, _m_params(m_exact, Fraction(1))).variant
        # L's echelon basis, as the piece carries it.  A zero-dimensional
        # piece is a single point; keep one spare direction so the quotient
        # stays a representable group (the kept density is then >= 1/2,
        # still past the doubling floor)
        lbasis = list(piece.basis) or [1]
        z = piece.z
        coords, rest = f2.reduce_in_basis(lbasis, cur.members ^ z)
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
                    note=f"codim {piece.dim}",
                )
            )
        )
        lift = f2.subspace_elements(basis)  # lift[c] has coordinates c in basis
        translate ^= int(lift[z])
        steps.append(
            RegularizationStep(
                codim=piece.dim,
                translate=translate,
                density_before=delta,
                density_after=density_after,
            )
        )
        basis = lift[lbasis].tolist()
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
