"""Experiment orchestration: run configs, verification suites, reports.

A config is JSON: either one experiment object or {"experiments": [...]}.
Each experiment carries a kind ("verify" | "structure" | "example"), set
sources, parameter overrides, and a seed (mandatory whenever a randomized
generator or suite is requested).  Reports serialize to JSON with timings
kept out of the body, so identical config + seed gives a byte-identical
body.

The counting suites (parseval, energy-bound, katz-koester, energy-mono)
draw all their instances first and then check them as stacks: the
instances of a group are the columns of one table, transformed once per
block, and each instance's records are read off its column (see setstat).
Their checks draw nothing, so the draws come in the order a one-instance
loop would take them.  Parseval draws each block of tables, the whole
table whenever it fits a block, in one call.
"""

from __future__ import annotations

import json
import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import fileio
from .bohr import check_size_bounds, make_bohr_spec, materialize
from .families import (
    HLambdaSpec,
    make_finite_field,
    make_h_lambda,
    make_katz_set,
    make_planted,
    make_random_set,
    verify_h_lambda,
    verify_katz_bound,
)
from .groups import GroupSpec, boolean_group, format_group_text, parse_group_text
from .harmonic import dft_columns, magnitudes, transform_errors, wht_int_columns
from .report import CheckFailure, CheckRecord, format_value, record_eq
from .setstat import (
    GroupSet,
    check_generalized_triangle,
    column_blocks,
    energy_difference_bounds,
    group_set,
    higher_energies,
    higher_energy,
    katz_koester_stack,
    profile,
    sumset_size,
)
from .spectral import ChangReport
from .structure import (
    HypothesisFailure,
    StructureParams,
    StructureResult,
    dichotomy_M,
    extract_bohr,
    extract_subspace,
)

SCHEMA = "addcomb-report/1"

_SUITES: dict[str, Callable[[random.Random, "RunConfig"], list[CheckRecord]]] = {}
DEFAULT_SUITES = (
    "parseval",
    "triangle",
    "energy-bound",
    "bohr-size",
    "katz-koester",
    "energy-mono",
)


class ConfigError(ValueError):
    """Unusable run configuration."""


@dataclass
class RunConfig:
    kind: str = "verify"
    name: str = "run"
    group: GroupSpec | None = None
    sets: list[dict] = field(default_factory=list)
    pipeline: str = "auto"
    params: dict = field(default_factory=dict)
    suites: tuple[str, ...] = DEFAULT_SUITES
    instances: int = 25
    seed: int | None = None
    output: str | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "group": format_group_text(self.group) if self.group else None,
            "sets": self.sets,
            "pipeline": self.pipeline,
            "params": self.params,
            "suites": list(self.suites),
            "instances": self.instances,
            "seed": self.seed,
            "output": self.output,
        }


_CONFIG_KEYS = {
    "kind", "name", "group", "sets", "pipeline", "params",
    "suites", "instances", "seed", "output",
}


def config_from_dict(d: dict) -> RunConfig:
    unknown = set(d) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kind = d.get("kind", "verify")
    if kind not in ("verify", "structure", "example"):
        raise ConfigError(f"unknown run kind {kind!r}")
    group = None
    if d.get("group"):
        try:
            group = parse_group_text(d["group"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    suites = tuple(d.get("suites", DEFAULT_SUITES))
    bad = [s for s in suites if s not in _SUITES]
    if kind == "verify" and bad:
        raise ConfigError(f"unknown suites: {bad}; known: {sorted(_SUITES)}")
    cfg = RunConfig(
        kind=kind,
        name=str(d.get("name", "run")),
        group=group,
        sets=list(d.get("sets", [])),
        pipeline=str(d.get("pipeline", "auto")),
        params=dict(d.get("params", {})),
        suites=suites,
        instances=int(d.get("instances", 25)),
        seed=d.get("seed"),
        output=d.get("output"),
    )
    if cfg.instances < 0:
        raise ConfigError("instances must be nonnegative")
    randomized = (kind == "verify" and bool(cfg.suites)) or any(
        s.get("kind") in ("random", "planted") for s in cfg.sets
    )
    if randomized and cfg.seed is None:
        raise ConfigError("seed is mandatory for randomized runs")
    return cfg


def load_configs(path: str) -> list[RunConfig]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if isinstance(data, dict) and "experiments" in data:
        items = data["experiments"]
        shared = {k: v for k, v in data.items() if k != "experiments"}
    elif isinstance(data, dict):
        items, shared = [data], {}
    else:
        raise ConfigError(f"{path}: top level must be an object")
    if not isinstance(items, list):
        raise ConfigError(f"{path}: experiments must be a list")
    configs = []
    for item in items:
        if not isinstance(item, dict):
            raise ConfigError(f"{path}: each experiment must be an object")
        merged = dict(shared)
        merged.update(item)
        configs.append(config_from_dict(merged))
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        raise ConfigError(f"{path}: duplicate experiment names")
    return configs


# -- set sources ---------------------------------------------------------------


def realize_source(source: dict, default_group: GroupSpec | None, seed: int | None) -> tuple[str, GroupSet]:
    kind = source.get("kind")
    opts = {k: v for k, v in source.items() if k != "kind"}

    def _group(required: bool = True) -> GroupSpec | None:
        if "group" in opts:
            return parse_group_text(opts.pop("group"))
        if default_group is None and required:
            raise ConfigError(f"set source {kind!r} needs a group")
        return default_group

    def _need_seed() -> int:
        if seed is None:
            raise ConfigError(f"set source {kind!r} needs a seed")
        return seed

    try:
        if kind == "file":
            path = opts.pop("path")
            A = fileio.read_set(path, expect_group=default_group)
            label = f"file:{path}"
        elif kind == "literal":
            g = _group()
            members = opts.pop("members")
            if members and isinstance(members[0], (list, tuple)):
                members = [g.index(tuple(m)) for m in members]
            A = group_set(g, members)
            label = f"literal[{len(A)}]"
        elif kind == "random":
            g = _group()
            size = int(opts.pop("size"))
            A = make_random_set(g, size, _need_seed())
            label = f"random[{size}]"
        elif kind == "subgroup":
            n = int(opts.pop("n"))
            dim = int(opts.pop("dim"))
            if not 0 <= dim <= n:
                raise ConfigError(f"subgroup dim {dim} out of range for n={n}")
            A = group_set(boolean_group(n), range(1 << dim))
            label = f"subgroup[{n},{dim}]"
        elif kind == "planted":
            n = int(opts.pop("n"))
            inst = make_planted(
                boolean_group(n),
                subgroup_dim=int(opts.pop("dim")),
                cosets=int(opts.pop("cosets")),
                noise=int(opts.pop("noise", 0)),
                seed=_need_seed(),
            )
            A = inst.set
            label = f"planted[{n}]"
        elif kind == "h-lambda":
            spec = HLambdaSpec(
                n=int(opts.pop("n")), k=int(opts.pop("k")), lambda_size=int(opts.pop("lambda"))
            )
            A = make_h_lambda(spec, seed=opts.pop("seed", None))
            label = f"h-lambda[{spec.n},{spec.k},{spec.lambda_size}]"
        elif kind == "katz":
            fld = make_finite_field(int(opts.pop("p")), int(opts.pop("d")))
            A = make_katz_set(fld)
            label = f"katz[{fld.p},{fld.d}]"
        else:
            raise ConfigError(f"unknown set source kind {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"set source {kind!r} missing field {exc}") from None
    if opts:
        raise ConfigError(f"set source {kind!r}: unused fields {sorted(opts)}")
    return label, A


# -- reports -------------------------------------------------------------------


@dataclass
class RunReport:
    config: dict
    records: list[dict] = field(default_factory=list)
    results: list[dict] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    schema: str = SCHEMA

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.records)

    def add_records(self, records: Sequence[CheckRecord]) -> None:
        self.records.extend(r.to_dict() for r in records)

    def body_dict(self) -> dict:
        return {
            "schema": self.schema,
            "config": self.config,
            "ok": self.ok,
            "records": self.records,
            "results": self.results,
        }

    def body_text(self) -> str:
        return json.dumps(self.body_dict(), indent=2, sort_keys=True) + "\n"

    def to_json(self) -> str:
        full = self.body_dict()
        full["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
        return json.dumps(full, indent=2, sort_keys=True) + "\n"

    def summary_text(self) -> str:
        lines = [f"run {self.config.get('name', '?')} ({self.config.get('kind', '?')})"]
        for r in self.records:
            status = "pass" if r["ok"] else "FAIL"
            note = f"  # {r['note']}" if r.get("note") else ""
            lines.append(f"  {status} {r['name']} [{r['ref']}]: {r['lhs']} vs {r['rhs']}{note}")
        passed = sum(1 for r in self.records if r["ok"])
        lines.append(f"  {passed}/{len(self.records)} checks passed")
        return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, (Fraction, float)):
        return format_value(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, CheckRecord):
        return value.to_dict()
    if isinstance(value, ChangReport):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)


def structure_result_dict(res: StructureResult) -> dict:
    out: dict = {
        "kind": res.kind,
        "achieved": format_value(res.achieved),
        "guaranteed": format_value(res.guaranteed),
        "witness_mode": res.witness_mode,
        "records": [r.to_dict() for r in res.records],
        "diagnostics": _jsonable(res.diagnostics),
    }
    if res.jump is not None:
        out["jump"] = {
            "k": res.jump.k,
            "e_k": str(res.jump.e_k),
            "e_next": str(res.jump.e_next),
            "m_star": format_value(res.jump.m_star),
            "k0": res.jump.k0,
        }
    w = res.variant
    if res.kind == "LargeCoefficient":
        out["witness"] = {"x": w.x, "value": format_value(w.value)}
    elif res.kind == "SubspacePiece":
        out["witness"] = {
            "z": w.z,
            "codim": w.codim,
            "size": len(w.subspace),
            "density": format_value(w.density),
            "members": w.subspace.members.tolist() if len(w.subspace) <= 4096 else None,
        }
    elif res.kind == "BohrPiece":
        out["witness"] = {
            "z": w.z,
            "dim": w.dim,
            "size": len(w.bohr),
            "density": format_value(w.density),
            "gamma": list(w.bohr.spec.gamma),
            "radii": [format_value(e) for e in w.bohr.spec.eps],
            "size_ratio": format_value(w.size_ratio),
        }
    return out


# -- parameter derivation ------------------------------------------------------


def derive_params(
    A: GroupSet,
    B: GroupSet,
    *,
    zeta: Fraction = Fraction(1, 8),
    t: Fraction = Fraction(2),
) -> StructureParams:
    """Tightest parameters the capacity hypotheses allow for this (A, B).

    m, m', kappa are set to the exact attained ratios, m from the upper end
    of the peak's enclosure, so check_hypotheses passes by construction and
    the guarantees are as strong as the data permits.
    """
    g = A.group
    a, b, order = len(A), len(B), g.order
    s = sumset_size(A, B)
    k = Fraction(s, a)
    k_prime = Fraction(A.diff_size, a)
    m = max(Fraction(A.peak.hi) * k / a**2, Fraction(1, a))
    eb = higher_energy(B, 2)
    m_prime = max(Fraction(eb) * k_prime / b**3, m)
    kappa = Fraction(s * s, a * order)
    omega = Fraction(b, a)
    # highly structured sets close the t-window almost to 1; stay inside it
    t_max = m_prime * (m + kappa) / omega
    if 1 < t_max < t:
        t = t_max
    return StructureParams(
        m=m, m_prime=m_prime, kappa=kappa, zeta=zeta, t=t, omega=omega
    )


def build_params(overrides: dict, A: GroupSet, B: GroupSet) -> StructureParams:
    known = {"m", "m_prime", "kappa", "zeta", "t", "omega", "c_local", "k0_pad", "c_chang"}
    unknown = set(overrides) - known
    if unknown:
        raise ConfigError(f"unknown parameter overrides: {sorted(unknown)}")
    zeta = Fraction(overrides["zeta"]) if "zeta" in overrides else Fraction(1, 8)
    t = Fraction(overrides["t"]) if "t" in overrides else Fraction(2)
    base = derive_params(A, B, zeta=zeta, t=t)
    fields = {
        "m": base.m,
        "m_prime": base.m_prime,
        "kappa": base.kappa,
        "zeta": base.zeta,
        "t": base.t,
        "omega": base.omega,
        "c_local": base.c_local,
        "k0_pad": base.k0_pad,
        "c_chang": base.c_chang,
    }
    for key, raw in overrides.items():
        fields[key] = int(raw) if key == "k0_pad" else Fraction(raw)
    try:
        return StructureParams(**fields)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad structure parameters: {exc}") from None


# -- verification suites -------------------------------------------------------


def _suite(name: str):
    def deco(fn):
        _SUITES[name] = fn
        return fn

    return deco


def _suite_groups(cfg: RunConfig, default: Sequence[str]) -> list[GroupSpec]:
    if cfg.group is not None:
        return [cfg.group]
    return [parse_group_text(t) for t in default]


def _random_subset(rng: random.Random, g: GroupSpec, size: int) -> GroupSet:
    return GroupSet(g, np.sort(rng.sample(range(g.order), size)))  # the draws are distinct


def _draw_table(rng: random.Random, order: int, width: int) -> np.ndarray:
    """An (order, width) int64 table of values uniform in -8..8, drawn
    column after column in one rng.randbytes call: a byte below 255 =
    15 * 17 reads as byte % 17 - 8, and rejected bytes are drawn again."""
    need = order * width
    kept = np.empty(0, dtype=np.uint8)
    while kept.size < need:
        raw = np.frombuffer(rng.randbytes(need - kept.size), dtype=np.uint8)
        kept = np.concatenate((kept, raw[raw < 255]))
    return np.ascontiguousarray((kept.astype(np.int64) % 17 - 8).reshape(width, order).T)


@_suite("parseval")
def _parseval_suite(rng: random.Random, cfg: RunConfig) -> list[CheckRecord]:
    records = []
    for g in _suite_groups(cfg, ("F2^8", "Z24", "Z101", "Z4xZ6")):
        mismatches = 0
        worst = 0.0
        instances = range(cfg.instances)
        for block in column_blocks(len(instances), g.order):
            table = _draw_table(rng, g.order, len(instances[block]))
            lhs = g.order * (table * table).sum(axis=0)  # N * sum v^2 <= 64 N^2
            if g.is_boolean_space:
                spectrum = wht_int_columns(g, table)
                # every entry is at most the L1 norm 8N, so the sum of the
                # squares is at most 64 N^3: int64 up to N = 2^18
                if 64 * g.order**3 >= 1 << 63:
                    spectrum = spectrum.astype(object)
                mismatches += int((lhs != (spectrum * spectrum).sum(axis=0)).sum())
                continue
            mags = magnitudes(dft_columns(g, table))
            for j, (lhs_j, bound) in enumerate(zip(lhs.tolist(), transform_errors(g, table).tolist())):
                rhs_j = math.fsum(m * m for m in mags[:, j].tolist())
                worst = max(worst, abs(lhs_j - rhs_j) / max(lhs_j, 1.0))
                # both sides are squared 2-norms of the transform, and the
                # computed one is within transform_error of the exact one
                if abs(math.sqrt(rhs_j) - math.sqrt(lhs_j)) > bound:
                    mismatches += 1
        note = f"{cfg.instances} tables on {format_group_text(g)}"
        if not g.is_boolean_space:
            note += f", worst rel err {worst:.3e}"
        records.append(record_eq("energy identity", "parseval", mismatches, 0, note=note))
    return records


@_suite("triangle")
def _triangle_suite(rng: random.Random, cfg: RunConfig) -> list[CheckRecord]:
    records = []
    for g in _suite_groups(cfg, ("Z15", "F2^5")):
        failures = 0
        worst: Fraction | None = None
        for _ in range(cfg.instances):
            pick = lambda lo, hi: rng.sample(range(g.order), rng.randrange(lo, hi + 1))
            W = [(x,) for x in pick(1, 4)]
            Y = [(x,) for x in pick(1, 4)]
            X = pick(1, 4)
            Z = pick(1, 4)
            rep = check_generalized_triangle(g, W, Y, X, Z)
            if not rep.holds:
                failures += 1
            if rep.margin is not None:
                worst = rep.margin if worst is None else min(worst, rep.margin)
        note = f"{cfg.instances} tuple families on {format_group_text(g)}, min margin {worst}"
        records.append(record_eq("tuple-count triangle", "triangle:count", failures, 0, note=note))
    return records


@_suite("energy-bound")
def _energy_suite(rng: random.Random, cfg: RunConfig) -> list[CheckRecord]:
    records = []
    for g in _suite_groups(cfg, ("Z24", "F2^8")):
        pairs = [
            (_random_subset(rng, g, rng.randrange(2, max(3, g.order // 4))),
             _random_subset(rng, g, rng.randrange(2, max(3, g.order // 4))))
            for _ in range(cfg.instances)
        ]
        reports = energy_difference_bounds(pairs, [2 + (i % 2) for i in range(cfg.instances)])
        failures = sum(not rep.holds for rep in reports)
        note = f"{cfg.instances} pairs on {format_group_text(g)}, k in 2..3"
        records.append(record_eq("energy floor from differences", "energy:k_floor", failures, 0, note=note))
    return records


@_suite("bohr-size")
def _bohr_suite(rng: random.Random, cfg: RunConfig) -> list[CheckRecord]:
    records = []
    for g in _suite_groups(cfg, ("Z101", "Z60")):
        pool = list(range(1, g.order))
        for i in range(max(1, cfg.instances // 5)):
            d = 1 + (i % 2)
            gamma = rng.sample(pool, d)
            eps = [Fraction(rng.randrange(1, 9), 16) for _ in range(d)]
            spec = make_bohr_spec(g, gamma, eps)
            b = materialize(g, spec)
            other = materialize(g, make_bohr_spec(g, rng.sample(pool, 1), [Fraction(1, 4)]))
            records.extend(check_size_bounds(b, others=[other]))
    return records


@_suite("katz-koester")
def _kk_suite(rng: random.Random, cfg: RunConfig) -> list[CheckRecord]:
    records = []
    for g in _suite_groups(cfg, ("Z30",)):
        pairs = [
            (_random_subset(rng, g, rng.randrange(2, g.order // 2)),
             _random_subset(rng, g, rng.randrange(2, g.order // 2)))
            for _ in range(cfg.instances)
        ]
        rows = katz_koester_stack(pairs)
        failures = sum(int((~r.holds).sum()) for r in rows)
        displacements = sum(len(r.xs) for r in rows)
        note = f"{displacements} displacements over {cfg.instances} pairs on {format_group_text(g)}"
        records.append(record_eq("slice sum containment", "inclusion:katz-koester", failures, 0, note=note))
    return records


@_suite("energy-mono")
def _energy_mono_suite(rng: random.Random, cfg: RunConfig) -> list[CheckRecord]:
    records = []
    for g in _suite_groups(cfg, ("Z24", "F2^6")):
        sets = [_random_subset(rng, g, rng.randrange(2, max(3, g.order // 2))) for _ in range(cfg.instances)]
        convex_fail = 0
        cap_fail = 0
        for A, e in zip(sets, higher_energies(sets, 6)):
            for k in range(3, 6):
                if e[k - 1] * e[k + 1] < e[k] ** 2:
                    convex_fail += 1
                if e[k + 1] > len(A) * e[k]:
                    cap_fail += 1
        note = f"{cfg.instances} sets on {format_group_text(g)}, orders 2..6"
        records.append(record_eq("energy log-convexity", "energy:log_convex", convex_fail, 0, note=note))
        records.append(record_eq("energy growth cap", "energy:growth_cap", cap_fail, 0, note=note))
    return records


# -- runners -------------------------------------------------------------------


def run_verify(cfg: RunConfig) -> RunReport:
    """Run the configured suites; the report is complete even on failure.

    A tripped hard assertion inside a suite lands in the records with its
    anchor and stops that suite only; the caller turns report.ok into the
    exit status.
    """
    if cfg.kind != "verify":
        raise ConfigError(f"run_verify got kind {cfg.kind!r}")
    report = RunReport(config=cfg.to_dict())
    for suite in cfg.suites:
        rng = random.Random(f"{cfg.seed}:{suite}")
        started = time.perf_counter()
        try:
            report.add_records(_SUITES[suite](rng, cfg))
        except CheckFailure as exc:
            report.records.append(exc.record.to_dict())
        report.timings[suite] = time.perf_counter() - started
    return report


def run_structure(cfg: RunConfig) -> RunReport:
    if cfg.kind != "structure":
        raise ConfigError(f"run_structure got kind {cfg.kind!r}")
    if not cfg.sets:
        raise ConfigError("structure run needs at least one set source")
    report = RunReport(config=cfg.to_dict())
    label_a, A = realize_source(cfg.sets[0], cfg.group, cfg.seed)
    if len(cfg.sets) > 1:
        label_b, B = realize_source(cfg.sets[1], A.group, cfg.seed)
    else:
        label_b, B = label_a, A
    if len(A) == 0 or len(B) == 0:
        raise ConfigError("structure run needs nonempty sets")

    started = time.perf_counter()
    mode = cfg.pipeline
    if mode == "auto":
        mode = "subspace" if A.group.is_boolean_space else "bohr"
    if mode not in ("subspace", "bohr", "dichotomy"):
        raise ConfigError(f"unknown pipeline {mode!r}")
    res = hyp = None
    try:
        if mode == "dichotomy":
            m_override = cfg.params.get("m")
            res = dichotomy_M(A, M=Fraction(m_override) if m_override else None, B_sub=B)
        else:
            params = build_params(cfg.params, A, B)
            res = (extract_subspace if mode == "subspace" else extract_bohr)(A, B, params)
            hyp = res.hypotheses
    except (CheckFailure, HypothesisFailure) as exc:
        # a failed gate or hypothesis is a result: the report keeps its
        # record, and report.ok carries the failure to the exit status
        report.records.append(exc.record.to_dict())
    report.timings["structure"] = time.perf_counter() - started

    prof = profile(A, energy_orders=(2, 3, 4))
    entry = {
        "set": label_a,
        "subset": label_b,
        "mode": mode,
        "group": format_group_text(A.group),
        "size": len(A),
        "diff_size": prof.diff_size,
        "doubling": format_value(prof.doubling),
        "peak_sq": format_value(prof.peak.hi),
        "energies": {str(k): str(v) for k, v in prof.higher.items()},
        "result": structure_result_dict(res) if res is not None else None,
    }
    if hyp is not None:
        entry["hypotheses"] = {
            "core_ok": hyp.core_ok,
            "records": [r.to_dict() for r in hyp.records],
        }
        report.add_records(hyp.records)
    if res is not None:
        report.add_records(res.records)
    report.results.append(entry)
    return report


def run_example(cfg: RunConfig) -> RunReport:
    if cfg.kind != "example":
        raise ConfigError(f"run_example got kind {cfg.kind!r}")
    if not cfg.sets:
        raise ConfigError("example run needs a set source (h-lambda or katz)")
    report = RunReport(config=cfg.to_dict())
    for source in cfg.sets:
        kind = source.get("kind")
        started = time.perf_counter()
        if kind == "h-lambda":
            label, A = realize_source(source, None, cfg.seed)
            spec = HLambdaSpec(
                n=int(source["n"]), k=int(source["k"]), lambda_size=int(source["lambda"])
            )
            rep = verify_h_lambda(A, spec)
            report.add_records(rep.records)
            entry = {
                "family": label,
                "set_text": fileio.dump_set(A),
                "ratios": [[k, format_value(r)] for k, r in rep.ratios],
                "alignment": {
                    str(k): [format_value(lo), format_value(hi)]
                    for k, (lo, hi) in rep.phi_alignment.items()
                },
            }
        elif kind == "katz":
            fld = make_finite_field(int(source["p"]), int(source["d"]))
            A = make_katz_set(fld)
            rep = verify_katz_bound(A, fld)
            report.add_records(rep.records)
            entry = {
                "family": f"katz[{fld.p},{fld.d}]",
                "set_text": fileio.dump_set(A),
                "peak_sq": format_value(rep.peak_sq),
                "bound_sq": str(rep.bound_sq),
                "modulus": list(fld.modulus),
                "generator": list(fld.generator),
            }
        else:
            raise ConfigError(f"example source must be h-lambda or katz, got {kind!r}")
        report.timings[entry["family"]] = time.perf_counter() - started
        report.results.append(entry)
    return report


_RUNNERS = {"verify": run_verify, "structure": run_structure, "example": run_example}


def run_config(cfg: RunConfig) -> RunReport:
    return _RUNNERS[cfg.kind](cfg)


def run_all(configs: Sequence[RunConfig]) -> list[RunReport]:
    """Run experiments concurrently; reports come back in config order."""
    if len(configs) <= 1:
        return [run_config(c) for c in configs]
    with ThreadPoolExecutor(max_workers=min(8, len(configs))) as pool:
        return list(pool.map(run_config, configs))


def write_report(report: RunReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
