"""Experiment orchestration: run configs, verification suites, reports.

A config is JSON: either one experiment object or {"experiments": [...]}.
Each experiment carries a kind ("verify" | "structure" | "example"), set
sources, parameter overrides, and a seed (mandatory whenever a randomized
generator or suite is requested).  Every value a config, a set source or
a parameter file gives is read by one typed reader, _take, which refuses
a value of the wrong type (a float or a bool where an integer belongs)
rather than coerce it.  Reports serialize to JSON with timings kept out
of the body, so identical config + seed gives a byte-identical body.

A structure run's pipeline is auto (the group's piece; its mode reads
"subspace" on a 2-group), bohr or dichotomy; its parameters are
structure.derive_params with the config's overrides put in.

Each verify suite is declared once, by its @_suite line: its name, the
groups it runs on in turn by default, and its least group order.  Every
suite draws all of a group's instances first, as one setstat.SetStack
checked once, and checks them in one stacked call, the checks' only entry
points: energy-bound and katz-koester pair its even and odd sets
(sets[0::2], sets[1::2]), and triangle takes every fourth set as an X or
a Z (see setstat).  bohr-size counts every Bohr set it needs on one
integer phase pass over the group (bohr.size_bound_stack).

The checks draw nothing: each suite draws all the sets of a group in one
array pass (_draw_subsets), first the size of every set, then the members
of every set, and the bohr-size characters likewise.  Integers come from
rng.randbytes words by rejection, never by a modulo, and a set's repeated
members are drawn again, so every set is uniform over the subsets of its
size, and the cost follows the members drawn, not the group order.
Parseval draws each block of tables, the whole table whenever it fits a
block, in one call.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import fileio
from .bohr import make_bohr_spec, size_bound_stack
from .families import (
    FiniteField,
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
from .harmonic import dft_columns, magnitudes, power_sums, transform_errors, wht_int_columns
from .report import CheckFailure, CheckRecord, format_value, record_eq
from .setstat import (
    GroupSet,
    SetStack,
    column_blocks,
    energy_difference_bounds,
    group_set,
    higher_energies,
    katz_koester_stack,
    profile,
    triangle_stack,
)
from .spectral import ChangReport
from .structure import (
    StructureParams,
    StructureResult,
    derive_params,
    dichotomy_M,
    extract,
)

SCHEMA = "addcomb-report/1"


class _Suite(NamedTuple):
    check: Callable[[random.Random, "RunConfig", GroupSpec], list[CheckRecord]]  # one group's records
    groups: tuple[GroupSpec, ...]  # run in turn unless the config names a group
    min_order: Callable[[int], int]  # the least group order it can draw on, given the instance count


_SUITES: dict[str, _Suite] = {}  # in the order the suites run by default

PIPELINES = ("auto", "bohr", "dichotomy")  # auto: the group's own piece; bohr: a Bohr piece on any group


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
    suites: tuple[str, ...] = field(default_factory=lambda: tuple(_SUITES))
    instances: int = 25
    seed: int | float | str | None = None
    output: str | None = None

    def to_dict(self) -> dict:
        """The fields in declaration order, the group as text and the suites as a list."""
        out = {key: getattr(self, key) for key in _CONFIG_KEYS}
        out["group"] = format_group_text(self.group) if self.group else None
        out["suites"] = list(self.suites)
        return out


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


_MISSING = object()

# each kind of configured value: the JSON types it is read from (a bool is
# never a number), the words an error names it by, and its reader
_KINDS: dict[str, tuple[tuple[type, ...], str, Callable]] = {
    "int": ((int, str), "an integer", int),
    "rational": ((int, float, str), 'a rational (an integer, a float or "p/q" text)', Fraction),
    "str": ((str,), "a string", str),
    "group": ((str,), "a group such as 'Z4xZ6'", parse_group_text),
    "ints": ((str,), "a comma list of integers", lambda text: [int(p) for p in text.split(",") if p.strip()]),
    "rationals": ((str,), "a comma list of rationals", lambda text: [Fraction(p) for p in text.split(",") if p.strip()]),
    "list": ((list, tuple), "a list", list),
    "dict": ((dict,), "an object", dict),
    "seed": ((int, float, str), "a number or a string", lambda value: value),  # what random.Random takes
}


def _take(d: dict, key: str, kind: str, where: str = "", default=_MISSING):
    """Pop d[key] and read it as a value of `kind` (see _KINDS); a kind
    ending in "?" also takes null, as None.  A missing key gives default;
    with no default, or a value of the wrong type, it is a ConfigError that
    names the key (inside `where`, when given).  A group past the caps
    raises SizeLimitError."""
    if key not in d:
        if default is _MISSING:
            raise ConfigError(f"{where or 'config'} missing field {key!r}")
        return default
    value = d.pop(key)
    if value is None and kind.endswith("?"):
        return None
    kind = kind.rstrip("?")
    types, what, read = _KINDS[kind]
    name = f"{where}: {key}" if where else key
    why = ""
    if isinstance(value, types) and not isinstance(value, bool):
        try:
            return read(value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            why = f" ({exc})" if kind == "group" else ""
    raise ConfigError(f"{name} must be {what}, got {value!r}{why}")


def config_from_dict(d: dict) -> RunConfig:
    d = dict(d)
    cfg = RunConfig(
        kind=_take(d, "kind", "str", default="verify"),
        name=_take(d, "name", "str", default="run"),
        group=_take(d, "group", "group?", default=None),
        sets=_take(d, "sets", "list", default=[]),
        pipeline=_take(d, "pipeline", "str", default="auto"),
        params=_take(d, "params", "dict", default={}),
        suites=tuple(_take(d, "suites", "list", default=_SUITES)),
        instances=_take(d, "instances", "int", default=25),
        seed=_take(d, "seed", "seed?", default=None),
        output=_take(d, "output", "str?", default=None),
    )
    if d:
        raise ConfigError(f"unknown config keys: {sorted(d)}")
    kind, group = cfg.kind, cfg.group
    if kind not in _RUNNERS:
        raise ConfigError(f"unknown run kind {kind!r}")
    if cfg.pipeline not in PIPELINES:
        raise ConfigError(f"unknown pipeline {cfg.pipeline!r}; known: {list(PIPELINES)}")
    if not all(isinstance(s, str) for s in cfg.suites):
        raise ConfigError(f"suites must be a list of suite names, got {list(cfg.suites)!r}")
    bad = [s for s in cfg.suites if s not in _SUITES]
    if kind == "verify" and bad:
        raise ConfigError(f"unknown suites: {bad}; known: {sorted(_SUITES)}")
    if cfg.instances < 0:
        raise ConfigError("instances must be nonnegative")
    if kind == "verify" and group is not None:
        for s in cfg.suites:
            need = _SUITES[s].min_order(cfg.instances)
            if group.order < need:
                raise ConfigError(
                    f"suite {s} needs a group of order at least {need}, "
                    f"got {format_group_text(group)} of order {group.order}"
                )
    if not all(isinstance(s, dict) for s in cfg.sets):
        raise ConfigError(f"sets must be a list of set-source objects, got {cfg.sets!r}")
    randomized = (kind == "verify" and bool(cfg.suites)) or any(
        s.get("kind") in ("random", "planted") for s in cfg.sets
    )
    if randomized and cfg.seed is None:
        raise ConfigError("seed is mandatory for randomized runs")
    return cfg


def read_json(path: str):
    """The JSON value in the file at path; an unreadable file or malformed
    JSON is a ConfigError that names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_configs(path: str) -> list[RunConfig]:
    data = read_json(path)
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
        configs.append(config_from_dict({**shared, **item}))
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        raise ConfigError(f"{path}: duplicate experiment names")
    return configs


# -- set sources ---------------------------------------------------------------


def realize_source(
    source: dict, default_group: GroupSpec | None, seed: int | float | str | None
) -> tuple[str, GroupSet, HLambdaSpec | FiniteField | None]:
    """The labelled set a set-source object describes, and the HLambdaSpec
    or FiniteField an h-lambda or katz set is built from (None for other
    kinds).  A missing field, or one of the wrong type, raises ConfigError."""
    opts = dict(source)
    kind = opts.pop("kind", None)
    where = f"set source {kind!r}"
    if kind in ("literal", "random"):
        g = _take(opts, "group", "group", where, default_group)
        if g is None:
            raise ConfigError(f"{where} needs a group")
    if kind in ("random", "planted") and seed is None:
        raise ConfigError(f"{where} needs a seed")

    recipe = None
    if kind == "file":
        path = _take(opts, "path", "str", where)
        A = fileio.read_set(path, expect_group=default_group)
        label = f"file:{path}"
    elif kind == "literal":
        members = _take(opts, "members", "list", where)
        tuples = bool(members) and isinstance(members[0], (list, tuple))
        seen: set[int] = set()
        for m in members:
            if tuples != isinstance(m, (list, tuple)) or any(type(c) is not int for c in (m if tuples else [m])):
                raise ConfigError(f"{where}: member {m!r} is not an integer index or a list of integer coordinates")
            fits = len(m) == g.rank and all(0 <= c < n for c, n in zip(m, g.factors)) if tuples else 0 <= m < g.order
            if not fits:
                raise ConfigError(f"{where}: member {m!r} is out of range for {format_group_text(g)}")
            if (index := g.index(tuple(m)) if tuples else m) in seen:
                raise ConfigError(f"{where}: member {m!r} is listed twice")
            seen.add(index)
        A = group_set(g, seen)
        label = f"literal[{len(A)}]"
    elif kind == "random":
        size = _take(opts, "size", "int", where)
        A = make_random_set(g, size, seed)
        label = f"random[{size}]"
    elif kind == "subgroup":
        n = _take(opts, "n", "int", where)
        dim = _take(opts, "dim", "int", where)
        if not 0 <= dim <= n:
            raise ConfigError(f"subgroup dim {dim} out of range for n={n}")
        A = group_set(boolean_group(n), range(1 << dim))
        label = f"subgroup[{n},{dim}]"
    elif kind == "planted":
        n = _take(opts, "n", "int", where)
        inst = make_planted(
            boolean_group(n),
            subgroup_dim=_take(opts, "dim", "int", where),
            cosets=_take(opts, "cosets", "int", where),
            noise=_take(opts, "noise", "int", where, 0),
            seed=seed,
        )
        A = inst.set
        label = f"planted[{n}]"
    elif kind == "h-lambda":
        n, k, lam = (_take(opts, key, "int", where) for key in ("n", "k", "lambda"))
        try:  # HLambdaSpec's checks of the three sizes
            recipe = HLambdaSpec(n=n, k=k, lambda_size=lam)
        except ValueError as exc:
            raise ConfigError(f"{where} with n={n}, k={k}, lambda={lam}: {exc}") from None
        A = make_h_lambda(recipe, seed=_take(opts, "seed", "seed?", where, None))
        label = f"h-lambda[{n},{k},{lam}]"
    elif kind == "katz":
        p, d = (_take(opts, key, "int", where) for key in ("p", "d"))
        try:  # a prime p, and d >= 2 so that the set is defined
            recipe = make_finite_field(p, d)
            A = make_katz_set(recipe)
        except ValueError as exc:
            raise ConfigError(f"{where} with p={p}, d={d}: {exc}") from None
        label = f"katz[{p},{d}]"
    else:
        raise ConfigError(f"unknown set source kind {kind!r}")
    if opts:
        raise ConfigError(f"{where}: unused fields {sorted(opts)}")
    return label, A, recipe


# -- reports -------------------------------------------------------------------


_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _level(depth: int):
    """The C encoder that writes a container at `depth` as the stdlib's
    indent-2 text does, save the line breaks after its opening bracket and
    before its closing one; with its item separator and that closing break."""
    sep = ",\n" + "  " * (depth + 1)
    enc = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                         None, ": ", sep, True, False, True)
    return enc, sep, "\n" + "  " * depth


def _encode(obj, depth: int) -> str:
    enc, sep, close = _level(depth)
    if not isinstance(obj, _CONTAINERS) or not obj:  # a scalar, {} or []
        return "".join(enc(obj, 0))
    is_dict = isinstance(obj, dict)
    inner = {}
    # most containers hold plain scalars only, told apart without a Python loop
    if not _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
        pairs = obj.items() if is_dict else enumerate(obj)
        inner = {k: v for k, v in pairs if isinstance(v, _CONTAINERS) and v}
    if not inner:
        text = "".join(enc(obj, 0))
    else:
        # the nonempty containers inside stand as 0 in one C call; no
        # encoded scalar holds a line break, so the separator splits the
        # items apart, a dict's in sorted key order
        if is_dict:
            flat = {k: 0 if k in inner else v for k, v in obj.items()}
        else:
            flat = [0 if i in inner else v for i, v in enumerate(obj)]
        text = "".join(enc(flat, 0))
        items = text[1:-1].split(sep)
        for i, k in enumerate(sorted(obj) if is_dict else range(len(obj))):
            if k in inner:
                items[i] = items[i][:-1] + _encode(inner[k], depth + 1)
        text = text[0] + sep.join(items) + text[-1]
    return text[0] + sep[1:] + text[1:-1] + close + text[-1]


def _dumps(obj) -> str:
    """The stdlib's JSON text of obj with indent=2 and sort_keys=True, byte
    for byte.  The stdlib takes its pure-Python encoder whenever indent is
    set; here each container is one call of the C encoder, and only the
    containers nested in containers are walked in Python."""
    if c_make_encoder is None:
        return json.dumps(obj, indent=2, sort_keys=True)  # a Python built without _json
    return _encode(obj, 0)


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

    def to_json(self) -> str:
        full = self.body_dict()
        full["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
        return _dumps(full) + "\n"

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
            "e_k": format_value(res.jump.e_k),
            "e_next": format_value(res.jump.e_next),
            "m_star": format_value(res.jump.m_star),
            "k0": res.jump.k0,
        }
    w = res.variant
    if res.kind == "LargeCoefficient":
        out["witness"] = {"x": w.x, "value": format_value(w.value)}
        return out
    out["witness"] = {"z": w.z, "size": len(w.bohr), "density": format_value(w.density)}
    if w.kind == "subgroup":
        out["witness"] |= {"codim": w.dim, "members": w.bohr.members.members.tolist()}
    else:
        out["witness"] |= {
            "dim": w.dim,
            "gamma": list(w.bohr.spec.gamma),
            "radii": [format_value(e) for e in w.bohr.spec.eps],
            "size_ratio": format_value(w.bohr.density),
        }
    return out


# -- parameter overrides -------------------------------------------------------


def _overrides(given: dict, names: Sequence[str]) -> dict[str, Fraction]:
    """The parameter overrides of a config, each named in names and read as
    a rational; any other key is a ConfigError."""
    rest = dict(given)
    values = {key: _take(rest, key, "rational", "params") for key in names if key in rest}
    if rest:
        raise ConfigError(f"unknown parameter overrides: {sorted(rest)}")
    return values


def build_params(overrides: dict, A: GroupSet, B: GroupSet) -> StructureParams:
    """derive_params with the overrides put in; omega is |B|/|A|, a fact of the input, never one."""
    values = _overrides(overrides, ("m", "m_prime", "kappa", "zeta", "t"))
    try:
        return replace(derive_params(A, B), **values)
    except ValueError as exc:
        raise ConfigError(f"bad structure parameters: {exc}") from None


# -- verification suites -------------------------------------------------------


def _suite(name: str, groups: Sequence[str], min_order: int | Callable[[int], int] = 2):
    def deco(fn):
        least = min_order if callable(min_order) else lambda instances: min_order
        _SUITES[name] = _Suite(fn, tuple(map(parse_group_text, groups)), least)
        return fn

    return deco


def _draw_below(rng: random.Random, count: int, n: int) -> np.ndarray:
    """count independent ints uniform in range(n), 1 <= n <= 2^32, as an
    int64 array: little-endian uint32 words from rng.randbytes, masked to
    the bits of n - 1.  A masked word at or past n is rejected and drawn
    again (at most half of them are), so no value is favoured."""
    if count and n < 1:
        raise ValueError(f"no value to draw in range({n})")
    mask = (1 << (n - 1).bit_length()) - 1
    kept = np.empty(0, dtype=np.int64)
    while kept.size < count:
        words = np.frombuffer(rng.randbytes(4 * (count - kept.size)), dtype="<u4") & mask
        kept = np.concatenate((kept, words[words < n].astype(np.int64)))
    return kept


def _draw_subsets(rng: random.Random, g: GroupSpec, sizes: np.ndarray, n: int | None = None) -> SetStack:
    """For each k of sizes, a k-subset of range(n), n <= |g| (|g| if None),
    uniform over all of them: the stack of the sets on g, in one array pass.

    A set of k <= n / 2 members is drawn; a larger one is the complement
    of a drawn set of n - k.  Member j of drawn set i is the key i * n +
    value.  Every set starts as its size in uniform draws (_draw_below);
    each round sorts the keys once, keeps the distinct ones and draws each
    set's missing members again, until every set is full.  A round looks
    at the values only through which of them are equal, so the law of each
    set is invariant under every permutation of range(n): it is uniform.
    A draw of m <= n / 2 members takes fewer than 2m values in expectation
    (each is new with probability above 1/2), so the cost follows the
    members, never the number of sets times n.  The sorted keys are the
    stack: key i * n + v is member v of set i."""
    n = g.order if n is None else n
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size and sizes.max() > n:
        raise ValueError(f"cannot draw {sizes.max()} distinct elements of {n}")
    flip = 2 * sizes > n
    drawn = np.where(flip, n - sizes, sizes)
    sets = np.arange(len(sizes))
    keys = np.empty(0, dtype=np.int64)
    missing = drawn
    while missing.any():
        owners = np.repeat(sets, missing)
        keys = np.sort(np.concatenate((keys, owners * n + _draw_below(rng, owners.size, n))))
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        missing = drawn - np.bincount(keys // n, minlength=len(sizes))
    if flip.any():  # a flipped set's keys give way to the other keys of its run of n
        keys = np.setxor1d(keys, (np.flatnonzero(flip)[:, None] * n + np.arange(n)).ravel(), assume_unique=True)
    return SetStack(g, keys % n, np.searchsorted(keys, np.arange(len(sizes) + 1) * n))


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


@_suite("parseval", ("F2^8", "Z24", "Z101", "Z4xZ6"))
def _parseval_suite(rng: random.Random, cfg: RunConfig, g: GroupSpec) -> list[CheckRecord]:
    mismatches = 0
    worst = 0.0
    instances = range(cfg.instances)
    for block in column_blocks(len(instances), g.order):
        table = _draw_table(rng, g.order, len(instances[block]))
        lhs = g.order * (table * table).sum(axis=0)  # N * sum v^2 <= 64 N^2
        if g.is_boolean_space:
            # every entry is at most the L1 norm 8N in magnitude
            rhs = power_sums(np.abs(wht_int_columns(g, table, 8 * g.order)), 2)[0]
            mismatches += sum(l != r for l, r in zip(lhs.tolist(), rhs))
            continue
        mags = magnitudes(dft_columns(g, table))
        squares = (mags * mags).T  # one column of Python floats at a time
        for sq, lhs_j, bound in zip(squares, lhs.tolist(), transform_errors(g, table).tolist()):
            rhs_j = math.fsum(sq.tolist())
            worst = max(worst, abs(lhs_j - rhs_j) / max(lhs_j, 1.0))
            # both sides are squared 2-norms of the transform, and the
            # computed one is within transform_error of the exact one
            if abs(math.sqrt(rhs_j) - math.sqrt(lhs_j)) > bound:
                mismatches += 1
    note = f"{cfg.instances} tables on {format_group_text(g)}"
    if not g.is_boolean_space:
        note += f", worst rel err {worst:.3e}"
    return [record_eq("energy identity", "parseval", mismatches, 0, note=note)]


@_suite("triangle", ("Z15", "F2^5"), min_order=4)  # families of up to 4 distinct members
def _triangle_suite(rng: random.Random, cfg: RunConfig, g: GroupSpec) -> list[CheckRecord]:
    # sets 4i..4i+3 are instance i's W, Y, X and Z, 1 to 4 members each
    fams = _draw_subsets(rng, g, 1 + _draw_below(rng, 4 * cfg.instances, 4))
    lhs, rhs = triangle_stack(fams[0::4], fams[1::4], fams[2::4], fams[3::4])
    failures = int((lhs > rhs).sum())
    worst = min((Fraction(r, l) for l, r in zip(lhs.tolist(), rhs.tolist()) if l), default=None)
    note = f"{cfg.instances} tuple families on {format_group_text(g)}, min margin {worst}"
    return [record_eq("tuple-count triangle", "triangle:count", failures, 0, note=note)]


@_suite("energy-bound", ("Z24", "F2^8"))
def _energy_suite(rng: random.Random, cfg: RunConfig, g: GroupSpec) -> list[CheckRecord]:
    sets = _draw_subsets(rng, g, 2 + _draw_below(rng, 2 * cfg.instances, max(3, g.order // 4) - 2))
    reports = energy_difference_bounds(sets[0::2], sets[1::2], [2 + (i % 2) for i in range(cfg.instances)])
    failures = sum(not rep.holds for rep in reports)
    note = f"{cfg.instances} pairs on {format_group_text(g)}, k in 2..3"
    return [record_eq("energy floor from differences", "energy:k_floor", failures, 0, note=note)]


# from 10 instances on, the second instance draws two distinct nonzero characters
@_suite("bohr-size", ("Z101", "Z60"), min_order=lambda instances: 3 if instances >= 10 else 2)
def _bohr_suite(rng: random.Random, cfg: RunConfig, g: GroupSpec) -> list[CheckRecord]:
    # instance i: 1 + i % 2 nonzero characters, each with a radius k/16
    # for k in 1..8, and one more character with radius 1/4
    count = max(1, cfg.instances // 5)
    dims = np.array([(1 + i % 2, 1) for i in range(count)]).ravel()
    chars = [(1 + c).tolist() for c in _draw_subsets(rng, g, dims, g.order - 1)]
    radii = iter((1 + _draw_below(rng, int(dims[0::2].sum()), 8)).tolist())
    return size_bound_stack(g, [
        (make_bohr_spec(g, gamma, [Fraction(next(radii), 16) for _ in gamma]),
         make_bohr_spec(g, other, [Fraction(1, 4)]))
        for gamma, other in zip(chars[0::2], chars[1::2])
    ])


@_suite("katz-koester", ("Z30",), min_order=6)  # sizes in range(2, N // 2), nonempty from N = 6
def _kk_suite(rng: random.Random, cfg: RunConfig, g: GroupSpec) -> list[CheckRecord]:
    sets = _draw_subsets(rng, g, 2 + _draw_below(rng, 2 * cfg.instances, g.order // 2 - 2))
    rows = katz_koester_stack(sets[0::2], sets[1::2])
    failures = sum(int((~r.holds).sum()) for r in rows)
    displacements = sum(len(r.xs) for r in rows)
    note = f"{displacements} displacements over {cfg.instances} pairs on {format_group_text(g)}"
    return [record_eq("slice sum containment", "inclusion:katz-koester", failures, 0, note=note)]


@_suite("energy-mono", ("Z24", "F2^6"))
def _energy_mono_suite(rng: random.Random, cfg: RunConfig, g: GroupSpec) -> list[CheckRecord]:
    sets = _draw_subsets(rng, g, 2 + _draw_below(rng, cfg.instances, max(3, g.order // 2) - 2))
    convex_fail = 0
    cap_fail = 0
    for size, e in zip(sets.sizes.tolist(), higher_energies(sets, 6)):
        for k in range(3, 6):
            if e[k - 1] * e[k + 1] < e[k] ** 2:
                convex_fail += 1
            if e[k + 1] > size * e[k]:
                cap_fail += 1
    note = f"{cfg.instances} sets on {format_group_text(g)}, orders 2..6"
    return [
        record_eq("energy log-convexity", "energy:log_convex", convex_fail, 0, note=note),
        record_eq("energy growth cap", "energy:growth_cap", cap_fail, 0, note=note),
    ]


# -- runners -------------------------------------------------------------------


def run_verify(cfg: RunConfig) -> RunReport:
    """Run the configured suites; the report is complete even on failure.

    A CheckFailure raised inside a suite lands in the records as its failed
    record, in place of the suite's other records, and stops that suite
    only; the caller turns report.ok into the exit status.
    """
    if cfg.kind != "verify":
        raise ConfigError(f"run_verify got kind {cfg.kind!r}")
    report = RunReport(config=cfg.to_dict())
    for suite in cfg.suites:
        check, groups, _ = _SUITES[suite]
        if cfg.group is not None:
            groups = (cfg.group,)
        rng = random.Random(f"{cfg.seed}:{suite}")
        started = time.perf_counter()
        try:
            report.add_records([r for g in groups for r in check(rng, cfg, g)])
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
    label_a, A, _ = realize_source(cfg.sets[0], cfg.group, cfg.seed)
    if len(cfg.sets) > 1:
        label_b, B, _ = realize_source(cfg.sets[1], A.group, cfg.seed)
    else:
        label_b, B = label_a, A
    if len(A) == 0 or len(B) == 0:
        raise ConfigError("structure run needs nonempty sets")

    started = time.perf_counter()
    mode = cfg.pipeline
    if mode == "auto":
        mode = "subspace" if A.group.is_boolean_space else "bohr"
    # the bounds are for dense subsets of A; the dichotomy also takes B inside -A
    hosts = (A, A.neg()) if mode == "dichotomy" and B is not A else (A,)
    if B is not A and not any(np.isin(B.members, S.members, assume_unique=True).all() for S in hosts):
        raise ConfigError(f"B ({label_b}) is not a subset of A ({label_a}){' or of -A' if len(hosts) > 1 else ''}")
    A.group.require_transform()  # every pipeline and the profile read A's transform
    res = hyp = failure = None
    try:
        if mode == "dichotomy":
            res = dichotomy_M(A, M=_overrides(cfg.params, ["m"]).get("m"), B_sub=B)
        else:
            params = build_params(cfg.params, A, B)
            res = extract(A, B, params, bohr=mode == "bohr")
            hyp = res.hypotheses
    except CheckFailure as exc:
        # a failed check (a gate, hypothesis, certificate, jump search or
        # radius search) is a result: the report keeps its record (and a
        # certificate's trace), and report.ok carries it to the exit status
        report.records.append(exc.record.to_dict())
        if exc.trace is not None:
            failure = {"message": str(exc), **_jsonable(exc.trace)}
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
        "energies": {str(k): format_value(v) for k, v in prof.higher.items()},
        "result": structure_result_dict(res) if res is not None else None,
    }
    if failure is not None:
        entry["failure"] = failure
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
        if kind not in ("h-lambda", "katz"):
            raise ConfigError(f"example source must be h-lambda or katz, got {kind!r}")
        started = time.perf_counter()
        label, A, recipe = realize_source(source, None, cfg.seed)
        entry = {"family": label, "set_text": fileio.dump_set(A)}
        if kind == "h-lambda":
            rep = verify_h_lambda(A, recipe)
            entry["ratios"] = [[k, format_value(r)] for k, r in rep.ratios]
            entry["alignment"] = {str(k): [format_value(lo), format_value(hi)]
                                  for k, (lo, hi) in rep.phi_alignment.items()}
        else:
            rep = verify_katz_bound(A, recipe)
            entry.update(peak_sq=format_value(rep.peak_sq), bound_sq=format_value(rep.bound_sq),
                         modulus=list(recipe.modulus), generator=list(recipe.generator))
        report.add_records(rep.records)
        report.timings[label] = time.perf_counter() - started
        report.results.append(entry)
    return report


_RUNNERS = {"verify": run_verify, "structure": run_structure, "example": run_example}


def run_config(cfg: RunConfig) -> RunReport:
    return _RUNNERS[cfg.kind](cfg)


def run_all(configs: Sequence[RunConfig]) -> list[RunReport]:
    """Run experiments one after another (threads would only contend for the
    GIL); reports come back in config order."""
    return [run_config(c) for c in configs]


def write_report(report: RunReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
