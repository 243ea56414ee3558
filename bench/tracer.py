"""Outside-in tracer for the traced benchmark run.

The program has no trace of its own, so this module wraps it from the
outside: every public function of every package module becomes a span
(name, start, end, parent span, op id), replaced in every package namespace
that binds the same function object, and in module-level dicts that hold
it (the harness dispatches runners through one).  The scalar index methods
of GroupSpec run up to a million times per op, so they are only counted.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

MODULES = ("groups", "harmonic", "setstat", "f2", "spectral", "bohr", "structure",
           "harness", "families", "fileio", "report", "cli")
SCALAR_METHODS = ("add_index", "sub_index", "neg_index", "unindex")
OP_SPAN = "bench.op"


def _corr_key(args, kwargs, result):
    a = args[0]
    b = args[1] if len(args) > 1 else kwargs.get("B")
    if b is None:
        b = a
    return hash((a.group.factors, a.members, b.members))


# Extra per-call facts, taken after the span has ended.
PROBES = {
    "harmonic.wht_int": lambda args, kwargs, result: len(args[1]),
    "harmonic.dft": lambda args, kwargs, result: len(args[0].values),
    "setstat.corr_counts": _corr_key,
    "fileio.read_set": lambda args, kwargs, result: os.path.getsize(args[0]),
    "harness.write_report": lambda args, kwargs, result: os.path.getsize(args[1]),
    "spectral.max_dissociated": lambda args, kwargs, result: result.mode == "greedy",
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []  # (id, parent, name, start, end, op, info)
        self.op_id: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: list[Counter] = []
        self._patches: list[tuple] = []
        self._main_stack = self._stack()

    # -- per-thread state ---------------------------------------------------------

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _counter(self) -> Counter:
        try:
            return self._local.counter
        except AttributeError:
            self._local.counter = Counter()
            with self._lock:
                self._counters.append(self._local.counter)
            return self._local.counter

    def scalar_counts(self) -> Counter:
        total = Counter()
        for c in self._counters:
            total.update(c)
        return total

    # -- wrappers -----------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer, perf, probe = self, time.perf_counter, PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a pool thread starts with an empty stack; its work belongs to
            # whatever the main thread is waiting in
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else 0)
            sid = next(tracer._ids)
            stack.append(sid)
            result = info = None
            returned = False
            start = perf()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf()
                stack.pop()
                if probe is not None and returned:
                    info = probe(args, kwargs, result)
                tracer.spans.append((sid, parent, name, start, end, tracer.op_id, info))

        return traced

    def _count_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer._counter()[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def op(self, op_id: str):
        """Root span of one op; its self time is the benchmark's own glue."""
        self.op_id = op_id
        sid = next(self._ids)
        self._main_stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._main_stack.pop()
            self.spans.append((sid, 0, OP_SPAN, start, end, op_id, None))
            self.op_id = None

    # -- install / uninstall ------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap the package; returns the names of the traced functions."""
        pkg = self.package
        mods = {m: importlib.import_module(f"{pkg.__name__}.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj)):
                    continue
                wrappers[id(obj)] = (obj, self._span_wrapper(f"{short}.{attr}", obj))
        for ns in (pkg, *mods.values()):
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((ns, attr, obj, False))
                    setattr(ns, attr, wrappers[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers and wrappers[id(val)][0] is val:
                            self._patches.append((obj, key, val, True))
                            obj[key] = wrappers[id(val)][1]
        spec = mods["groups"].GroupSpec
        for name in SCALAR_METHODS:
            orig = vars(spec)[name]
            self._patches.append((spec, name, orig, False))
            setattr(spec, name, self._count_wrapper(name, orig))
        return sorted(f"{o.__module__.rsplit('.', 1)[1]}.{o.__name__}" for o, _ in wrappers.values())

    def uninstall(self) -> None:
        for owner, key, orig, is_item in reversed(self._patches):
            if is_item:
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()


# -- analysis -----------------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple]) -> tuple[dict[int, float], dict[str, float]]:
    """Self time of every span, and per-op accounting.

    A span's self time is its duration minus the part of it that its child
    spans cover.  Per op, the self times (the root span's self time is the
    benchmark's glue) add up to the op's wall time plus the overlap of child
    spans that ran at the same time on pool threads; the returned
    `accounting` maps each op to (sum of self times - overlap) / wall.
    """
    children: dict[int, list[tuple]] = defaultdict(list)
    for sp in spans:
        children[sp[1]].append(sp)
    selfs: dict[int, float] = {}
    overlap: dict[str, float] = defaultdict(float)
    for sid, _, _, start, end, op, _ in spans:
        kids = [(max(k[3], start), min(k[4], end)) for k in children.get(sid, ())]
        covered = _union_length([iv for iv in kids if iv[1] > iv[0]])
        selfs[sid] = (end - start) - covered
        overlap[op] += sum(e - s for s, e in kids if e > s) - covered
    sums: dict[str, float] = defaultdict(float)
    walls: dict[str, float] = {}
    for sid, parent, name, start, end, op, _ in spans:
        sums[op] += selfs[sid]
        if name == OP_SPAN:
            walls[op] = end - start
    accounting = {op: (sums[op] - overlap[op]) / wall for op, wall in walls.items() if wall > 0}
    return selfs, accounting


# -- per-layer metrics ------------------------------------------------------------

VECTOR_INDEX = ("groups.add_index_many", "groups.sub_index_many", "groups.neg_index_many",
                "groups.coords_table", "groups.xor_translate_mask")


def function_table(spans: list[tuple], selfs: dict[int, float]) -> dict[str, dict]:
    """calls and self seconds per traced function, over all ops."""
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for sid, _, name, *_ in spans:
        row = table[name]
        row["calls"] += 1
        row["self_s"] += selfs[sid]
    return dict(table)


def layer_metrics(tracer: Tracer, n_ops: int):
    """The per-layer metrics of the traced run, each averaged per op, with
    the per-function table and the per-op accounting of self_times()."""
    spans = tracer.spans
    selfs, accounting = self_times(spans)
    table = function_table(spans, selfs)
    per_op = 1.0 / n_ops

    def calls(*names):
        return sum(table.get(n, {}).get("calls", 0) for n in names) * per_op

    def self_s(*names):
        return sum(table.get(n, {}).get("self_s", 0.0) for n in names) * per_op

    def info_sum(name):
        return sum(sp[6] or 0 for sp in spans if sp[2] == name) * per_op

    out: dict[str, tuple[float, str]] = {}
    out["groups.scalar_calls"] = (sum(tracer.scalar_counts().values()) * per_op, "calls/op")
    out["groups.vector.calls"] = (calls(*VECTOR_INDEX), "calls/op")
    out["groups.vector.self_s"] = (self_s(*VECTOR_INDEX), "s/op")
    for fn in ("wht_int", "dft"):
        name = f"harmonic.{fn}"
        out[f"{name}.calls"] = (calls(name), "calls/op")
        out[f"{name}.self_s"] = (self_s(name), "s/op")
        out[f"{name}.elements"] = (info_sum(name), "elements/op")

    seen_by_op: dict[str, set] = defaultdict(set)
    repeats = total = 0
    for sp in spans:
        if sp[2] == "setstat.corr_counts" and sp[6] is not None:
            total += 1
            repeats += sp[6] in seen_by_op[sp[5]]
            seen_by_op[sp[5]].add(sp[6])
    out["setstat.corr_counts.calls"] = (calls("setstat.corr_counts"), "calls/op")
    out["setstat.corr_counts.self_s"] = (self_s("setstat.corr_counts"), "s/op")
    out["setstat.corr_counts.repeat_ratio"] = (repeats / total if total else 0.0, "ratio")
    out["setstat.sumset.calls"] = (calls("setstat.sumset"), "calls/op")
    out["setstat.sumset.self_s"] = (self_s("setstat.sumset", "setstat.difference_set"), "s/op")
    out["setstat.peak_coefficient.self_s"] = (self_s("setstat.peak_coefficient"), "s/op")
    out["setstat.higher_energy.calls"] = (calls("setstat.higher_energy"), "calls/op")
    out["setstat.higher_energy.self_s"] = (self_s("setstat.higher_energy"), "s/op")
    out["setstat.profile.self_s"] = (self_s("setstat.profile"), "s/op")

    f2_names = [n for n in table if n.startswith("f2.")]
    out["f2.calls"] = (calls(*f2_names), "calls/op")
    out["f2.self_s"] = (self_s(*f2_names), "s/op")

    out["spectral.spectrum.calls"] = (calls("spectral.spectrum"), "calls/op")
    out["spectral.spectrum.self_s"] = (self_s("spectral.spectrum"), "s/op")
    md = "spectral.max_dissociated"
    out[f"{md}.calls"] = (calls(md), "calls/op")
    out[f"{md}.self_s"] = (self_s(md), "s/op")
    greedy = [bool(sp[6]) for sp in spans if sp[2] == md]
    out[f"{md}.greedy_ratio"] = (sum(greedy) / len(greedy) if greedy else 0.0, "ratio")
    out["spectral.chang_bound.self_s"] = (self_s("spectral.chang_bound"), "s/op")

    for fn in ("find_regular_radius", "materialize", "regularity_test"):
        out[f"bohr.{fn}.calls"] = (calls(f"bohr.{fn}"), "calls/op")
        out[f"bohr.{fn}.self_s"] = (self_s(f"bohr.{fn}"), "s/op")

    out["structure.check_hypotheses.calls"] = (calls("structure.check_hypotheses"), "calls/op")
    for fn in ("check_hypotheses", "find_energy_jump", "phi_k", "extract_subspace",
               "extract_bohr", "dichotomy_M"):
        out[f"structure.{fn}.self_s"] = (self_s(f"structure.{fn}"), "s/op")

    for fn in ("derive_params", "run_structure", "run_verify", "run_example"):
        out[f"harness.{fn}.self_s"] = (self_s(f"harness.{fn}"), "s/op")
    run_all = {sp[0]: sp[4] - sp[3] for sp in spans if sp[2] == "harness.run_all"}
    wall = sum(run_all.values())
    child = sum(sp[4] - sp[3] for sp in spans if sp[1] in run_all)
    out["harness.run_all.wall_s"] = (wall * per_op, "s/op")
    out["harness.run_all.child_sum_s"] = (child * per_op, "s/op")
    out["harness.run_all.speedup"] = (child / wall if wall else 0.0, "ratio")

    for fn in ("verify_h_lambda", "verify_katz_bound", "make_h_lambda"):
        out[f"families.{fn}.self_s"] = (self_s(f"families.{fn}"), "s/op")

    out["fileio.read_set.calls"] = (calls("fileio.read_set"), "calls/op")
    out["fileio.read_set.self_s"] = (self_s("fileio.read_set"), "s/op")
    out["fileio.read_set.bytes"] = (info_sum("fileio.read_set"), "B/op")
    out["harness.write_report.self_s"] = (self_s("harness.write_report"), "s/op")
    out["harness.write_report.bytes"] = (info_sum("harness.write_report"), "B/op")
    out["cli.main.self_s"] = (self_s("cli.main"), "s/op")
    return out, table, accounting
