"""Command-line front end.

Subcommands: stats, spectrum, bohr, structure, example, verify.  Exit
codes: 0 success, 1 a checked inequality or certificate failed, 2 bad
configuration or input, 3 resource cap exceeded.

Allocator policy.  A structure run on F2^13..F2^16 allocates and frees a
dozen Walsh tables of 0.5-1 MiB.  Under glibc's default malloc thresholds
a freed table can be unmapped or trimmed back to the kernel and faulted
in afresh by the next allocation.  So main first raises glibc's mmap
threshold to 32 MiB and its trim threshold to 64 MiB, the ceilings
glibc's own dynamic thresholds would reach: freed blocks below 32 MiB
stay in the process heap, and larger ones (the tables at the 2^24
membership cap) are still returned to the kernel.  The saving grows with
the runs one process makes: on a planted F2^16 set, a single `addcomb
structure` command takes about 530 fewer minor faults (some 7040 ->
6500) and its structure step about 1.5 ms less, which the process's
start-up hides; a second run in the same process takes under 64 faults
where it took some 1500.  Both thresholds are set, or neither, since
setting one alone also stops glibc adjusting the other.  Without glibc's
mallopt (or where it refuses a value) nothing is set.  The policy is set
on the first call to main and lasts for the life of the process: any
process that calls addcomb.cli.main (the addcomb command, bench/run.py,
a program that embeds main) keeps it after main returns.  A
program that imports addcomb and never calls main leaves the allocator
as it finds it.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys
from fractions import Fraction

import numpy as np

from . import fileio, harness
from .bohr import RegularRadiusError, find_regular_radius, make_bohr_spec, materialize, regularity_test
from .groups import GroupMismatchError, SizeLimitError, format_group_text, parse_group_text
from .harmonic import dft
from .report import CheckFailure, format_value
from .setstat import profile
from .structure import HypothesisFailure, InclusionFailed, NoJump

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_memory() -> None:
    """Set glibc's malloc policy of the module docstring, once per process."""
    try:  # CDLL(None) is the running process: no library search, unlike ctypes.util
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no dlopen(NULL), or no mallopt: not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):  # 0: refused (glibc caps it at half its heap size)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _parse_fractions(text: str) -> list[Fraction]:
    try:
        return [Fraction(part) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise harness.ConfigError(f"bad fraction list {text!r}: {exc}") from None


def _parse_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _emit(report: harness.RunReport, out: str | None, summary: bool) -> int:
    if out:
        harness.write_report(report, out)
    if summary or not out:
        sys.stdout.write(report.summary_text())
    return EXIT_OK if report.ok else EXIT_CHECK


def _cmd_stats(args) -> int:
    A = fileio.read_set(args.setfile)
    prof = profile(A, energy_orders=_parse_ints(args.k))
    payload = {
        "group": format_group_text(A.group),
        "size": prof.size,
        "density": format_value(prof.density),
        "diff_size": prof.diff_size,
        "doubling": format_value(prof.doubling),
        "peak_sq": format_value(prof.peak.hi),
        "peak_char": prof.peak.arg,
        "energy": format_value(prof.energy),
        "higher": {str(k): format_value(v) for k, v in prof.higher.items()},
        "checks": [r.to_dict() for r in prof.checks],
        "diagnostics": [r.to_dict() for r in prof.diagnostics],
    }
    text = harness._dumps(payload) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if all(r.ok for r in prof.checks) else EXIT_CHECK


def _cmd_spectrum(args) -> int:
    table = fileio.read_table(args.file)
    # past the double range the float transform fails exactly: a value that
    # does not convert, or an entry that comes out infinite or nan
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out_table = dft(table)
    except OverflowError:
        raise harness.ConfigError(f"{args.file}: a value does not fit in a double") from None
    if out_table.kind == "complex" and not np.isfinite(out_table.values).all():
        raise harness.ConfigError(f"{args.file}: the transform leaves the double range")
    if args.out:
        fileio.write_function(args.out, out_table)
    else:
        sys.stdout.write(fileio.dump_function(out_table))
    return EXIT_OK


def _cmd_bohr(args) -> int:
    g = parse_group_text(args.group)
    gamma = _parse_ints(args.gamma)
    eps = _parse_fractions(args.eps)
    if args.regularize:
        spec = find_regular_radius(g, gamma, eps)
    else:
        spec = make_bohr_spec(g, gamma, eps)
    b = materialize(g, spec)
    verdict = regularity_test(b)
    payload = {
        "group": args.group,
        "gamma": list(spec.gamma),
        "radii": [format_value(e) for e in spec.eps],
        "size": len(b),
        "density": format_value(b.density),
        "regular": verdict.regular,
        "worst_margin": verdict.worst_margin,
        "note": verdict.note,
    }
    sys.stdout.write(harness._dumps(payload) + "\n")
    return EXIT_OK if verdict.regular or not args.regularize else EXIT_CHECK


def _cmd_structure(args) -> int:
    params = {}
    if args.params:
        with open(args.params, "r", encoding="utf-8") as fh:
            params = json.load(fh)
    sets = [{"kind": "file", "path": args.setfile}]
    if args.b:
        sets.append({"kind": "file", "path": args.b})
    cfg = harness.config_from_dict(
        {
            "kind": "structure",
            "name": args.setfile,
            "sets": sets,
            "pipeline": args.mode,
            "params": params,
        }
    )
    report = harness.run_structure(cfg)
    failure = report.results[0].get("failure")
    if failure:
        print(f"check failed: {failure['message']}", file=sys.stderr)
    return _emit(report, args.out, args.summary)


def _cmd_example(args) -> int:
    if args.family == "h-lambda":
        source = {"kind": "h-lambda", "n": args.n, "k": args.k, "lambda": getattr(args, "lambda")}
        if args.seed is not None:  # the source draws its Lambda from it
            source["seed"] = args.seed
    else:
        source = {"kind": "katz", "p": args.p, "d": args.d}
    cfg = harness.config_from_dict({"kind": "example", "name": args.family, "sets": [source]})
    report = harness.run_example(cfg)
    if args.set_out:
        with open(args.set_out, "w", encoding="ascii") as fh:
            fh.write(report.results[0]["set_text"])
    return _emit(report, args.out, args.summary)


def _cmd_verify(args) -> int:
    if args.config:
        configs = harness.load_configs(args.config)
    else:
        d: dict = {"kind": "verify", "name": "verify", "seed": args.seed}
        if args.suites is not None:
            d["suites"] = [s for s in args.suites.split(",") if s]
        if args.instances is not None:
            d["instances"] = args.instances
        if args.group:
            d["group"] = args.group
        configs = [harness.config_from_dict(d)]
    reports = harness.run_all(configs)
    codes = [_emit(report, cfg.output or args.out, args.summary) for cfg, report in zip(configs, reports)]
    return max(codes, default=EXIT_OK)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing only reads it."""
    parser = argparse.ArgumentParser(
        prog="addcomb",
        description="Exact additive-structure statistics and extraction pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="profile a set file")
    p.add_argument("setfile")
    p.add_argument("--k", default="2,3,4", help="energy orders, comma separated")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("spectrum", help="transform a set or function file")
    p.add_argument("file")
    p.add_argument("--out", default=None, help="write the transform as a function file")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("bohr", help="materialize a Bohr set and test regularity")
    p.add_argument("--group", required=True)
    p.add_argument("--gamma", required=True, help="frequencies, comma separated indices")
    p.add_argument("--eps", required=True, help="radii, comma separated fractions")
    p.add_argument("--regularize", action="store_true", help="search for a regular radius first")
    p.set_defaults(fn=_cmd_bohr)

    p = sub.add_parser("structure", help="run an extraction pipeline on a set file")
    p.add_argument("setfile")
    p.add_argument("--b", default=None, help="subset file (defaults to the set itself)")
    p.add_argument("--mode", default="auto", choices=["auto", "subspace", "bohr", "dichotomy"])
    p.add_argument("--params", default=None, help="JSON file of parameter overrides")
    p.add_argument("--out", default=None)
    p.add_argument("--summary", action="store_true")
    p.set_defaults(fn=_cmd_structure)

    p = sub.add_parser("example", help="generate and verify a worked example family")
    ex_sub = p.add_subparsers(dest="family", required=True)
    ph = ex_sub.add_parser("h-lambda")
    ph.add_argument("--n", type=int, required=True)
    ph.add_argument("--k", type=int, required=True)
    ph.add_argument("--lambda", dest="lambda", type=int, required=True)
    ph.add_argument("--seed", type=int, default=None)
    pk = ex_sub.add_parser("katz")
    pk.add_argument("--p", type=int, required=True)
    pk.add_argument("--d", type=int, required=True)
    for q in (ph, pk):
        q.add_argument("--set-out", default=None, help="write the generated set file here")
        q.add_argument("--out", default=None)
        q.add_argument("--summary", action="store_true")
        q.set_defaults(fn=_cmd_example)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--config", default=None, help="JSON config of experiments")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suites", default=None, help="comma separated suite names")
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--group", default=None, help="restrict suites to one group")
    p.add_argument("--out", default=None)
    p.add_argument("--summary", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CheckFailure, AssertionError, NoJump, InclusionFailed, HypothesisFailure, RegularRadiusError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except SizeLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (harness.ConfigError, fileio.FileFormatError, GroupMismatchError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
