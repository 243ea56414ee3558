#!/usr/bin/env python3
"""Benchmark of the addcomb command line on seeded workloads.

    python3 bench/run.py --workload structure-f2 --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12 --trace 0

Run it from the root of a source checkout; the package is imported from
./src.  Each op is one `addcomb.cli.main` call, made in-process the way a
user types the command.  Every op runs twice: once in the timed phase and
once more (traced, with --trace 1) for the determinism digest; then every
certificate is recounted by oracle.py.  The last line of standard output
is one JSON object: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  A results file with every metric, per-op record
and the provenance goes to .bench_runs/.  See bench/README.md.

Every time among the end-to-end metrics is speed-normalised: the wall
time measured, times REFERENCE_LOOP_S over the mean time of the
calibration loop below right before and right after it.  On a shared
host the CPU speed swings by up to 2x within seconds, and the loop moves
with it.
"""

import time

CALIBRATION_ITERS = 60_000
REFERENCE_LOOP_S = 0.008  # the loop's time on a 2-vCPU x86 VM in its fast state


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: how fast the CPU runs now."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(CALIBRATION_ITERS):
        acc += (i * i) % 7
        table[i & 1023] = acc
    return time.perf_counter() - start


SETUP_CALIBRATION = calibration_loop()
PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

RESULTS_DIR = ".bench_runs"
SETUP_REPEATS = 5  # setup_s is the median of this process and four fresh ones
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Certificate figures; 0 stands for "no such certificate in this workload".
QUALITY_UNITS = {"vacuous_ratio": "ratio", "piece_log2_size_mean": "log2_points",
                 "exact_witness_ratio": "ratio", "bohr_attempts_mean": "attempts"}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def pin_threads() -> dict:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    cap = nproc()
    for var in BLAS_VARS:
        try:
            wanted = int(os.environ.get(var, cap))
        except ValueError:
            wanted = cap
        os.environ[var] = str(max(1, min(wanted, cap)))
    return {var: os.environ[var] for var in BLAS_VARS}


def import_package():
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "addcomb", "__init__.py")):
        raise BenchError("no src/addcomb here; run from the root of an addcomb checkout")
    sys.path.insert(0, src)
    import addcomb
    import addcomb.cli

    if not os.path.abspath(addcomb.__file__).startswith(src + os.sep):
        raise BenchError(f"imported addcomb from {addcomb.__file__}, not from ./src")
    return addcomb


# -- ops ----------------------------------------------------------------------------


def run_op(pkg, op):
    """One CLI call: (exit code, wall seconds, captured output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = time.perf_counter()
        try:
            code = pkg.cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed op; the run goes on
            code = "exception"
            out.write(traceback.format_exc())
        latency = time.perf_counter() - start
    return code, latency, out.getvalue()


def run_phase(pkg, ops, tracer=None):
    """(exit code, wall seconds, output) per op, and each op's normalised seconds.

    The calibration loop runs between consecutive ops, outside their
    timing; an op's speed factor uses the loops on either side of it.
    """
    records, loops = [], [calibration_loop()]
    for op in ops:
        if tracer is None:
            records.append(run_op(pkg, op))
        else:
            with tracer.op(op.op_id):
                records.append(run_op(pkg, op))
        loops.append(calibration_loop())
    normalised = [rec[1] * 2 * REFERENCE_LOOP_S / (loops[i] + loops[i + 1])
                  for i, rec in enumerate(records)]
    return records, normalised


def read_reports(op):
    """Parsed reports of an op and the sha256 of their bodies (report minus timings)."""
    reports, digest = [], hashlib.sha256()
    for path in op.reports:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError):
            reports.append(None)
            digest.update(b"<missing>")
            continue
        body = {k: v for k, v in report.items() if k != "timings"}
        digest.update((json.dumps(body, indent=2, sort_keys=True) + "\n").encode())
        reports.append(report)
    return reports, digest.hexdigest()


def rederive_piece(pkg, op) -> list[int]:
    """Members of a subspace piece the report omits, through the public API."""
    from addcomb import fileio, harness, structure

    A = fileio.read_set(op.argv[1])
    if op.check["mode"] == "dichotomy":
        result = structure.dichotomy_M(A, B_sub=A)
    else:
        result = structure.extract_subspace(A, A, harness.build_params({}, A, A))
    return list(result.variant.subspace.members)


def recheck(pkg, op, code, reports) -> list[str]:
    """Problems of one op's first run, as found by the recount oracle."""
    import oracle

    problems = [] if code == 0 else [f"exit code {code}"]
    if any(r is None for r in reports):
        return problems + ["report missing or unreadable"]
    if op.check["kind"] == "structure":
        report = reports[0]
        witness = report["results"][0]["result"].get("witness", {})
        piece = None
        if witness.get("members", []) is None:
            piece = rederive_piece(pkg, op)
        return problems + oracle.check_structure(report, op.check["factors"], op.check["members"], piece)
    for report in reports:
        problems += oracle.check_ok(report)
    return problems


# -- metrics ------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 ops beyond it, and that percentile."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def quality(ops, first_reports) -> dict:
    """Certificate figures of the structure ops (None on other workloads)."""
    certs = [reps[0]["results"][0]["result"] for op, reps in zip(ops, first_reports)
             if op.check["kind"] == "structure" and reps and reps[0] is not None]
    if not certs:
        return {"certificates": 0, "vacuous_ratio": None, "piece_log2_size_mean": None,
                "exact_witness_ratio": None, "bohr_attempts_mean": None}
    sizes = [c["witness"]["size"] for c in certs if "size" in c["witness"]]
    bohr = [len(c["diagnostics"].get("attempts", [])) for c in certs if c["kind"] == "BohrPiece"]
    return {
        "certificates": len(certs),
        "vacuous_ratio": sum(1 for s in sizes if s <= 1) / len(certs),
        "piece_log2_size_mean": statistics.fmean(math.log2(s) for s in sizes) if sizes else None,
        "exact_witness_ratio": sum(1 for c in certs if c["witness_mode"] == "exact") / len(certs),
        "bohr_attempts_mean": statistics.fmean(bohr) if bohr else None,
        "kinds": {k: sum(1 for c in certs if c["kind"] == k) for k in sorted({c["kind"] for c in certs})},
    }


def provenance(seed: int, blas: dict) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = dirty = None
    if os.path.exists(".git"):
        try:
            git = ["git", "--git-dir", ".git", "--work-tree", "."]
            commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                                    timeout=60, check=True).stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True,
                                    timeout=60, check=True).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            commit = dirty = None
    return {
        "nproc": nproc(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas,
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
    }


def child_setup_seconds(args) -> float:
    """setup_s of a fresh process running the same setup and nothing else."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        raise BenchError("setup probe timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"setup probe failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- one workload -------------------------------------------------------------------


def setup(args, work_dir):
    """Import the package, write the instance files, run the warm-up op."""
    import workloads

    pkg = import_package()
    warmup, ops = workloads.build_ops(
        args.workload, args.seed, workloads.pass_count(args.workload, args.seconds), work_dir
    )
    code, _, output = run_op(pkg, warmup)
    if code != 0:
        raise BenchError(f"warm-up op failed with exit code {code}: {output.strip()[-2000:]}")
    raw = time.perf_counter() - PROCESS_START
    return pkg, ops, raw * 2 * REFERENCE_LOOP_S / (SETUP_CALIBRATION + calibration_loop())


def run_workload(args, blas: dict) -> dict:
    # Set files and report paths appear in report bodies, so the directory
    # name depends on the workload and seed only: the same seed gives the
    # same bodies on every commit.  Set-up probes run beside the main run.
    name = f"{args.workload}-seed{args.seed}"
    if args.setup_only:
        name += f"-setup{os.getpid()}"
    work_dir = os.path.join(RESULTS_DIR, "work", name)
    try:
        pkg, ops, setup_s = setup(args, work_dir)
        if args.setup_only:
            return {"setup_s": setup_s}
        import selfcheck
        import tracer as tracing

        first, first_norm = run_phase(pkg, ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        first_reports = [read_reports(op) for op in ops]
        for op in ops:  # the second run must write its own reports
            for path in op.reports:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)

        tracer = tracing.Tracer(pkg) if args.trace else None
        traced_functions = tracer.install() if tracer else []
        try:
            second, second_norm = run_phase(pkg, ops, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        second_digests = [read_reports(op)[1] for op in ops]

        op_records, failed = [], 0
        for op, (code, latency, output), norm, (code2, _, _), (reports, digest), digest2 in zip(
            ops, first, first_norm, second, first_reports, second_digests
        ):
            problems = recheck(pkg, op, code, reports)
            if code2 != code:
                problems.append(f"exit code {code2} in the second run")
            if digest != digest2:
                problems.append("report body differs between the two runs")
            failed += bool(problems)
            op_records.append({
                "op": op.op_id, "slot": op.slot, "argv": op.argv, "exit": code,
                "latency_s": latency, "normalised_s": norm, "digest": digest, "problems": problems,
                "output": output[-2000:] if problems else "",
            })
        selfcheck_problems = selfcheck.run(pkg, os.path.join(work_dir, "selfcheck"))

        raw = [rec[1] for rec in first]
        latencies = first_norm
        tail_s, tail_pct = tail(latencies)
        if not args.trace:
            setup_s = statistics.median(
                [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
            )
        e2e = {
            "setup_s": setup_s,
            "ops_per_s": len(ops) / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
        result = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "provenance": provenance(args.seed, blas),
            "end_to_end": e2e,
            "latency_tail_percentile": tail_pct,
            "raw_wall": {"ops_per_s": len(ops) / sum(raw), "latency_p50_s": statistics.median(raw),
                         "latency_tail_s": tail(raw)[0]},
            "samples": len(latencies),
            "attempted": len(ops),
            "failed": failed,
            "fail_ratio": failed / len(ops),
            "quality": quality(ops, [r for r, _ in first_reports]),
            "selfcheck_problems": selfcheck_problems,
            "ops": op_records,
        }
        checks_ok = not selfcheck_problems
        if tracer:
            per_layer, table, accounting = tracing.layer_metrics(tracer, len(ops))
            # untraced ops_per_s over traced ops_per_s, on the same ops
            per_layer["trace.overhead_ratio"] = (sum(second_norm) / sum(first_norm), "ratio")
            q = result["quality"]
            for name, unit in QUALITY_UNITS.items():
                per_layer[f"structure.{name}"] = (q[name] or 0.0, unit)
            worst = max(abs(v - 1.0) for v in accounting.values())
            result.update({
                "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
                "traced_functions": traced_functions,
                "function_table": table,
                "accounting_worst_error": worst,
                "spans": write_spans(tracer.spans, args.name),
            })
            checks_ok = checks_ok and worst < 1e-6
        result["correct"] = failed == 0 and checks_ok
        return result
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def write_spans(spans, name: str) -> str:
    """Spans as tab-separated lines: id, parent, name, start, end, op."""
    import gzip

    path = os.path.join(RESULTS_DIR, f"{name}.spans.tsv.gz")
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("id\tparent\tname\tstart\tend\top\n")
        fh.writelines(f"{sid}\t{parent}\t{fn}\t{start!r}\t{end!r}\t{op}\n"
                      for sid, parent, fn, start, end, op, _ in spans)
    return path


def run_name(args) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"


# -- output -------------------------------------------------------------------------


def show(result: dict) -> list[str]:
    lines = [f"{result['workload']}: {result['attempted']} ops, seed {result['provenance']['seed']}, "
             f"trace {result['trace']}"]
    for name, unit in END_TO_END:
        lines.append(f"  {name:<34} {result['end_to_end'][name]:.6g} {unit}")
    lines.append(f"  {'latency_tail_percentile':<34} {result['latency_tail_percentile']:.4g} "
                 f"% of {result['samples']} ops")
    lines.append(f"  {'fail_ratio':<34} {result['fail_ratio']:.6g} ({result['failed']}/{result['attempted']})")
    for name, value in result["quality"].items():
        if name != "kinds":
            lines.append(f"  {name:<34} {'n/a' if value is None else format(value, '.6g')}")
    for name, m in result.get("per_layer", {}).items():
        lines.append(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    for op in result["ops"]:
        if op["problems"]:
            lines.append(f"  FAILED {op['op']} {' '.join(op['argv'])}: {'; '.join(op['problems'])}")
    for problem in result["selfcheck_problems"]:
        lines.append(f"  ORACLE SELF-CHECK: {problem}")
    return lines


def result_line(result: dict) -> dict:
    if result["trace"]:
        metrics = result["per_layer"]
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_all(args) -> dict:
    """Every workload, each in a fresh process, one after another."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} timed out") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload} failed: {proc.stderr.strip()[-2000:]}")
        print("\n".join(lines[:-1]), flush=True)
        line = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for name, m in line["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    return combined


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    blas = pin_threads()
    args.name = run_name(args)
    try:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        if args.workload == "all":
            print(json.dumps(run_all(args)))
            return 0
        result = run_workload(args, blas)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(result))
        return 0
    path = os.path.join(RESULTS_DIR, f"{args.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print("\n".join(show(result)))
    print(f"  results file {path}")
    print(json.dumps(result_line(result)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
