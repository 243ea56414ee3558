#!/usr/bin/env python3
"""Compare two sets of benchmark results, parent against change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the results files (.json) that bench/run.py wrote
under .bench_runs/ on one commit.  Per workload and end-to-end metric it
prints each side's median and quartiles, the share of pairs the change
won, and a verdict:

  gain          the change won at least 9/10 of the pairs (ties count for
                neither) and the medians differ by more than the parent's
                interquartile range
  regression    the change's median is worse than the parent's by more
                than the metric's bound
  unresolved    a side's spread (interquartile range over median) is wider
                than the bound, unless every change run beat every parent run
  within bound  none of the above

Runs pair up by seed when both sides ran the same seeds, otherwise in the
order they ran; make them alternate which side runs first.  It also lists
the per-layer medians of traced runs, whether the certificate figures
match, and how many ops' report bodies differ between the two sides.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory: str) -> dict[tuple[str, int], list[dict]]:
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        if "workload" in result:
            runs.setdefault((result["workload"], result["trace"]), []).append(result)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed_p = {r["provenance"]["seed"]: r for r in parent}
    by_seed_c = {r["provenance"]["seed"]: r for r in change}
    if len(by_seed_p) == len(parent) and by_seed_p.keys() == by_seed_c.keys():
        return [(by_seed_p[s], by_seed_c[s]) for s in sorted(by_seed_p)]
    return list(zip(parent, change))


def verdict(p_vals, c_vals, pair_vals, better: str, bound: float) -> tuple[str, str]:
    sign = 1 if better == "higher" else -1
    q1p, medp, q3p = quartiles(p_vals)
    q1c, medc, q3c = quartiles(c_vals)
    wins = sum(1 for p, c in pair_vals if sign * (c - p) > 0)
    share = f"{wins}/{len(pair_vals)}"
    spread_p = (q3p - q1p) / medp if medp else float("inf")
    spread_c = (q3c - q1c) / medc if medc else float("inf")
    worse = sign * (medp - medc) / medp if medp else 0.0
    if pair_vals and wins >= 0.9 * len(pair_vals) and sign * (medc - medp) > q3p - q1p:
        return "gain", share
    if worse > bound:
        return "regression", share
    all_better = all(sign * (c - p) > 0 for p in p_vals for c in c_vals)
    if max(spread_p, spread_c) > bound and not all_better:
        return "unresolved", share
    return "within bound", share


def digest_changes(parent: list[dict], change: list[dict]) -> str:
    differ = compared = 0
    for p, c in pairs(parent, change):
        if p["provenance"]["seed"] != c["provenance"]["seed"]:
            continue
        for op_p, op_c in zip(p["ops"], c["ops"]):
            compared += 1
            differ += op_p["digest"] != op_c["digest"]
    if not compared:
        return "report bodies: no common seeds to compare"
    return f"report bodies: {differ} of {compared} ops differ"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare benchmark results of two commits.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(args.benchmark, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load(args.parent), load(args.change)
    for (workload, trace) in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[(workload, trace)], change[(workload, trace)]
        matched = pairs(p_runs, c_runs)
        print(f"{workload} (trace {trace}): {len(p_runs)} parent runs, {len(c_runs)} change runs")
        if trace == 0:
            print(f"  {'metric':<16} {'parent q1/med/q3':<32} {'change q1/med/q3':<32} wins   verdict")
            for m in spec["end_to_end"]:
                name = m["name"]
                p_vals = [r["end_to_end"][name] for r in p_runs]
                c_vals = [r["end_to_end"][name] for r in c_runs]
                pv = [(p["end_to_end"][name], c["end_to_end"][name]) for p, c in matched]
                result, share = verdict(p_vals, c_vals, pv, m["better"], m["bound"])
                fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
                print(f"  {name:<16} {fmt(quartiles(p_vals)):<32} {fmt(quartiles(c_vals)):<32} "
                      f"{share:<6} {result} ({m['unit']}, {m['better']} is better, bound {m['bound']})")
            same = all(p["quality"] == c["quality"] for p, c in matched)
            print(f"  certificate figures: {'identical' if same else 'DIFFER'} across paired runs")
            print(f"  {digest_changes(p_runs, c_runs)}")
        else:
            for m in spec["per_layer"]:
                name = m["name"]
                p_med = statistics.median(r["per_layer"][name]["value"] for r in p_runs)
                c_med = statistics.median(r["per_layer"][name]["value"] for r in c_runs)
                print(f"  {name:<40} {p_med:>12.6g} -> {c_med:<12.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
