"""Self-check of the recount oracle.

One correct report of each certificate kind comes from the command line on
a small fixed instance; the oracle must pass it and flag every mutated
copy: a wrong translate z, `achieved` off by one, a piece that is not a
subgroup, a Bohr radius nudged past a point, and a wrong coefficient.

    python3 bench/selfcheck.py    # from the root of a source checkout
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import sys
from fractions import Fraction

import numpy as np

import oracle
import workloads

F2_8 = (2,) * 8
F2_14 = (2,) * 14


def _report(pkg, work_dir: str, name: str, factors, members, extra: list[str]) -> dict:
    set_path = os.path.join(work_dir, f"{name}.txt")
    out = os.path.join(work_dir, f"{name}.json")
    workloads.write_set(set_path, factors, members)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = pkg.cli.main(["structure", set_path, "--out", out, *extra])
    if code != 0:
        raise RuntimeError(f"{name}: exit code {code}: {sink.getvalue().strip()}")
    with open(out, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _result(report: dict) -> dict:
    return report["results"][0]["result"]


def _wrong_z(report: dict, members) -> dict:
    """Move z to a coset of L whose overlap with A differs."""
    bad = copy.deepcopy(report)
    w, a = _result(bad)["witness"], set(members)
    achieved = Fraction(_result(bad)["achieved"])
    for z in range(1 << 8):
        if sum((x ^ z) in a for x in w["members"]) != achieved:
            w["z"] = z
            return bad
    raise RuntimeError("every translate has the same overlap")


def _achieved_plus_one(report: dict) -> dict:
    bad = copy.deepcopy(report)
    _result(bad)["achieved"] = str(Fraction(_result(bad)["achieved"]) + 1)
    return bad


def _not_a_subgroup(report: dict) -> dict:
    """Swap the largest member of L for a point outside L; the size stays."""
    bad = copy.deepcopy(report)
    w = _result(bad)["witness"]
    piece = set(w["members"])
    outside = next(v for v in range(1 << 8) if v not in piece)
    piece.discard(max(piece))
    w["members"] = sorted(piece | {outside})
    return bad


def _radius_past_a_point(report: dict) -> dict:
    """Widen one radius just past the nearest point the other radii admit."""
    bad = copy.deepcopy(report)
    w = _result(bad)["witness"]
    order = 1 << 8
    dists = oracle.phase_distances(F2_8, w["gamma"])
    cuts = [Fraction(e) * order for e in w["radii"]]
    for j in range(len(dists)):
        others = np.ones(order, dtype=bool)
        for i, (d, cut) in enumerate(zip(dists, cuts)):
            if i != j:
                others &= d < cut
        outside = dists[j][others & (dists[j] >= cuts[j])]
        if len(outside):
            w["radii"][j] = str(Fraction(int(outside.min()), order) + Fraction(1, 4 * order))
            return bad
    raise RuntimeError("no radius can be widened past a point")


def _coefficient_off(report: dict) -> dict:
    bad = copy.deepcopy(report)
    w = _result(bad)["witness"]
    w["value"] = str(Fraction(w["value"]) + 1)
    return bad


def run(pkg, work_dir: str) -> list[str]:
    """Problems found; empty when the oracle passes every correct report and
    flags every mutation."""
    os.makedirs(work_dir, exist_ok=True)
    planted = sorted(workloads.planted_f2(random.Random(5), 8, 3, 2, 0))
    lone = sorted(workloads.planted_f2(random.Random(0), 14, 3, 1, 1))
    params = os.path.join(work_dir, "m1.json")
    with open(params, "w", encoding="utf-8") as fh:
        json.dump({"m": "1"}, fh)
    try:
        sub = _report(pkg, work_dir, "subspace", F2_8, planted, [])
        bohr = _report(pkg, work_dir, "bohr", F2_8, planted, ["--mode", "bohr"])
        coeff = _report(pkg, work_dir, "coefficient", F2_14, lone,
                        ["--mode", "dichotomy", "--params", params])
    except RuntimeError as exc:
        return [f"could not produce the correct reports: {exc}"]
    expected = {"subspace": "SubspacePiece", "bohr": "BohrPiece", "coefficient": "LargeCoefficient"}
    correct = {"subspace": (sub, F2_8, planted), "bohr": (bohr, F2_8, planted),
               "coefficient": (coeff, F2_14, lone)}
    problems = []
    for name, (report, factors, members) in correct.items():
        if _result(report)["kind"] != expected[name]:
            return [f"{name} instance gave {_result(report)['kind']}, not {expected[name]}"]
        found = oracle.check_structure(report, factors, members)
        if found:
            problems.append(f"correct {name} report flagged: {found}")
    mutations = [
        ("wrong z", lambda: _wrong_z(sub, planted), F2_8, planted),
        ("achieved off by one", lambda: _achieved_plus_one(sub), F2_8, planted),
        ("piece not a subgroup", lambda: _not_a_subgroup(sub), F2_8, planted),
        ("Bohr radius nudged past a point", lambda: _radius_past_a_point(bohr), F2_8, planted),
        ("coefficient off by one", lambda: _coefficient_off(coeff), F2_14, lone),
    ]
    for name, mutate, factors, members in mutations:
        try:
            bad = mutate()
        except RuntimeError as exc:
            problems.append(f"mutation '{name}' could not be made: {exc}")
            continue
        if not oracle.check_structure(bad, factors, members):
            problems.append(f"oracle missed the mutation '{name}'")
    return problems


if __name__ == "__main__":
    sys.path.insert(0, os.path.abspath("src"))
    import tempfile

    import addcomb.cli

    with tempfile.TemporaryDirectory(dir=".") as tmp:
        found = run(addcomb, tmp)
    print("\n".join(found) if found else "oracle self-check passed: 3 correct reports, 5 mutations flagged")
    sys.exit(1 if found else 0)
