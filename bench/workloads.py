"""Seeded instances for the three benchmark workloads.

Nothing here imports the package under test: the program sees only the
set and config files written below.  A workload is a fixed list of slots
(one pass); every pass draws fresh random contents for each slot from the
workload seed, so no two ops of a run share an instance while every pass
costs about the same.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("structure-f2", "structure-zn", "check-suite")


@dataclass
class Op:
    """One CLI command, the files it reads and writes, and what to recheck."""

    op_id: str
    slot: str
    argv: list[str]
    reports: list[str]
    check: dict = field(default_factory=dict)


# -- set files -------------------------------------------------------------------


def group_text(factors: tuple[int, ...]) -> str:
    if all(n == 2 for n in factors):
        return f"F2^{len(factors)}"
    return "x".join(f"Z{n}" for n in factors)


def coords(index: int, factors: tuple[int, ...]) -> list[int]:
    """Coordinates of an element index; coordinate 0 is the least significant digit."""
    out = []
    for n in factors:
        index, c = divmod(index, n)
        out.append(c)
    return out


def write_set(path: str, factors: tuple[int, ...], members) -> None:
    lines = [group_text(factors)]
    lines.extend(",".join(map(str, coords(i, factors))) for i in sorted(members))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# -- generators ------------------------------------------------------------------


def _reduce(echelon: list[int], v: int) -> int:
    """Reduce v against an XOR basis kept sorted by decreasing leading bit."""
    for b in echelon:
        v = min(v, v ^ b)
    return v


def planted_f2(rng: random.Random, n: int, dim: int, cosets: int, noise: int) -> set[int]:
    """Union of `cosets` cosets of a random dim-dimensional subgroup of F2^n, plus noise."""
    echelon: list[int] = []
    sub = {0}
    while len(echelon) < dim:
        v = _reduce(echelon, rng.randrange(1, 1 << n))
        if v:
            echelon.append(v)
            echelon.sort(reverse=True)
            sub |= {x ^ v for x in sub}
    labels: set[int] = set()
    members: set[int] = set()
    while len(labels) < cosets:
        z = rng.randrange(1 << n)
        label = _reduce(echelon, z)
        if label not in labels:
            labels.add(label)
            members |= {x ^ z for x in sub}
    while noise:
        v = rng.randrange(1 << n)
        if v not in members:
            members.add(v)
            noise -= 1
    return members


def passes_dichotomy_gate(members: set[int], order: int) -> bool:
    """100 K^2 |A| <= N with K = |A - A| / |A|, on F2^n (where A - A = A + A)."""
    diff = {a ^ b for a in members for b in members}
    return 100 * len(diff) ** 2 <= order * len(members)


def ap_union(rng: random.Random, order: int, count: int, length: int) -> set[int]:
    """Union of `count` arithmetic progressions of the given length in Z_order.

    The step is odd, a unit of Z_(2^k), so each progression is a dilate of
    {0, ..., length - 1}; an even step would confine it to a coset of a
    proper subgroup, and the cost of an op would then swing with the power
    of 2 the step happened to carry.
    """
    members: set[int] = set()
    for _ in range(count):
        start, step = rng.randrange(order), rng.randrange(1, order, 2)
        members |= {(start + i * step) % order for i in range(length)}
    return members


def random_subset(rng: random.Random, order: int, size: int) -> set[int]:
    return set(rng.sample(range(order), size))


# -- passes ----------------------------------------------------------------------

# structure-f2: (slot, n, subgroup dim, cosets, noise points, mode).  Two of
# the eight slots run the dichotomy, on gate-passing noise-free instances.
F2_SLOTS = (
    ("f2-13", 13, 6, 2, 8, "auto"),
    ("f2-13-dichotomy", 13, 4, 1, 0, "dichotomy"),
    ("f2-14", 14, 8, 4, 16, "auto"),
    ("f2-14", 14, 5, 3, 4, "auto"),
    ("f2-15", 15, 7, 1, 12, "auto"),
    ("f2-15-dichotomy", 15, 5, 2, 0, "dichotomy"),
    ("f2-16", 16, 6, 2, 6, "auto"),
    ("f2-16", 16, 4, 4, 16, "auto"),
)

# structure-zn: (slot, factors, generator, parameters).  AP unions take
# (progressions, length); random sets take their size.  Twenty-one slots
# cost 0.4-0.7 s and three cost 2-5 s, so the median and the tail
# percentile of a one-pass run fall among many ops of one kind, while the
# three large ones still take about half of the time.
ZN_SLOTS = (
    ("ap-z4096", (4096,), "ap", (2, 48)),
    ("rand-z4xz6xz8xz16", (4, 6, 8, 16), "random", 60),
    ("ap-z8192", (8192,), "ap", (1, 128)),
    ("rand-z64xz64", (64, 64), "random", 300),
    ("ap-z4096", (4096,), "ap", (3, 32)),
    ("rand-z32768", (32768,), "random", 1200),
    ("rand-z4xz6xz8xz16", (4, 6, 8, 16), "random", 120),
    ("ap-z8192", (8192,), "ap", (1, 128)),
    ("ap-z4096", (4096,), "ap", (2, 48)),
    ("rand-z64xz64", (64, 64), "random", 200),
    ("rand-z4xz6xz8xz16", (4, 6, 8, 16), "random", 200),
    ("ap-z16384", (16384,), "ap", (3, 96)),
    ("ap-z8192", (8192,), "ap", (1, 128)),
    ("ap-z4096", (4096,), "ap", (3, 32)),
    ("rand-z4xz6xz8xz16", (4, 6, 8, 16), "random", 60),
    ("rand-z64xz64", (64, 64), "random", 100),
    ("ap-z4096", (4096,), "ap", (2, 48)),
    ("rand-z128xz128", (128, 128), "random", 600),
    ("ap-z8192", (8192,), "ap", (1, 128)),
    ("rand-z4xz6xz8xz16", (4, 6, 8, 16), "random", 120),
    ("ap-z4096", (4096,), "ap", (3, 32)),
    ("rand-z64xz64", (64, 64), "random", 300),
    ("ap-z8192", (8192,), "ap", (1, 128)),
    ("rand-z4xz6xz8xz16", (4, 6, 8, 16), "random", 200),
)

# check-suite: eight seeded verify runs, two two-experiment configs (so
# the runner's pool runs two threads), one H+Lambda and one Katz example
# (26 Katz fields fit the order cap, which bounds the passes).  Verify and
# config ops cost 0.2-0.4 s, examples 0.01 s; with one op in six fast, the
# median and the tail percentile fall inside the slow group.
CHECK_SLOTS = ("verify", "verify", "config", "h-lambda", "verify", "verify",
               "katz", "verify", "verify", "config", "verify", "verify")
_CONFIG_SUITES = (("parseval", "triangle", "energy-bound"), ("bohr-size", "katz-koester", "energy-mono"))
# Every example instance has group order at most 1024.
H_LAMBDA_SHAPES = tuple(
    (n, k, lam) for n in range(6, 11) for k in range(1, n) for lam in range(1, n - k + 1)
)
KATZ_FIELDS = tuple(
    (p, d) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for d in range(2, 11) if p**d <= 1025
)

SLOTS = {"structure-f2": F2_SLOTS, "structure-zn": ZN_SLOTS, "check-suite": CHECK_SLOTS}
# Seconds one pass takes on a shared 2-vCPU x86 virtual machine.  A run
# makes round(seconds / NOMINAL_PASS_S) passes, and at least MIN_PASSES (16
# ops or more), so the op count, and with it the tail percentile, depends
# on --seconds alone and not on the speed of the code or the machine.
NOMINAL_PASS_S = {"structure-f2": 3.0, "structure-zn": 16.0, "check-suite": 3.0}
MIN_PASSES = {"structure-f2": 2, "structure-zn": 1, "check-suite": 2}


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES[workload], round(seconds / NOMINAL_PASS_S[workload]))


class _Draw:
    """Seeded stream of distinct instances for one run."""

    def __init__(self, workload: str, seed: int, work_dir: str):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.work_dir = work_dir
        self.verify_seeds: set[int] = set()
        self.shapes = list(H_LAMBDA_SHAPES)
        self.fields = list(KATZ_FIELDS)
        self.rng.shuffle(self.shapes)
        self.rng.shuffle(self.fields)

    def path(self, op_id: str, suffix: str) -> str:
        return os.path.join(self.work_dir, f"{op_id}{suffix}")

    def structure_op(self, op_id: str, slot: tuple) -> Op:
        rng = self.rng
        if self.workload == "structure-f2":
            name, n, dim, cosets, noise, mode = slot
            factors = (2,) * n
            while True:
                members = planted_f2(rng, n, dim, cosets, noise)
                if mode != "dichotomy" or passes_dichotomy_gate(members, 1 << n):
                    break
        else:
            name, factors, kind, param = slot
            mode = "auto"
            order = 1
            for f in factors:
                order *= f
            if kind == "ap":
                members = ap_union(rng, order, *param)
            else:
                members = random_subset(rng, order, param)
        set_path = self.path(op_id, ".txt")
        write_set(set_path, factors, members)
        report = self.path(op_id, ".json")
        argv = ["structure", set_path, "--out", report]
        if mode != "auto":
            argv += ["--mode", mode]
        check = {"kind": "structure", "factors": list(factors), "members": sorted(members), "mode": mode}
        return Op(op_id, name, argv, [report], check)

    def _fresh_seed(self) -> int:
        while True:
            s = self.rng.randrange(1 << 31)
            if s not in self.verify_seeds:
                self.verify_seeds.add(s)
                return s

    def check_op(self, op_id: str, slot: str) -> Op:
        report = self.path(op_id, ".json")
        if slot == "verify":
            argv = ["verify", "--seed", str(self._fresh_seed()), "--out", report]
            return Op(op_id, slot, argv, [report], {"kind": "ok"})
        if slot == "config":
            reports = [self.path(op_id, f".{i}.json") for i in range(len(_CONFIG_SUITES))]
            experiments = [
                {"name": f"part{i}", "kind": "verify", "suites": list(suites),
                 "seed": self._fresh_seed(), "output": out}
                for i, (suites, out) in enumerate(zip(_CONFIG_SUITES, reports))
            ]
            cfg_path = self.path(op_id, ".cfg.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump({"experiments": experiments}, fh, indent=1)
            return Op(op_id, slot, ["verify", "--config", cfg_path], reports, {"kind": "ok"})
        if slot == "h-lambda":
            if not self.shapes:
                raise ValueError("ran out of distinct H+Lambda shapes; lower --seconds")
            n, k, lam = self.shapes.pop()
            argv = ["example", "h-lambda", "--n", str(n), "--k", str(k), "--lambda", str(lam), "--out", report]
            return Op(op_id, slot, argv, [report], {"kind": "ok"})
        if not self.fields:
            raise ValueError("ran out of distinct Katz fields; lower --seconds")
        p, d = self.fields.pop()
        argv = ["example", "katz", "--p", str(p), "--d", str(d), "--out", report]
        return Op(op_id, slot, argv, [report], {"kind": "ok"})

    def op(self, op_id: str, slot) -> Op:
        if self.workload == "check-suite":
            return self.check_op(op_id, slot)
        return self.structure_op(op_id, slot)


def build_ops(workload: str, seed: int, passes: int, work_dir: str) -> tuple[Op, list[Op]]:
    """Write the instance files of one run: a warm-up op, then `passes` passes."""
    os.makedirs(work_dir, exist_ok=True)
    draw = _Draw(workload, seed, work_dir)
    slots = SLOTS[workload]
    warmup = draw.op("warmup", slots[0])
    ops = [draw.op(f"p{p:02d}s{i:02d}", slot) for p in range(passes) for i, slot in enumerate(slots)]
    return warmup, ops
