"""Recount oracle: recheck every certificate from its definition.

Independent of the package under test (imports only numpy and the
standard library).  Each check returns a list of problems; an empty list
means the report survived the recount.

Conventions, restated from the file formats: an element index encodes its
coordinates with coordinate 0 as the least significant digit; the phase of
character t at x is sum_i t_i x_i / n_i; B(Gamma, eps) = {x : ||gamma_j . x|| <
eps_j for all j} with a strict inequality.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def _frac(text) -> Fraction:
    return Fraction(str(text))


def coords_table(factors) -> np.ndarray:
    """(order, rank) coordinates of every element index."""
    order = math.prod(factors)
    idx = np.arange(order, dtype=np.int64)
    out = np.empty((order, len(factors)), dtype=np.int64)
    for i, n in enumerate(factors):
        idx, out[:, i] = np.divmod(idx, n)
    return out


def _index_of(coords: np.ndarray, factors) -> np.ndarray:
    strides = np.cumprod((1,) + tuple(factors[:-1]), dtype=np.int64)
    return coords @ strides


def phase_distances(factors, gamma) -> list[np.ndarray]:
    """Per character t in gamma, order * ||t . x|| for every element x.

    The phase sum_i t_i x_i / n_i is kept as an integer over the group order.
    """
    order = math.prod(factors)
    table = coords_table(factors)
    scale = np.array([order // n for n in factors], dtype=np.int64)
    out = []
    for t in gamma:
        phase = (table @ (table[int(t)] * scale)) % order
        out.append(np.minimum(phase, order - phase))
    return out


def bohr_members(factors, gamma, radii) -> np.ndarray:
    """Indices of B(Gamma, eps), enumerated from the definition."""
    order = math.prod(factors)
    inside = np.ones(order, dtype=bool)
    for dist, eps in zip(phase_distances(factors, gamma), radii):
        eps = _frac(eps)
        # dist / order < p / q  <=>  dist < ceil(p * order / q), in exact integers
        cut = min(-(-eps.numerator * order // eps.denominator), order + 1)
        inside &= dist < cut
    return np.nonzero(inside)[0]


def _overlap(factors, members: np.ndarray, piece: np.ndarray, z: int) -> int:
    """|A intersect (piece + z)| with group addition."""
    order = math.prod(factors)
    in_a = np.zeros(order, dtype=bool)
    in_a[members] = True
    table = coords_table(factors)
    shifted = (table[piece] + table[z]) % np.array(factors, dtype=np.int64)
    return int(in_a[_index_of(shifted, factors)].sum())


def _check_subspace(w: dict, result: dict, factors, members, piece) -> list[str]:
    problems = []
    n = len(factors)
    piece = np.asarray(sorted(piece), dtype=np.int64)
    size = len(piece)
    if size != w["size"]:
        problems.append(f"piece has {size} points, report says {w['size']}")
    if size == 0 or size & (size - 1):
        problems.append(f"piece size {size} is not a power of 2")
        return problems
    if piece[0] != 0:
        problems.append("piece does not contain 0")
    in_piece = np.zeros(1 << n, dtype=bool)
    in_piece[piece] = True
    echelon: list[int] = []
    for v in piece.tolist():
        for b in echelon:
            v = min(v, v ^ b)
        if v:
            echelon.append(v)
            echelon.sort(reverse=True)
            if not in_piece[piece ^ v].all():
                problems.append("piece is not closed under XOR")
                break
    if (1 << len(echelon)) != size:
        problems.append(f"piece spans dimension {len(echelon)} but has {size} points")
    if w["codim"] != n - size.bit_length() + 1:
        problems.append(f"codim {w['codim']} does not match a piece of {size} points in F2^{n}")
    overlap = _overlap(factors, members, piece, int(w["z"]))
    if overlap != _frac(result["achieved"]):
        problems.append(f"|A & (L+z)| = {overlap}, report says achieved {result['achieved']}")
    if size and _frac(w["density"]) != Fraction(overlap, size):
        problems.append(f"density {w['density']} differs from the recount {Fraction(overlap, size)}")
    return problems


def _check_bohr(w: dict, result: dict, factors, members) -> list[str]:
    problems = []
    order = math.prod(factors)
    if len(w["gamma"]) != len(w["radii"]) or w["dim"] != len(w["gamma"]):
        problems.append("Bohr witness has mismatched dim, gamma and radii")
        return problems
    piece = bohr_members(factors, w["gamma"], w["radii"])
    if len(piece) != w["size"]:
        problems.append(f"B(Gamma, eps) has {len(piece)} points, report says {w['size']}")
    if _frac(w["size_ratio"]) != Fraction(len(piece), order):
        problems.append(f"size ratio {w['size_ratio']} differs from {len(piece)}/{order}")
    overlap = _overlap(factors, members, piece, int(w["z"]))
    if overlap != _frac(result["achieved"]):
        problems.append(f"|A & (B+z)| = {overlap}, report says achieved {result['achieved']}")
    if len(piece) and _frac(w["density"]) != Fraction(overlap, len(piece)):
        problems.append(f"density {w['density']} differs from the recount")
    return problems


def _check_coefficient(w: dict, factors, members) -> list[str]:
    table = coords_table(factors)
    a = table[np.asarray(members, dtype=np.int64)]
    x = table[int(w["x"])]
    if all(n == 2 for n in factors):
        signs = 1 - 2 * ((a @ x) % 2)
        value = Fraction(int(signs.sum()) ** 2)
        ok = value == _frac(w["value"])
    else:
        phase = (a * x / np.array(factors, dtype=float)).sum(axis=1)
        value = abs(np.exp(-2j * np.pi * phase).sum()) ** 2
        ok = abs(value - float(_frac(w["value"]))) <= 1e-9 * len(members) ** 2
    return [] if ok else [f"coefficient at x={w['x']} recounts to {value}, report says {w['value']}"]


def check_ok(report: dict) -> list[str]:
    problems = []
    if report.get("ok") is not True:
        problems.append("report is not ok")
    bad = [r["ref"] for r in report.get("records", []) if not r.get("ok")]
    if bad:
        problems.append(f"failed records: {bad[:5]}")
    return problems


def check_structure(report: dict, factors, members, piece_members=None) -> list[str]:
    """Recount a structure report on A (the set itself is the subset B).

    piece_members supplies a subspace piece whose members the report omits.
    """
    problems = check_ok(report)
    result = report["results"][0]["result"]
    w = result["witness"]
    factors = tuple(factors)
    members = np.asarray(members, dtype=np.int64)
    kind = result["kind"]
    if kind == "SubspacePiece":
        piece = w["members"] if w["members"] is not None else piece_members
        if piece is None:
            return problems + ["subspace piece members are missing"]
        problems += _check_subspace(w, result, factors, members, piece)
    elif kind == "BohrPiece":
        problems += _check_bohr(w, result, factors, members)
    elif kind == "LargeCoefficient":
        problems += _check_coefficient(w, factors, members)
    else:
        return problems + [f"unknown certificate kind {kind!r}"]
    if _frac(result["achieved"]) < _frac(result["guaranteed"]):
        problems.append(f"achieved {result['achieved']} is below guaranteed {result['guaranteed']}")
    return problems


def piece_size(report: dict) -> int | None:
    """Points in the certified piece, or None for a coefficient certificate."""
    w = report["results"][0]["result"]["witness"]
    return w.get("size")
