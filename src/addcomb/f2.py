"""Linear algebra over GF(2) on bitmask-encoded vectors, for the subspace
pipeline and the density regularization of structure.

Vectors in a rank-n boolean space are Python ints whose bit i is coordinate i,
which coincides with the group index of the corresponding element tuple.
Independent (dissociated) subsets and their spans are grown by
spectral.max_dissociated, not here.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def echelon_basis(vectors: Iterable[int]) -> list[int]:
    """Row-echelon basis (one row per pivot bit, highest pivot first)."""
    rows: list[int] = []
    for v in vectors:
        for r in rows:
            v = min(v, v ^ r)
        if v:
            rows.append(v)
            rows.sort(reverse=True)
    return rows


def reduce_vector(basis: Sequence[int], v: int) -> int:
    for r in basis:
        v = min(v, v ^ r)
    return v


def _rref(vectors: Iterable[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (rows, pivot bit positions)."""
    rows = echelon_basis(vectors)
    pivots = [r.bit_length() - 1 for r in rows]
    for i, r in enumerate(rows):
        for j, p in enumerate(pivots):
            if j != i and (r >> p) & 1:
                r ^= rows[j]
        rows[i] = r
    return rows, pivots


def nullspace_basis(vectors: Iterable[int], n: int) -> list[int]:
    """Basis of {x : <v, x> = 0 for all v}, pairing = parity of AND."""
    rows, pivots = _rref(vectors)
    pivot_set = set(pivots)
    basis = []
    for j in range(n):
        if j in pivot_set:
            continue
        x = 1 << j
        for r, p in zip(rows, pivots):
            if (r >> j) & 1:
                x |= 1 << p
        basis.append(x)
    return basis


def subspace_elements(basis: Sequence[int]) -> np.ndarray:
    """All 2^k masks spanned by the basis, as an int64 array whose entry c
    is the XOR of basis[i] over the bits i of c: the masks with
    coordinates c in the basis."""
    elems = np.zeros(1 << len(basis), dtype=np.int64)
    for i, b in enumerate(basis):
        elems[1 << i : 2 << i] = elems[: 1 << i] ^ b
    return elems

