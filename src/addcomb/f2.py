"""Linear algebra over GF(2) on bitmask-encoded vectors, for the subspace
pipeline and the density regularization of structure.

Vectors in a rank-n boolean space are Python ints whose bit i is coordinate i,
which coincides with the group index of the corresponding element tuple.
The one reduction, reduce_in_basis (coordinates in an echelon basis and the
remainder), serves ints and int64 arrays alike.  Independent (dissociated)
subsets and their spans are grown by spectral.max_dissociated, not here.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def reduce_in_basis(basis: Sequence[int], v):
    """(coords, rest) of v, an int or each entry of an int64 array, by an
    echelon basis (distinct leading bits, highest first): bit i of coords
    says row i was added, and rest, v plus those rows, has no row's leading
    bit.  So rest labels v's coset of the span, and is 0 exactly on it."""
    coords = v & 0
    for i, row in enumerate(basis):
        bit = v >> (row.bit_length() - 1) & 1
        coords |= bit << i
        v = v ^ bit * row
    return coords, v


def echelon_basis(vectors: Iterable[int]) -> list[int]:
    """Row-echelon basis (one row per pivot bit, highest pivot first)."""
    rows: list[int] = []
    for v in vectors:
        v = reduce_in_basis(rows, v)[1]
        if v:
            rows.append(v)
            rows.sort(reverse=True)
    return rows


def _rref(vectors: Iterable[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (rows, pivot bit positions)."""
    rows = echelon_basis(vectors)
    rows = [reduce_in_basis(rows[i + 1 :], r)[1] for i, r in enumerate(rows)]  # no row has a bit at a higher pivot
    return rows, [r.bit_length() - 1 for r in rows]


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

