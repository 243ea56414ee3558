"""Finite abelian groups in cartesian form: elements and indexing.

Elements of Z_{n_1} x ... x Z_{n_r} are coordinate tuples with coordinate j
reduced mod n_j.  Characters are identified with elements once and for all
through the self-dual pairing; exact Bohr membership is counted in integers
by `bohr._ExactCounter`, never through floating-point phases.  Element
indices pack coordinates in mixed radix with coordinate 0 as the least
significant digit; on 2-groups the index is the plain bit packing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod
from typing import Sequence

import numpy as np

MAX_MEMBERSHIP_ORDER = 1 << 24   # index-array / linear-scan operations
MAX_TRANSFORM_ORDER = 1 << 16    # dense transforms on general groups

Element = tuple


class SizeLimitError(RuntimeError):
    """Raised when a computation exceeds the desk-scale resource caps.  Not
    a ValueError, so no handler of bad input swallows it: every entry
    point exits 3 on it."""


class GroupMismatchError(ValueError):
    """Raised when operands do not share a group, or have the wrong shape."""


@dataclass(frozen=True)
class GroupSpec:
    """Direct product of cyclic groups, kept in the cartesian form given."""

    factors: tuple[int, ...]
    # derived from factors once; every kernel call reads them
    order: int = field(init=False, repr=False, compare=False)
    is_boolean_space: bool = field(init=False, repr=False, compare=False)
    # a dense transform is within the caps: Walsh on a 2-group, else up to MAX_TRANSFORM_ORDER
    within_transform_cap: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        factors = tuple(int(n) for n in self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ValueError("need at least one cyclic factor")
        if any(n < 2 for n in factors):
            raise ValueError(f"every factor must be >= 2, got {factors}")
        order = prod(factors)
        if order > MAX_MEMBERSHIP_ORDER:
            raise SizeLimitError(
                f"group order {order} exceeds the supported cap {MAX_MEMBERSHIP_ORDER}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "is_boolean_space", all(n == 2 for n in factors))
        object.__setattr__(self, "within_transform_cap", self.is_boolean_space or order <= MAX_TRANSFORM_ORDER)

    def require_transform(self) -> None:
        """Raise SizeLimitError unless a dense transform is within the cap."""
        if not self.within_transform_cap:
            raise SizeLimitError(f"dense transform beyond order {MAX_TRANSFORM_ORDER}")

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def strides(self) -> tuple[int, ...]:
        return _strides(self.factors)

    # -- indexing ----------------------------------------------------------

    def _check(self, x: Element) -> None:
        if len(x) != self.rank:
            raise GroupMismatchError(f"element {x!r} does not fit rank {self.rank}")
        if any(not 0 <= a < n for a, n in zip(x, self.factors)):
            raise GroupMismatchError(f"element {x!r} out of range for {self.factors}")

    def index(self, x: Element) -> int:
        self._check(x)
        return sum(a * s for a, s in zip(x, self.strides))

    def unindex(self, i: int) -> Element:
        if not 0 <= i < self.order:
            raise ValueError(f"index {i} out of range for order {self.order}")
        out = []
        for n in self.factors:
            i, a = divmod(i, n)
            out.append(a)
        return tuple(out)

    def add_index(self, i: int, j: int) -> int:
        if self.is_boolean_space:
            return i ^ j
        out = 0
        for s, n in zip(self.strides, self.factors):
            i2, a = divmod(i, n)
            j2, b = divmod(j, n)
            out += ((a + b) % n) * s
            i, j = i2, j2
        return out

    def neg_index(self, i: int) -> int:
        if self.is_boolean_space:
            return i
        out = 0
        for s, n in zip(self.strides, self.factors):
            i, a = divmod(i, n)
            out += ((-a) % n) * s
        return out

    def sub_index(self, i: int, j: int) -> int:
        return self.add_index(i, self.neg_index(j))


def make_group(factors: Sequence[int]) -> GroupSpec:
    return GroupSpec(tuple(int(n) for n in factors))


def boolean_group(n: int) -> GroupSpec:
    if n < 1:
        raise ValueError("boolean space needs dimension >= 1")
    return GroupSpec((2,) * n)


# -- textual group format ----------------------------------------------------


def parse_group_text(text: str) -> GroupSpec:
    """Parse "Z4xZ6", "F2^8", "Z101", or products such as "F2^2xZ3"."""
    factors: list[int] = []
    for token in text.strip().split("x"):
        token = token.strip()
        if not token:
            raise ValueError(f"empty factor in group spec {text!r}")
        if token.startswith("F2^"):
            k = int(token[3:])
            if k < 1:
                raise ValueError(f"bad boolean power in {token!r}")
            factors.extend([2] * k)
        elif token == "F2":
            factors.append(2)
        elif token.startswith("Z"):
            factors.append(int(token[1:]))
        else:
            raise ValueError(f"cannot parse group factor {token!r}")
    return make_group(factors)


def format_group_text(g: GroupSpec) -> str:
    if g.is_boolean_space:
        return f"F2^{g.rank}"
    return "x".join(f"Z{n}" for n in g.factors)


# -- cached index plumbing ----------------------------------------------------


@lru_cache(maxsize=None)
def _strides(factors: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    s = 1
    for n in factors:
        out.append(s)
        s *= n
    return tuple(out)


@lru_cache(maxsize=None)
def _blocks(factors: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(s_k, s_k * n_k) per coordinate k.  Coordinate k of index i is at
    least a iff i mod s_k n_k >= a s_k, since the lower coordinates add up
    to less than s_k; the vectorised index ops read coordinates this way
    instead of dividing."""
    return tuple((s, s * n) for s, n in zip(_strides(factors), factors))


def _low_part(idx: np.ndarray, block: int, order: int) -> np.ndarray:
    # i mod order is i itself for every index
    return idx % block if block < order else idx


def _shift(g: GroupSpec, idx: np.ndarray, j) -> np.ndarray:
    """idx + j in the group, j an index or an index array that broadcasts
    against idx.  Coordinates add without carries, so the integer sum is
    right except that each coordinate k with a_k + b_k >= n_k overshoots by
    n_k s_k."""
    out = idx + j
    order = g.order
    for s, block in _blocks(g.factors):
        b = j % block // s
        if isinstance(b, np.ndarray) or b:
            np.subtract(out, block, out=out, where=_low_part(idx, block, order) >= block - b * s)
    return out


def _index_arg(j):
    return j if isinstance(j, np.ndarray) else int(j)


def add_index_many(g: GroupSpec, indices: np.ndarray, j) -> np.ndarray:
    """Vectorised add of a fixed element (by index) to an index array.  j
    may also be an index array; it broadcasts against indices."""
    if g.is_boolean_space:
        return indices ^ j
    return _shift(g, np.asarray(indices), _index_arg(j))


def sub_index_many(g: GroupSpec, indices: np.ndarray, j) -> np.ndarray:
    """Vectorised subtraction of a fixed element from an index array.  j
    may also be an index array; it broadcasts against indices, so
    sub_index_many(g, ys[:, None], xs) is the table of y - x."""
    if g.is_boolean_space:
        return indices ^ j
    j = _index_arg(j)
    # -j has coordinate n_k - b_k wherever b_k != 0
    neg_j = sum(block * (j % block >= s) for s, block in _blocks(g.factors)) - j
    return _shift(g, np.asarray(indices), neg_j)


def neg_index_many(g: GroupSpec, indices: np.ndarray) -> np.ndarray:
    if g.is_boolean_space:
        return indices.copy()
    idx = np.asarray(indices)
    # -i has coordinate n_k - a_k wherever a_k != 0, so -i = sum of n_k s_k
    # over those k, minus i
    out = -idx
    order = g.order
    for s, block in _blocks(g.factors):
        np.add(out, block, out=out, where=_low_part(idx, block, order) >= s)
    return out
