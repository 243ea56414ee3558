"""Finite abelian groups in cartesian form: elements, characters, indexing.

Elements of Z_{n_1} x ... x Z_{n_r} are coordinate tuples with coordinate j
reduced mod n_j.  Characters are identified with elements once and for all
through the self-dual pairing, and evaluated through exact rational phases so
that phase comparisons (Bohr membership in particular) never touch floating
point.  Element indices pack coordinates in mixed radix with coordinate 0 as
the least significant digit; on 2-groups the index is the plain bit packing.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Iterator, Sequence

import numpy as np

MAX_MEMBERSHIP_ORDER = 1 << 24   # bitset / linear-scan operations
MAX_TRANSFORM_ORDER = 1 << 16    # dense transforms on general groups

Element = tuple


class SizeLimitError(ValueError):
    """Raised when a computation exceeds the desk-scale resource caps."""


class GroupMismatchError(ValueError):
    """Raised when operands do not share a group, or have the wrong shape."""


@dataclass(frozen=True)
class GroupSpec:
    """Direct product of cyclic groups, kept in the cartesian form given."""

    factors: tuple[int, ...]

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

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def is_boolean_space(self) -> bool:
        return all(n == 2 for n in self.factors)

    @property
    def strides(self) -> tuple[int, ...]:
        return _strides(self.factors)

    # -- element arithmetic ------------------------------------------------

    def element(self, coords: Sequence[int]) -> Element:
        """Reduce arbitrary integer coordinates into the group."""
        if len(coords) != self.rank:
            raise GroupMismatchError(
                f"expected {self.rank} coordinates, got {len(coords)}"
            )
        return tuple(c % n for c, n in zip(coords, self.factors))

    def zero(self) -> Element:
        return (0,) * self.rank

    def add(self, x: Element, y: Element) -> Element:
        self._check(x)
        self._check(y)
        return tuple((a + b) % n for a, b, n in zip(x, y, self.factors))

    def neg(self, x: Element) -> Element:
        self._check(x)
        return tuple((-a) % n for a, n in zip(x, self.factors))

    def sub(self, x: Element, y: Element) -> Element:
        self._check(x)
        self._check(y)
        return tuple((a - b) % n for a, b, n in zip(x, y, self.factors))

    def _check(self, x: Element) -> None:
        if len(x) != self.rank:
            raise GroupMismatchError(f"element {x!r} does not fit rank {self.rank}")
        if any(not 0 <= a < n for a, n in zip(x, self.factors)):
            raise GroupMismatchError(f"element {x!r} out of range for {self.factors}")

    # -- indexing ----------------------------------------------------------

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

    def elements(self) -> Iterator[Element]:
        for i in range(self.order):
            yield self.unindex(i)

    # -- characters ----------------------------------------------------------

    def char_phase(self, t: Element, x: Element) -> Fraction:
        """Exact phase of the character pairing, as a fraction of a full turn.

        The character attached to frequency t sends x to
        exp(2 pi i * sum_j t_j x_j / n_j); the returned value is the fractional
        part of that angle sum, in [0, 1).
        """
        self._check(t)
        self._check(x)
        order = self.order
        num = 0
        for a, b, n in zip(t, x, self.factors):
            num += a * b * (order // n)
        return Fraction(num % order, order)

    def char_eval(self, t: Element, x: Element) -> complex:
        """Unit complex value of the character; exact at quarter-turn phases."""
        phase = self.char_phase(t, x)
        exact = _QUARTER_TURNS.get(phase)
        if exact is not None:
            return exact
        return cmath.exp(2j * cmath.pi * float(phase))

    def bohr_norm(self, t: Element, x: Element) -> Fraction:
        """Distance of the pairing phase to the nearest integer, exactly."""
        p = self.char_phase(t, x)
        return min(p, 1 - p)


_QUARTER_TURNS = {
    Fraction(0, 1): complex(1, 0),
    Fraction(1, 4): complex(0, 1),
    Fraction(1, 2): complex(-1, 0),
    Fraction(3, 4): complex(0, -1),
}


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


def _shift(g: GroupSpec, idx: np.ndarray, j: int) -> np.ndarray:
    """idx + j in the group.  Coordinates add without carries, so the
    integer sum is right except that each coordinate k with a_k + b_k >= n_k
    overshoots by n_k s_k."""
    out = idx + j
    order = g.order
    for s, block in _blocks(g.factors):
        b = j % block // s
        if b:
            np.subtract(out, block, out=out, where=_low_part(idx, block, order) >= block - b * s)
    return out


@lru_cache(maxsize=32)
def _radix(factors: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    return np.array(_strides(factors), dtype=np.int64), np.array(factors, dtype=np.int64)


def _coords_of(g: GroupSpec, indices) -> np.ndarray:
    """Coordinates of an index or index array, in a trailing axis, by
    mixed-radix division."""
    strides, mods = _radix(g.factors)
    return (np.asarray(indices)[..., None] // strides) % mods


def add_index_many(g: GroupSpec, indices: np.ndarray, j: int) -> np.ndarray:
    """Vectorised add of a fixed element (by index) to an index array."""
    if g.is_boolean_space:
        return indices ^ j
    return _shift(g, np.asarray(indices), int(j))


def sub_index_many(g: GroupSpec, indices: np.ndarray, j: int) -> np.ndarray:
    """Vectorised subtraction of a fixed element from an index array."""
    if g.is_boolean_space:
        return indices ^ j
    j = int(j)
    # -j has coordinate n_k - b_k wherever b_k != 0
    neg_j = sum(block for s, block in _blocks(g.factors) if j % block >= s) - j
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


# -- boolean bitset helpers ----------------------------------------------------


@lru_cache(maxsize=64)
def _lowbit_selectors(n: int) -> tuple[int, ...]:
    """Selector masks over 2^n bit positions: selector k picks indices with bit k = 0."""
    size = 1 << n
    out = []
    for k in range(n):
        block = (1 << (1 << k)) - 1
        step = 1 << (k + 1)
        sel = 0
        for base in range(0, size, step):
            sel |= block << base
        out.append(sel)
    return tuple(out)


def xor_translate_mask(mask: int, shift: int, n: int) -> int:
    """Translate a 2^n-bit membership mask by XOR with `shift`."""
    sels = _lowbit_selectors(n)
    for k in range(n):
        if (shift >> k) & 1:
            b = 1 << k
            sel = sels[k]
            mask = ((mask & sel) << b) | ((mask >> b) & sel)
    return mask
