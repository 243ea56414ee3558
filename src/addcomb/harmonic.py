"""Function tables and their transforms over finite abelian groups.

The transform convention carries no 1/N factor:

    fhat(t) = sum_x f(x) * conj(chi_t(x)),

so the Parseval identity reads  N * sum_x |f(x)|^2 = sum_t |fhat(t)|^2.
On 2-groups the transform is the integer Walsh-Hadamard butterfly and integer
inputs produce exactly integer outputs (in int64 when the input's L1 norm
bounds every partial sum below 2^62, in Python integers otherwise); on
general groups it is the per-coordinate mixed-radix DFT evaluated in complex
doubles.  Set correlations are counted in setstat, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .groups import GroupMismatchError, GroupSpec, MAX_TRANSFORM_ORDER, SizeLimitError

_INT64_SAFE = 1 << 62

Kind = str  # 'int' | 'real' | 'complex'


@dataclass
class FunctionTable:
    """Dense table of a function on a group, indexed by element index."""

    group: GroupSpec
    values: list
    kind: Kind

    def __post_init__(self) -> None:
        if len(self.values) != self.group.order:
            raise GroupMismatchError(
                f"table has {len(self.values)} entries for order {self.group.order}"
            )
        if self.kind not in ("int", "real", "complex"):
            raise ValueError(f"bad kind {self.kind!r}")

    def __getitem__(self, i: int):
        return self.values[i]

    def l1(self):
        return sum(abs(v) for v in self.values)

    def l2_squared(self):
        if self.kind == "complex":
            return sum(abs(v) * abs(v) for v in self.values)
        return sum(v * v for v in self.values)

    def support(self) -> list[int]:
        return [i for i, v in enumerate(self.values) if v != 0]

    def as_complex_array(self) -> np.ndarray:
        return np.asarray([complex(v) for v in self.values], dtype=np.complex128)


def table_from_values(g: GroupSpec, values: Iterable, kind: Kind | None = None) -> FunctionTable:
    vals = list(values)
    if kind is None:
        if all(isinstance(v, (int, np.integer)) for v in vals):
            kind = "int"
            vals = [int(v) for v in vals]
        elif any(isinstance(v, complex) for v in vals):
            kind = "complex"
            vals = [complex(v) for v in vals]
        else:
            kind = "real"
            vals = [float(v) for v in vals]
    return FunctionTable(g, vals, kind)


def indicator(g: GroupSpec, indices: Iterable[int]) -> FunctionTable:
    vals = [0] * g.order
    for i in indices:
        vals[i] = 1
    return FunctionTable(g, vals, "int")


# -- Walsh-Hadamard (2-groups) -------------------------------------------------


def _wht_list(vals: list) -> list:
    """In-place style butterfly on a fresh list; exact over Python numbers."""
    out = list(vals)
    n = len(out)
    h = 1
    while h < n:
        for base in range(0, n, 2 * h):
            for j in range(base, base + h):
                x = out[j]
                y = out[j + h]
                out[j] = x + y
                out[j + h] = x - y
        h *= 2
    return out


def _wht_int64(arr: np.ndarray) -> np.ndarray:
    a = arr.astype(np.int64, copy=True)
    n = a.shape[0]
    h = 1
    while h < n:
        a = a.reshape(-1, 2, h)
        top = a[:, 0, :] + a[:, 1, :]
        bot = a[:, 0, :] - a[:, 1, :]
        a = np.stack((top, bot), axis=1).reshape(-1)
        h *= 2
    return a


def wht_int(g: GroupSpec, values: Sequence[int]) -> list[int]:
    """Exact integer Walsh-Hadamard transform (self-inverse up to N)."""
    if not g.is_boolean_space:
        raise GroupMismatchError("Walsh-Hadamard path needs a 2-group")
    # int64 is exact when the L1 norm, which bounds every partial sum, stays
    # below 2^62.  N * max|v| bounds the L1 norm; only when that bound is
    # too coarse is the exact norm summed, so the path is the L1 test's.
    try:
        arr = np.asarray(values, dtype=np.int64)
    except OverflowError:
        return _wht_list([int(v) for v in values])
    top = max(int(arr.max()), -int(arr.min())) if arr.size else 0
    if top * arr.size < _INT64_SAFE or sum(abs(int(v)) for v in values) < _INT64_SAFE:
        return _wht_int64(arr).tolist()
    return _wht_list([int(v) for v in values])


# -- mixed-radix DFT -------------------------------------------------------------


def _axes_view(g: GroupSpec, arr: np.ndarray) -> np.ndarray:
    # Coordinate 0 is the least significant index digit, hence the last axis
    # of the C-order reshape.
    return arr.reshape(tuple(reversed(g.factors)))


def dft(f: FunctionTable) -> FunctionTable:
    """Transform of f, indexed by character frequency index."""
    g = f.group
    if g.is_boolean_space and f.kind == "int":
        return FunctionTable(g, wht_int(g, f.values), "int")
    if g.order > MAX_TRANSFORM_ORDER and not g.is_boolean_space:
        raise SizeLimitError(f"dense transform beyond order {MAX_TRANSFORM_ORDER}")
    if g.is_boolean_space:
        arr = f.as_complex_array()
        out = _wht_complex(arr)
        return FunctionTable(g, out.tolist(), "complex")
    arr = _axes_view(g, f.as_complex_array())
    out = np.fft.fftn(arr).reshape(-1)
    return FunctionTable(g, out.tolist(), "complex")


def idft(fhat: FunctionTable) -> FunctionTable:
    """Inverse transform; exact on integer Walsh-Hadamard data."""
    g = fhat.group
    n = g.order
    if g.is_boolean_space and fhat.kind == "int":
        back = wht_int(g, fhat.values)
        vals = []
        for v in back:
            q, r = divmod(v, n)
            if r:
                raise ValueError("table is not an integer transform on this group")
            vals.append(q)
        return FunctionTable(g, vals, "int")
    if g.is_boolean_space:
        arr = _wht_complex(fhat.as_complex_array()) / n
        return FunctionTable(g, arr.tolist(), "complex")
    arr = _axes_view(g, fhat.as_complex_array())
    out = np.fft.ifftn(arr).reshape(-1)
    return FunctionTable(g, out.tolist(), "complex")


def _wht_complex(arr: np.ndarray) -> np.ndarray:
    a = arr.astype(np.complex128, copy=True)
    h = 1
    n = a.shape[0]
    while h < n:
        a = a.reshape(-1, 2, h)
        top = a[:, 0, :] + a[:, 1, :]
        bot = a[:, 0, :] - a[:, 1, :]
        a = np.stack((top, bot), axis=1).reshape(-1)
        h *= 2
    return a.reshape(-1)
