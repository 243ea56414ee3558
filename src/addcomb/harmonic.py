"""Function tables and their transforms over finite abelian groups.

A FunctionTable holds its values as one numpy array indexed by element
index, and FunctionTable alone picks the dtype: an int table is int64 when
its L1 norm is below 2^62 and an object array of Python ints otherwise; a
complex table is complex128; a real table is float64, or an object array
when a value is a Fraction, which stays exact.  The L1 norm bounds every
partial sum and every transform value, so sums and Walsh butterflies over
an int64 table cannot overflow.  A product that can pass 2^63 (a square,
a power, a transform value times another) is taken on Python ints or
object arrays, never in int64.

The transform convention carries no 1/N factor:

    fhat(t) = sum_x f(x) * conj(chi_t(x)),

so the Parseval identity reads  N * sum_x |f(x)|^2 = sum_t |fhat(t)|^2.
On 2-groups the transform is the Walsh-Hadamard butterfly, exact on int
tables; on general groups it is the per-coordinate mixed-radix DFT
evaluated in complex doubles, and transform_error bounds how far the
computed values can be from the exact ones.  That bound is the one error
model of the package: every branch or asserted check read off a float
transform goes through it, and conv_error, built on it and on the same
per-axis constants, bounds a convolution taken back through the inverse
transform.  Set correlations are counted in setstat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .groups import GroupMismatchError, GroupSpec, MAX_TRANSFORM_ORDER, SizeLimitError

_INT64_SAFE = 1 << 62
_U = 2.0**-53  # unit roundoff of binary64
_BLUESTEIN_MIN = 50  # pocketfft never takes Bluestein's algorithm below this length

Kind = str  # 'int' | 'real' | 'complex'


def magnitudes(values: np.ndarray) -> np.ndarray:
    """|v| for every entry, rounded as Python's abs() rounds it (np.abs on
    complex128 does not, np.hypot does), so reported floats do not move."""
    if values.dtype == np.complex128:
        return np.hypot(values.real, values.imag)
    return np.abs(values)


@dataclass(eq=False)
class FunctionTable:
    """Dense table of a function on a group, indexed by element index.

    values is a numpy array with the dtype the module docstring gives; an
    array that already has that dtype is kept, not copied.
    """

    group: GroupSpec
    values: np.ndarray
    kind: Kind

    def __post_init__(self) -> None:
        if len(self.values) != self.group.order:
            raise GroupMismatchError(
                f"table has {len(self.values)} entries for order {self.group.order}"
            )
        if self.kind == "int":
            self.values = _int_array(self.values)
        elif self.kind == "complex":
            self.values = np.asarray(self.values, dtype=np.complex128)
        elif self.kind == "real":
            arr = np.asarray(self.values)
            if not (arr.dtype == object and any(isinstance(v, Fraction) for v in arr)):
                arr = arr.astype(np.float64, copy=False)
            self.values = arr
        else:
            raise ValueError(f"bad kind {self.kind!r}")

    def l1(self):
        mags = magnitudes(self.values)
        if mags.dtype == np.int64:
            return int(mags.sum())
        return sum(mags.tolist())  # Python's order, so float sums repeat exactly

    def l2_squared(self):
        mags = magnitudes(self.values)
        if mags.dtype == np.int64:
            mags = mags.astype(object)  # the squares may pass 2^63
        return sum((mags * mags).tolist())

    def support(self) -> list[int]:
        return np.flatnonzero(self.values).tolist()


def _int_array(values) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array([int(v) for v in values], dtype=object)
    if max(int(arr.max()), -int(arr.min())) * arr.size < _INT64_SAFE:
        return arr  # N * max|v| bounds the L1 norm
    # |-2^63| wraps to -2^63, which reads as 2^63 in uint64; summing the
    # two 32-bit halves apart keeps both sums exact up to 2^31 entries.
    mags = np.abs(arr).view(np.uint64)
    l1 = (int((mags >> 32).sum()) << 32) + int((mags & 0xFFFFFFFF).sum())
    return arr if l1 < _INT64_SAFE else arr.astype(object)


def table_from_values(g: GroupSpec, values: Iterable, kind: Kind | None = None) -> FunctionTable:
    vals = list(values)
    if kind is None:
        if all(isinstance(v, (int, np.integer)) for v in vals):
            kind = "int"
        elif any(isinstance(v, complex) for v in vals):
            kind = "complex"
        else:
            kind = "real"
            vals = [float(v) for v in vals]
    return FunctionTable(g, vals, kind)


def indicator(g: GroupSpec, indices: Iterable[int]) -> FunctionTable:
    vals = np.zeros(g.order, dtype=np.int64)
    vals[np.asarray(list(indices), dtype=np.int64)] = 1
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


def _wht(arr: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard butterfly along axis 0 into a fresh array of arr's
    dtype (of every column, when arr is a table of columns)."""
    a = arr.copy()
    h = 1
    while h < a.shape[0]:
        pairs = a.reshape(-1, 2, h, *a.shape[1:])  # a view: the updates below land in a
        top = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        np.subtract(top, pairs[:, 1], out=pairs[:, 1])
        h *= 2
    return a


def wht_int(g: GroupSpec, values: Sequence[int]) -> np.ndarray:
    """Exact integer Walsh-Hadamard transform (self-inverse up to N).

    int64 when the values make an int64 table (whose L1 norm bounds every
    partial sum below 2^62), an object array of Python ints otherwise.
    """
    if not g.is_boolean_space:
        raise GroupMismatchError("Walsh-Hadamard path needs a 2-group")
    arr = FunctionTable(g, values, "int").values
    if arr.dtype == object:
        return np.array(_wht_list(arr.tolist()), dtype=object)
    return _wht(arr)


def wht_int_columns(g: GroupSpec, table: np.ndarray) -> np.ndarray:
    """Exact integer Walsh-Hadamard transform of every column of an (N, k)
    int64 table.  The caller keeps each column's L1 norm below 2^62, which
    bounds every partial sum of the butterflies."""
    if not g.is_boolean_space:
        raise GroupMismatchError("Walsh-Hadamard path needs a 2-group")
    if table.dtype != np.int64 or table.ndim != 2 or table.shape[0] != g.order:
        raise GroupMismatchError(f"need an int64 table of shape ({g.order}, k), got {table.dtype} {table.shape}")
    return _wht(table)


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
    arr = f.values.astype(np.complex128)
    if g.is_boolean_space:
        return FunctionTable(g, _wht(arr), "complex")
    return FunctionTable(g, np.fft.fftn(_axes_view(g, arr)).reshape(-1), "complex")


def idft(fhat: FunctionTable) -> FunctionTable:
    """Inverse transform; exact on integer Walsh-Hadamard data."""
    g = fhat.group
    n = g.order
    if g.is_boolean_space and fhat.kind == "int":
        back = wht_int(g, fhat.values)
        if np.any(back % n):
            raise ValueError("table is not an integer transform on this group")
        return FunctionTable(g, back // n, "int")
    arr = fhat.values.astype(np.complex128)
    if g.is_boolean_space:
        return FunctionTable(g, _wht(arr) / n, "complex")
    return FunctionTable(g, np.fft.ifftn(_axes_view(g, arr)).reshape(-1), "complex")


# -- error model -----------------------------------------------------------------


def prime_factors(n: int) -> list[int]:
    """Prime factors of n with multiplicity, ascending."""
    out = []
    q = 2
    while q * q <= n:
        while n % q == 0:
            out.append(q)
            n //= q
        q += 1
    return out + [n] if n > 1 else out


def _axis_error(n: int) -> float:
    """Relative normwise error of a length-n pocketfft transform, over u."""
    primes = prime_factors(n)
    mixed = sum(7.0 if p == 2 else math.sqrt(p) * (p + 3) + 7 for p in primes)
    if n < _BLUESTEIN_MIN or primes[-1] ** 2 <= n:
        return mixed
    return max(mixed, 8 * math.sqrt(n) * (16 * math.log2(4 * n) + 1))


def transform_error(f: FunctionTable) -> float:
    """A proven bound E on the error of dft(f): ||y - fhat||_2 <= E for the
    computed y and the exact fhat, so E also bounds every |y(t) - fhat(t)|
    and every |magnitudes(y)(t) - |fhat(t)||.  0 on the exact integer
    Walsh path; elsewhere, with u = 2^-53,

        E = (rho / (1 - rho) + 8u) sqrt(N) ||f||_2,

    the form c u log2(N) sqrt(N) ||f||_2 plus input rounding.  Derivation
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 24.1) for numpy >= 1.24, whose fftn runs pocketfft along one
    axis after another.  The exact transform of an axis of length n scales
    2-norms by sqrt(n), so ||fhat||_2 = sqrt(N) ||f||_2 and the axes'
    relative normwise errors add up to rho (rho / (1 - rho) covers their
    products).  On a 2-group a float Walsh level rounds once: u per level.

    Mixed radix.  With twiddles accurate to u, Theorem 24.2 gives 6.7u,
    counted 7u, per radix-2 level (a radix-4 or radix-8 pass counts as 2 or
    3 levels).  A pass of odd prime radix p is at worst p-term inner
    products, sqrt(p) (p + 3) u, plus 7u for its twiddles.  So c <= 16 for
    pocketfft's hard-coded radices (up to 11) and c = (sqrt(p) (p + 3) + 7)
    / log2(p) for its generic pass.

    Bluestein.  For n >= 50 whose largest prime p has p^2 > n, pocketfft
    may instead convolve with a unit chirp b of length 2n - 1, through
    transforms of a length M < 4n with radices up to 11, so rho_M <= 16u
    log2(4n).  With |bhat| <= ||b||_1 < 2n the forward and the inverse
    transform lose at most 2n rho_M ||f||_2 each, b's own transform
    sqrt(8) n rho_M ||f||_2, and the three products with chirps 12nu ||f||_2:
    all within 8n (rho_M + u) ||f||_2, so c <= 8 sqrt(n) (16 log2(4n) + 1)
    / log2(n).  pocketfft picks this path by a cost estimate, so such an
    axis takes the larger of the two bounds.

    8u covers rounding f to doubles (u), hypot (one ulp, 2u), evaluating E,
    and a caller's fsum and two square roots comparing 2-norms (5u).  The
    constants are rounded up by far more than evaluating E loses (its float
    2-norm is within N u relatively, under 2^-29 at the size caps).
    """
    g = f.group
    if g.is_boolean_space and f.kind == "int":
        return 0.0
    return (_relative_error(g) + 8 * _U) * math.sqrt(g.order) * _l2(f)


def _relative_error(g: GroupSpec) -> float:
    """rho / (1 - rho): the relative normwise error of one float transform
    of g, forward or inverse, before scaling (see transform_error)."""
    rho = (g.rank if g.is_boolean_space else sum(_axis_error(n) for n in g.factors)) * _U
    return rho / (1 - rho)


def _l2(f: FunctionTable) -> float:
    return float(np.linalg.norm(f.values.astype(np.complex128)))


def conv_error(f: FunctionTable, h: FunctionTable) -> float:
    """A proven bound on every |z(x) - (f * h)(x)|, where f * h is the
    exact convolution and z = idft(y_f * y_h) is computed in complex
    doubles from computed transforms y_f, y_h of f and h within
    transform_error of the exact ones (dft's, or the conjugates of a
    reflected table's: they carry the same bound).  So when it is below
    1/2 and f * h is an integer table, rounding the real part of z gives
    f * h exactly.

    With F, H the exact transforms, P = F H is the exact transform of
    f * h.  Writing E_f, E_h for the transform errors, ||F||_inf <=
    ||f||_1 = a, ||H||_inf <= ||h||_1 = b and ||P||_2 <= pi = min(a ||H||_2,
    b ||F||_2), where ||F||_2 = sqrt(N) ||f||_2:

      y_f y_h - P = F (y_h - H) + (y_f - F) H + (y_f - F)(y_h - H)
                    has 2-norm at most d1 = a E_h + b E_f + E_f E_h;
      the pointwise complex products round by at most sqrt(2) gamma_2
        times |y_f y_h| (Higham, Lemma 3.5), so the computed product p has
        ||p - P||_2 <= d = d1 + sqrt(2) gamma_2 (pi + d1);
      the exact inverse transform divides 2-norms by sqrt(N), and the
        computed one adds the relative error rho / (1 - rho) of
        transform_error plus 2u per axis for its 1/n scaling (rounding
        1/n, then the product).

    So ||z - f * h||_2 <= (d + (rho / (1 - rho) + 2 r u)(pi + d)) / sqrt(N)
    for rank r, and an entry is bounded by the 2-norm.  The factor
    1 + 2^-20 covers evaluating this in doubles: the norms are within N u
    relatively (under 2^-37 at the order cap), and the few dozen rounded
    operations on nonnegative terms lose less still.
    """
    g = f.group
    if h.group != g:
        raise GroupMismatchError("tables live on different groups")
    root_n = math.sqrt(g.order)
    e_f, e_h = transform_error(f), transform_error(h)
    a, b = float(f.l1()), float(h.l1())
    pi = min(a * root_n * _l2(h), b * root_n * _l2(f))
    d1 = a * e_h + b * e_f + e_f * e_h
    gamma2 = 2 * _U / (1 - 2 * _U)
    d = d1 + math.sqrt(2) * gamma2 * (pi + d1)
    inverse = _relative_error(g) + 2 * g.rank * _U
    return (d + inverse * (pi + d)) / root_n * (1 + 2.0**-20)
