"""Function tables and their transforms over finite abelian groups.

A FunctionTable holds its values as one numpy array indexed by element
index, and FunctionTable alone picks the dtype: an int table is int64 when
its L1 norm is below 2^62 and an object array of Python ints otherwise; a
complex table is complex128; a real table is float64, or an object array
when a value is a Fraction, which stays exact.  The L1 norm bounds every
partial sum and every transform value, so sums and Walsh butterflies over
an int64 table cannot overflow.  A product (a square, a power, a
transform value times another) is taken in int64 only under a stated
bound that keeps it and every partial sum below 2^63, as sum_of_squares
and structure.phi_k do; otherwise it is taken on Python ints or objects.

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

The butterfly runs in the constant-geometry layout of Pease (1968): each
of its log2 N levels reads the even and the odd entries of one buffer and
writes their sums and differences to the two contiguous halves of another,
so a level is two whole-array passes, whatever its span.  It makes the
additions of the in-place radix-2 butterfly, one per entry per level, in
the same level order, only at permuted addresses, and after log2 N levels
the permutation is the identity.  So every entry is still a partial Walsh
sum, at most the L1 norm in magnitude (the int64 rule above stands), and a
float level still rounds once per entry (transform_error's u per level).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .groups import GroupMismatchError, GroupSpec, MAX_TRANSFORM_ORDER, SizeLimitError

INT64_SAFE = 1 << 62
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
        if self.kind == "int":
            return sum_of_squares(mags)
        return sum((mags * mags).tolist())

    def support(self) -> list[int]:
        return np.flatnonzero(self.values).tolist()


def sum_of_squares(values: np.ndarray) -> int:
    """sum v^2 over an array of nonnegative integers, as a Python int: in
    int64 when max(v) * sum(v), which bounds it, is below 2^63, and in
    Python ints otherwise."""
    if values.dtype == np.int64:
        if int(values.max(initial=0)) * int(values.sum()) < 1 << 63:
            return int((values * values).sum())
        values = values.astype(object)
    return sum((values * values).tolist())


def _int_array(values) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array([int(v) for v in values], dtype=object)
    if max(int(arr.max()), -int(arr.min())) * arr.size < INT64_SAFE:
        return arr  # N * max|v| bounds the L1 norm
    # |-2^63| wraps to -2^63, which reads as 2^63 in uint64; summing the
    # two 32-bit halves apart keeps both sums exact up to 2^31 entries.
    mags = np.abs(arr).view(np.uint64)
    l1 = (int((mags >> 32).sum()) << 32) + int((mags & 0xFFFFFFFF).sum())
    return arr if l1 < INT64_SAFE else arr.astype(object)


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


def indicator(g: GroupSpec, indices: Sequence[int]) -> FunctionTable:
    vals = np.zeros(g.order, dtype=np.int64)
    vals[np.asarray(indices, dtype=np.int64)] = 1
    return FunctionTable(g, vals, "int")


# -- Walsh-Hadamard (2-groups) -------------------------------------------------


def _wht(arr: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard butterfly along axis 0 into a fresh array of arr's
    dtype and memory layout (of every column, when arr is a table of
    columns), in the constant-geometry layout of the module docstring.

    Level j adds and subtracts the pairs of entries whose indices differ in
    bit j, as the in-place butterfly's level of span 2^j does: the input
    index rotated right j times has bit j last, so the pairs are the even
    and odd entries, and writing their sums to the low half and their
    differences to the high half rotates the index once more.  The values
    are those of the in-place butterfly, bit for bit in floats too."""
    a = arr.copy(order="K")
    b = np.empty_like(a)
    half = a.shape[0] // 2
    for _ in range(a.shape[0].bit_length() - 1):
        even, odd = a[0::2], a[1::2]
        np.add(even, odd, out=b[:half])
        np.subtract(even, odd, out=b[half:])
        a, b = b, a
    return a


def wht_int(g: GroupSpec, values: Sequence[int]) -> np.ndarray:
    """Exact integer Walsh-Hadamard transform (self-inverse up to N).

    int64 when the values make an int64 table (whose L1 norm bounds every
    partial sum below 2^62), an object array of Python ints otherwise.
    """
    if not g.is_boolean_space:
        raise GroupMismatchError("Walsh-Hadamard path needs a 2-group")
    return _wht(FunctionTable(g, values, "int").values)


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


def dft(f: FunctionTable) -> FunctionTable:
    """Transform of f, indexed by character frequency index."""
    g = f.group
    if g.is_boolean_space and f.kind == "int":
        return FunctionTable(g, wht_int(g, f.values), "int")
    return FunctionTable(g, dft_columns(g, f.values[:, None])[:, 0], "complex")


def idft(fhat: FunctionTable) -> FunctionTable:
    """Inverse transform; exact on integer Walsh-Hadamard data."""
    g = fhat.group
    n = g.order
    if g.is_boolean_space and fhat.kind == "int":
        back = wht_int(g, fhat.values)
        if np.any(back % n):
            raise ValueError("table is not an integer transform on this group")
        return FunctionTable(g, back // n, "int")
    return FunctionTable(g, idft_columns(g, fhat.values[:, None])[:, 0], "complex")


def dft_columns(g: GroupSpec, table: np.ndarray) -> np.ndarray:
    """Transform of every column of an (N, k) table, in complex doubles:
    the float Walsh butterfly on 2-groups, fftn over the group axes
    elsewhere.  pocketfft runs the same one-dimensional transforms on a
    stack as on one table, so each column comes out as dft gives it, and
    transform_errors bounds its error."""
    return _transform_columns(g, table, inverse=False)


def idft_columns(g: GroupSpec, table: np.ndarray) -> np.ndarray:
    """Inverse transform of every column of an (N, k) table (see dft_columns)."""
    return _transform_columns(g, table, inverse=True)


def _transform_columns(g: GroupSpec, table: np.ndarray, inverse: bool) -> np.ndarray:
    if table.ndim != 2 or table.shape[0] != g.order:
        raise GroupMismatchError(f"need a table of shape ({g.order}, k), got {table.shape}")
    if g.order > MAX_TRANSFORM_ORDER and not g.is_boolean_space:
        raise SizeLimitError(f"dense transform beyond order {MAX_TRANSFORM_ORDER}")
    arr = np.asarray(table, dtype=np.complex128)
    if g.is_boolean_space:
        out = _wht(arr)
        return out / g.order if inverse else out
    # Coordinate 0 is the least significant index digit, hence the last
    # group axis of the C-order reshape.  Each column is transformed as one
    # contiguous row of a (k, N) stack, and comes back as one again.
    shape = tuple(reversed(g.factors))
    fn = np.fft.ifftn if inverse else np.fft.fftn
    rows = fn(arr.T.reshape(arr.shape[1], *shape), axes=tuple(range(1, len(shape) + 1)))
    return rows.reshape(arr.shape[1], g.order).T


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


@lru_cache(maxsize=None)
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
    return _error_scale(g) * _l2(f)


def transform_errors(g: GroupSpec, table: np.ndarray) -> np.ndarray:
    """transform_error of every column of an (N, k) table, as dft_columns
    transforms it: in floats, so nonzero on 2-groups too."""
    return _error_scale(g) * np.linalg.norm(table.astype(np.complex128), axis=0)


def _error_scale(g: GroupSpec) -> float:
    """(rho / (1 - rho) + 8u) sqrt(N): transform_error over ||f||_2."""
    return (_relative_error(g) + 8 * _U) * math.sqrt(g.order)


def _relative_error(g: GroupSpec) -> float:
    """rho / (1 - rho): the relative normwise error of one float transform
    of g, forward or inverse, before scaling (see transform_error)."""
    rho = (g.rank if g.is_boolean_space else sum(_axis_error(n) for n in g.factors)) * _U
    return rho / (1 - rho)


def _l2(f: FunctionTable) -> float:
    return float(np.linalg.norm(f.values.astype(np.complex128)))


def conv_error(g: GroupSpec, a: int, b: int) -> float:
    """A proven bound on every |z(x) - (f * h)(x)|, where f and h are 0/1
    indicators of sets of sizes a and b in g, f * h is their exact
    convolution and z = idft(y_f * y_h) is computed in complex doubles from
    float transforms y_f, y_h of f and h within transform_error of the
    exact ones (dft's, or the conjugates of a reflected set's: they carry
    the same bound).  So when it is below 1/2, rounding the real part of z
    gives f * h exactly.

    The indicators' norms are ||f||_1 = a and ||f||_2 = sqrt(a), so their
    transform errors are E_f = (rho / (1 - rho) + 8u) sqrt(N) sqrt(a) and
    E_h likewise with b.  With F, H the exact transforms, P = F H is the
    exact transform of f * h, ||F||_inf <= a, ||H||_inf <= b and ||P||_2 <=
    pi = min(a ||H||_2, b ||F||_2), where ||F||_2 = sqrt(N) sqrt(a):

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
    1 + 2^-20 covers evaluating this in doubles: the few dozen rounded
    operations and square roots on nonnegative terms lose under 2^-40
    relatively.
    """
    root_n = math.sqrt(g.order)
    rel = _relative_error(g)
    e_f = _error_scale(g) * math.sqrt(a)
    e_h = _error_scale(g) * math.sqrt(b)
    pi = root_n * min(a * math.sqrt(b), b * math.sqrt(a))
    d1 = a * e_h + b * e_f + e_f * e_h
    gamma2 = 2 * _U / (1 - 2 * _U)
    d = d1 + math.sqrt(2) * gamma2 * (pi + d1)
    inverse = rel + 2 * g.rank * _U
    return (d + inverse * (pi + d)) / root_n * (1 + 2.0**-20)
