"""Function tables and their transforms over finite abelian groups.

A FunctionTable holds its values as one numpy array indexed by element
index, and FunctionTable alone picks the dtype: an int table is int64 when
its L1 norm is below 2^62 and an object array of Python ints otherwise; a
complex table is complex128; a real table is float64, or an object array
when a value is a Fraction, which stays exact.  The L1 norm bounds every
partial sum and every transform value, so sums and Walsh butterflies over
an int64 table cannot overflow.  A product (a square, a power, a
transform value times another) is taken in int64 only under a stated
bound that keeps it and every partial sum below 2^63, as power_sums (the
one kernel for sums of powers) and structure.phi_k do; else on Python ints.

The transform convention carries no 1/N factor:

    fhat(t) = sum_x f(x) * conj(chi_t(x)),

so the Parseval identity reads  N * sum_x |f(x)|^2 = sum_t |fhat(t)|^2.
On 2-groups the transform is the Walsh-Hadamard butterfly, exact on int
tables; on general groups it is the per-coordinate mixed-radix DFT
evaluated in complex doubles, and transform_error bounds how far the
computed values can be from the exact ones.  That bound is the one error
model of the package, written once: transform_errors evaluates it for
every column of a table and transform_error is its one-column call.
Every branch or asserted check read off a float transform goes through
it, and conv_errors, built on it and on the same per-axis constants,
bounds every convolution of a stack taken back through the inverse
transform.  transform_cost estimates a transform's work from the same
plan facts (which axes may run Bluestein's algorithm), for the cost rule
by which setstat counts set correlations.

The butterfly runs in the constant-geometry layout of Pease (1968): each
of its log2 N levels reads the even and the odd entries of one buffer and
writes their sums and differences to the two contiguous halves of another,
so a level is two whole-array passes, whatever its span.  It makes the
additions of the in-place radix-2 butterfly, one per entry per level, in
the same level order, only at permuted addresses, and after log2 N levels
the permutation is the identity.  So every entry is still a partial Walsh
sum, at most the L1 norm in magnitude (the int64 rule above stands), and a
float level still rounds once per entry (transform_error's u per level).

That bound also sets the butterfly's width.  Every caller of the integer
transform states a bound on its columns' L1 norms (the largest set size
for indicators, N ceil(sqrt(|A| |B|)) for setstat's product columns, the
table's own norm for wht_int), and a table of _RADIX4_CELLS cells or more
runs in int16 below 2^15, int32 below 2^31 and int64 otherwise, each
level's entries staying within the bound, then writes its last level
straight into the int64 output.  Such a table also takes two levels per
pass (radix 4, after one radix-2 level when log2 N is odd): the pass makes
the two levels' additions of the same operands in the same order, only
storing the first level's sums and differences in quarters rather than
interleaved, so its values are those of two radix-2 levels, bit for bit
in floats too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .groups import GroupMismatchError, GroupSpec

INT64_SAFE = 1 << 62
_U = 2.0**-53  # unit roundoff of binary64
_BLUESTEIN_MIN = 50  # pocketfft never takes Bluestein's algorithm below this length
# The fewest cells of a Walsh table that runs narrow, two levels per pass
# (_wht).  Measured: _wht timed whole with that path forced on and off, on
# N x k tables of N = 2^5..2^16 and k = 1..4 (0/1 indicators, width int16,
# and values of an int32 bound), numpy 2.4 on a 2-vCPU x86 VM.  At 2^12
# cells the path lost 2-20 us of 60-75 us; at 2^13 it tied or won up to
# 20 us of 100-115 us, and from 2^14 on it won 5-55%.
_RADIX4_CELLS = 1 << 13

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
            return power_sums(mags, 2)[0]
        return sum((mags * mags).tolist())


def power_sums(counts: np.ndarray, top: int) -> list:
    """sum_x c(x)^k for k = 2..top, as Python ints, of nonnegative integers:
    [s_2, ..., s_top] of an array, sums[k - 2][j] of column j of a table.
    Since sum_x c^k <= max(c)^(k - 1) sum_x c, an int64 column (whose sum
    fits int64) where that is below 2^63 at k = top is summed in int64, and
    any other in Python ints.  Only a table with columns on both sides is
    split into copies, so an int64 table summed in int64 is read in place."""
    table = counts[:, None] if counts.ndim == 1 else counts
    safe = np.zeros(table.shape[1], dtype=bool)
    if table.dtype == np.int64:
        peaks, masses = table.max(axis=0, initial=0).tolist(), table.sum(axis=0).tolist()
        safe[:] = [m ** (top - 1) * s < 1 << 63 for m, s in zip(peaks, masses)]
    sums = np.zeros((top - 1, table.shape[1]), dtype=object)
    for cols, dtype in ((safe, np.int64), (~safe, object)):
        part = (table if cols.all() else table[:, cols]).astype(dtype, copy=False)  # no masked copy of a whole table
        power = part * part
        for k in range(2, top + 1):
            sums[k - 2, cols] = power.sum(axis=0).tolist()
            if k < top:
                power *= part  # in place: one product table at a time
    return [row[0] for row in sums.tolist()] if counts.ndim == 1 else sums.tolist()


def _int_array(values) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array([int(v) for v in values], dtype=object)
    if _peak_bound(arr) < INT64_SAFE:
        return arr
    # |-2^63| wraps to -2^63, which reads as 2^63 in uint64; summing the
    # two 32-bit halves apart keeps both sums exact up to 2^31 entries.
    mags = np.abs(arr).view(np.uint64)
    l1 = (int((mags >> 32).sum()) << 32) + int((mags & 0xFFFFFFFF).sum())
    return arr if l1 < INT64_SAFE else arr.astype(object)


def _peak_bound(arr: np.ndarray) -> int:
    """N * max|v|, a bound on the L1 norm of an int64 array."""
    return max(int(arr.max()), -int(arr.min())) * arr.size


def indicator(g: GroupSpec, indices: Sequence[int]) -> FunctionTable:
    vals = np.zeros(g.order, dtype=np.int64)
    vals[np.asarray(indices, dtype=np.int64)] = 1
    return FunctionTable(g, vals, "int")


# -- Walsh-Hadamard (2-groups) -------------------------------------------------


def _width(bound: int):
    """The narrowest of int16, int32 and int64 that holds every integer of
    magnitude at most bound."""
    return np.int16 if bound < 1 << 15 else np.int32 if bound < 1 << 31 else np.int64


def _wht(arr: np.ndarray, bound: int | None = None) -> np.ndarray:
    """Walsh-Hadamard butterfly along axis 0 into a fresh array of arr's
    memory layout (of every column, when arr is a table of columns), in the
    constant-geometry layout of the module docstring.  An integer arr, each
    of whose columns has L1 norm at most bound < 2^62, comes out int64; a
    complex128 or object arr in its own dtype.

    Level j adds and subtracts the pairs of entries whose indices differ in
    bit j, as the in-place butterfly's level of span 2^j does: the input
    index rotated right j times has bit j last, so the pairs are the even
    and odd entries, and writing their sums to the low half and their
    differences to the high half rotates the index once more.

    A table of _RADIX4_CELLS cells or more computes in _width(bound) (its
    own dtype if not integer) and takes two levels per pass, after one
    radix-2 level when log2 N is odd.  A pass reads the entries x0..x3 at
    indices 4i..4i + 3, writes x0 + x1, x0 - x1, x2 + x3 and x2 - x3 to the
    quarters of a spare buffer, and then the sums and differences of its
    two halves, (x0 + x1) +- (x2 + x3) and (x0 - x1) +- (x2 - x3), to the
    quarters of its output, which rotates the index twice.  These are the
    two levels' additions of the same operands, so the values are those of
    the in-place butterfly, bit for bit in floats too.  Every ufunc
    computes in the pass's dtype, or, reading arr, in the wider of arr's
    dtype and that (where arr is wider, casting the output is cheaper).
    The passes before the last keep their output in a narrow view of the
    output's memory (_narrow_view), which the last pass reads into the
    spare buffer before it writes the int64 output: no table is cast back,
    and the narrow path allocates less than the int64 one.  A smaller
    table runs one level per pass in its output dtype: there a pass's
    extra numpy calls cost more than its narrower reads save."""
    n = arr.shape[0]
    levels = n.bit_length() - 1
    out = np.empty_like(arr, dtype=np.int64 if arr.dtype.kind == "i" else arr.dtype)
    fours = levels // 2 if arr.size >= _RADIX4_CELLS else 0
    work = _width(bound) if fours and out.dtype == np.int64 else out.dtype
    home = out if work == out.dtype else _narrow_view(out, work)
    spare = np.empty_like(arr, dtype=work)
    half, quarter = n // 2, n // 4
    # the first pass reads arr in the wider of its dtype and work
    step = np.promote_types(arr.dtype, work)
    # the radix-2 levels alternate between spare and home, ending in home
    src, dst, other = (arr, home, spare) if (levels - 2 * fours) % 2 else (arr, spare, home)
    for _ in range(levels - 2 * fours):
        even, odd = src[0::2], src[1::2]
        np.add(even, odd, out=dst[:half], dtype=step)
        np.subtract(even, odd, out=dst[half:], dtype=step)
        src, dst, other, step = dst, other, dst, work
    for left in range(fours - 1, -1, -1):
        dst = home if left else out
        x0, x1, x2, x3 = src[0::4], src[1::4], src[2::4], src[3::4]
        np.add(x0, x1, out=spare[:quarter], dtype=step)
        np.subtract(x0, x1, out=spare[quarter:half], dtype=step)
        np.add(x2, x3, out=spare[half : half + quarter], dtype=step)
        np.subtract(x2, x3, out=spare[half + quarter :], dtype=step)
        np.add(spare[:half], spare[half:], out=dst[:half], dtype=work)
        np.subtract(spare[:half], spare[half:], out=dst[half:], dtype=work)
        src, step = dst, work
    return out


def _narrow_view(out: np.ndarray, work) -> np.ndarray:
    """An array of out's shape and layout, packed in dtype work at the start
    of out's memory."""
    flip = out.ndim == 2 and not out.flags.c_contiguous
    base = out.T if flip else out
    view = base.reshape(-1).view(work)[: out.size].reshape(base.shape)
    return view.T if flip else view


def wht_int(g: GroupSpec, values: Sequence[int]) -> np.ndarray:
    """Exact integer Walsh-Hadamard transform (self-inverse up to N).

    int64 when the values make an int64 table (whose L1 norm bounds every
    partial sum below 2^62), an object array of Python ints otherwise.  The
    butterfly's width comes from _peak_bound, or from the L1 norm itself
    where that bound is 2^15 or more.
    """
    if not g.is_boolean_space:
        raise GroupMismatchError("Walsh-Hadamard path needs a 2-group")
    arr = FunctionTable(g, values, "int").values
    if arr.dtype == object or arr.size < _RADIX4_CELLS:
        return _wht(arr)  # no width to pick
    bound = _peak_bound(arr)
    if bound >= 1 << 15:  # an int64 table's L1 norm is below 2^62: its int64 sum is exact
        bound = int(arr.sum()) if arr.min() >= 0 else int(np.abs(arr).sum())
    return _wht(arr, bound)


def wht_int_columns(g: GroupSpec, table: np.ndarray, bound: int) -> np.ndarray:
    """Exact integer Walsh-Hadamard transform of every column of an (N, k)
    integer table, as int64.  The caller states bound < 2^62, at least each
    column's L1 norm, which bounds every partial sum of the butterflies, and
    _wht runs them at the narrowest width that holds it."""
    if not g.is_boolean_space:
        raise GroupMismatchError("Walsh-Hadamard path needs a 2-group")
    if table.dtype.kind != "i" or table.ndim != 2 or table.shape[0] != g.order:
        raise GroupMismatchError(f"need an integer table of shape ({g.order}, k), got {table.dtype} {table.shape}")
    return _wht(table, bound)


# -- mixed-radix DFT -------------------------------------------------------------


def dft(f: FunctionTable) -> FunctionTable:
    """Transform of f, indexed by character frequency index."""
    g = f.group
    if g.is_boolean_space and f.kind == "int":
        return FunctionTable(g, wht_int(g, f.values), "int")
    return FunctionTable(g, dft_columns(g, f.values[:, None])[:, 0], "complex")


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
    g.require_transform()
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


def _may_take_bluestein(n: int, primes: list[int]) -> bool:
    """Whether pocketfft may run a length-n axis by Bluestein's algorithm."""
    return n >= _BLUESTEIN_MIN and primes[-1] ** 2 > n


@lru_cache(maxsize=None)
def _axis_error(n: int) -> float:
    """Relative normwise error of a length-n pocketfft transform, over u."""
    primes = prime_factors(n)
    mixed = sum(7.0 if p == 2 else math.sqrt(p) * (p + 3) + 7 for p in primes)
    if not _may_take_bluestein(n, primes):
        return mixed
    return max(mixed, 8 * math.sqrt(n) * (16 * math.log2(4 * n) + 1))


@lru_cache(maxsize=None)
def _axis_cost(n: int) -> float:
    """Work per entry of a length-n pocketfft transform, in radix-2 levels
    (log2 n when n is a power of two), by pocketfft's own plan estimate: a
    prime factor p costs p / 2 levels, 1.1 p / 2 past 5.  An axis that may
    take Bluestein's algorithm (the test of _axis_error) costs the cheaper
    of that and Bluestein's, as pocketfft picks the plan: two transforms of
    the least 11-smooth length M >= 2n - 1, which pocketfft weighs by 1.5."""
    def levels(primes: list[int]) -> float:
        return sum(1.0 if p == 2 else p / 2 if p <= 5 else 1.1 * p / 2 for p in primes)

    primes = prime_factors(n)
    if not _may_take_bluestein(n, primes):
        return levels(primes)
    m = 2 * n - 1
    while max(prime_factors(m)) > 11:
        m += 1
    return min(levels(primes), 3 * m / n * levels(prime_factors(m)))


def transform_cost(g: GroupSpec) -> float:
    """Work of one transform of g, in radix-2 levels summed over its
    entries: N times the sum of the axes' _axis_cost, so N log2 N when
    every axis is a power of two (the Walsh butterfly of a 2-group too)."""
    return g.order * sum(_axis_cost(n) for n in g.factors)


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
    It is the one-column call of transform_errors.
    """
    g = f.group
    if g.is_boolean_space and f.kind == "int":
        return 0.0
    return float(transform_errors(g, f.values[:, None])[0])


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


def conv_errors(g: GroupSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For every j, as a float64 array, a proven bound on every
    |z(x) - (f * h)(x)|, where f and h are 0/1 indicators of sets of sizes
    a = a[j] and b = b[j] in g, f * h is their exact convolution and
    z = idft_columns(y_f * y_h) is computed in complex doubles from
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
    relatively.  Every step is elementwise (numpy's sqrt is correctly
    rounded), and the group's constants are evaluated once; the stacked
    pair counts of setstat decide all their columns in one call.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    root_n = math.sqrt(g.order)
    rel = _relative_error(g)
    scale = _error_scale(g)
    e_f = scale * np.sqrt(a)
    e_h = scale * np.sqrt(b)
    pi = root_n * np.minimum(a * np.sqrt(b), b * np.sqrt(a))
    d1 = a * e_h + b * e_f + e_f * e_h
    gamma2 = 2 * _U / (1 - 2 * _U)
    d = d1 + math.sqrt(2) * gamma2 * (pi + d1)
    inverse = rel + 2 * g.rank * _U
    return (d + inverse * (pi + d)) / root_n * (1 + 2.0**-20)
