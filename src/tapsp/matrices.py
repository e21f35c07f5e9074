"""Distance-matrix kernels.

Weight matrices are square or rectangular numpy int64 arrays where the
sentinel INF stands for "no path". graphs.MAX_SPAN caps n*M so that every
value the kernels form stays below INF, and masked arithmetic never
overflows.

Bounded min-plus is the one product in the package. The naive version
loops over the inner dimension with numpy broadcasting and is the test
reference. The fast one, dist_product_fast, takes a kernel, and each of
its three mechanisms is written once:

- Yuval's encoding in exact integers. "schoolbook" and "strassen" encode
  bounded entries as arbitrary-precision integers z**e, z = inner_dim + 1,
  by one lookup in a power table (_encode), multiply them over the plain
  integer ring, so the inner loop is one exact integer matrix product,
  and decode each entry's highest digit by a binary search of the same
  table (_decode_min). The two ring kernels give bit-identical results;
  "strassen" recurses while every side of a block exceeds
  STRASSEN_CUTOFF and multiplies smaller blocks by schoolbook.
- The same encoding in float64 exponents, radix 2**s (_minplus_float):
  one BLAS product, exact whatever the BLAS summation order or thread
  count. "numpy" (the default) takes it when float_window_admits the
  operands' finite ranges.
- Fixed-width relaxation (_relax): one pivot of the inner dimension at a
  time, in the narrowest integer dtype that holds every value formed.
  "numpy" falls back to it for wider products (_minplus_blocked), and
  minplus_closure is the same loop run in place as capped Floyd-Warshall;
  it takes no kernel.

window_square is the min-plus square of a matrix's first-index matrix
on a window [lo, hi]. It is the positive path's one product (every level
step) and the general path's uncertainty window
(threshold_general.target_distances). On the float route it is
_minplus_float on the matrix itself with both ranges set to the window,
so the first-index matrix is never formed; otherwise it forms that
matrix and calls dist_product_fast.

nonneg_distances is the one exact-distance routine, for the positive
path's primal distances and the general path's far distances when the
hitting set is every vertex. It encodes an arc list straight into the
float route at [0, win], win at most the widest float window W, and keeps
its matrix encoded between squares: one dgemm and one table lookup per
square, then one decode. It runs ceil(log2(hops)) squares whatever the
matrix, returns every pair within win exactly and INF elsewhere, and
neither scans for INF nor falls back: far_pairs.compute_delta_t, whose
cap may pass W, owns the minplus_closure fallback. It takes no kernel.

The kernel is the only product setting: every product call, down to
ring_matmul(a, b, kernel), takes kernel and nothing else, and
STRASSEN_CUTOFF is read at call time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

INF = np.int64(1) << np.int64(60)

# "strassen" multiplies by schoolbook once some side is at most this
STRASSEN_CUTOFF = 64

# Ceiling on the bits an encoded product of an l x m by an m x n matrix at
# bound b holds, with z = m + 1: the power table z**0 .. z**(4b + 1),
# about log2(z) * (4b + 1)**2 / 2 bits; the l*m + m*n encoded operand
# entries, up to 2b * log2(z) bits each; and the l*n product entries, up to
# 4b * log2(z) bits each. 2**30 bits (128 MiB) admits every encoded product
# the tests form: the largest is 3 x 2 x 3 at bound 5461 (3.8e8 bits, nearly
# all table), the widest 32 x 32 x 32 at bound 260 (1.3e7 bits). A 2 x 2
# product passes up to bound about 9200, a square one at n = 64 up to
# about 3000, at n = 512 about 50.
MAX_ENCODED_BITS = 1 << 30

# Largest (range_a + range_b) * s, s the bits per encoded digit, for which
# the numpy kernel multiplies in float64: every encoded term 2**-x with
# x <= 1020 stays a normal float64 (the least normal is 2**-1022).
FLOAT_EXP_BUDGET = 1020


class EntryBoundError(ValueError):
    """A matrix entry exceeded the declared bound for an encoded product."""


@dataclass
class OpCounters:
    """Cumulative operation counts, used by the bench command and tests."""

    ring_mults: int = 0
    minplus_relaxations: int = 0
    bool_ops: int = 0

    def reset(self) -> None:
        self.ring_mults = 0
        self.minplus_relaxations = 0
        self.bool_ops = 0

    def snapshot(self) -> dict:
        return {
            "ring_mults": self.ring_mults,
            "minplus_relaxations": self.minplus_relaxations,
            "bool_ops": self.bool_ops,
        }


COUNTERS = OpCounters()


def full_inf(rows: int, cols: int) -> np.ndarray:
    out = np.empty((rows, cols), dtype=np.int64)
    out.fill(INF)
    return out


def minplus_identity(n: int) -> np.ndarray:
    out = full_inf(n, n)
    np.fill_diagonal(out, 0)
    return out


def is_finite(a: np.ndarray) -> np.ndarray:
    return a < INF


def _check_inner(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} x {b.shape}")


def dist_product_naive(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min-plus product, C[i,j] = min_k a[i,k] + b[k,j]."""
    _check_inner(a, b)
    l, m = a.shape
    n = b.shape[1]
    COUNTERS.minplus_relaxations += l * m * n
    out = full_inf(l, n)
    for k in range(m):
        col = a[:, k]
        row = b[k, :]
        ok = is_finite(col)[:, None] & is_finite(row)[None, :]
        cand = col[:, None] + row[None, :]
        np.copyto(out, cand, where=ok & (cand < out))
    return out


def ring_matmul(a: np.ndarray, b: np.ndarray, kernel: str = "schoolbook") -> np.ndarray:
    """Exact integer matrix product over object arrays of Python ints.

    This is the ring behind the encoded kernels, so kernel is one of
    "schoolbook" and "strassen"; the "numpy" kernel never calls it.
    """
    _check_inner(a, b)
    if kernel == "schoolbook":
        return _schoolbook(a, b)
    if kernel == "strassen":
        return _strassen(a, b)
    raise ValueError(f"unknown ring kernel {kernel!r}")


def _schoolbook(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    l, m = a.shape
    n = b.shape[1]
    COUNTERS.ring_mults += l * m * n
    if l == 0 or m == 0 or n == 0:
        return np.zeros((l, n), dtype=object)
    return np.dot(a, b)


def _pad_even(x: np.ndarray) -> np.ndarray:
    """x with one zero row and one zero column added where its side is
    odd; the zeros are Python ints, like the entries."""
    rows, cols = x.shape
    out = np.zeros((rows + rows % 2, cols + cols % 2), dtype=object)
    out[:rows, :cols] = x
    return out


def _strassen(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Strassen's recursion on an l x m by m x n product while every side
    exceeds max(STRASSEN_CUTOFF, 2), schoolbook below. An odd side is
    padded with one zero row or column at that level, and the padding is
    cut from the result."""
    l, m = a.shape
    n = b.shape[1]
    if min(l, m, n) <= max(STRASSEN_CUTOFF, 2):
        return _schoolbook(a, b)
    a, b = _pad_even(a), _pad_even(b)
    r, h, c = (l + 1) // 2, (m + 1) // 2, (n + 1) // 2
    a11, a12, a21, a22 = a[:r, :h], a[:r, h:], a[r:, :h], a[r:, h:]
    b11, b12, b21, b22 = b[:h, :c], b[:h, c:], b[h:, :c], b[h:, c:]
    m1 = _strassen(a11 + a22, b11 + b22)
    m2 = _strassen(a21 + a22, b11)
    m3 = _strassen(a11, b12 - b22)
    m4 = _strassen(a22, b21 - b11)
    m5 = _strassen(a11 + a12, b22)
    m6 = _strassen(a21 - a11, b11 + b12)
    m7 = _strassen(a12 - a22, b21 + b22)
    out = np.empty((2 * r, 2 * c), dtype=object)
    out[:r, :c] = m1 + m4 - m5 + m7
    out[:r, c:] = m3 + m5
    out[r:, :c] = m2 + m4
    out[r:, c:] = m1 - m2 + m3 + m6
    return out[:l, :n]


def _finite_range(mat: np.ndarray) -> tuple:
    """Least and largest finite entry of mat, (0, 0) if it has none."""
    lo = int(mat.min(initial=INF))
    if lo == INF:
        return 0, 0
    return lo, int(np.where(is_finite(mat), mat, lo).max())


def dist_product_fast(a: np.ndarray, b: np.ndarray, bound: int | None = None,
                      kernel: str = "numpy") -> np.ndarray:
    """Min-plus product of matrices with bounded finite entries.

    Finite entries of both operands must lie in [-bound, bound]; bound
    defaults to the largest finite magnitude present.

    The ring kernels ("schoolbook", "strassen") encode each finite entry
    e as z**(bound - e) with radix z = inner_dim + 1 (so digit counts
    cannot carry) and INF as 0; after one exact integer product, the
    minimum is 2*bound minus the highest nonzero digit position. A product
    whose table, operands and result would hold more than MAX_ENCODED_BITS
    bits raises ValueError before anything is encoded.

    The "numpy" kernel runs the same encoding in float64 exponents, one
    BLAS product (see _minplus_float), when float_window_admits the
    operands' finite ranges; otherwise it relaxes the entries directly,
    see _minplus_blocked. One min/max scan per distinct operand serves the
    bound check and the route rule.
    """
    _check_inner(a, b)
    l, m = a.shape
    n = b.shape[1]
    if m == 0:
        return full_inf(l, n)
    ra = _finite_range(a)
    rb = ra if b is a else _finite_range(b)
    mags = [max(-lo, hi) for lo, hi in (ra, rb)]
    if bound is None:
        bound = max(mags)
    else:
        bound = int(bound)
        for mag in mags:
            if mag > bound:
                raise EntryBoundError(f"entry magnitude {mag} exceeds bound {bound}")
    if kernel == "numpy":
        if float_window_admits(m, ra[1] - ra[0], rb[1] - rb[0]):
            return _minplus_float(a, ra, b, rb)
        return _minplus_blocked(a, b, bound)
    z = m + 1
    # base-z digits held by the power table, the operands and the result
    digits = ((4 * bound + 1) ** 2 / 2 + 2 * bound * (l * m + m * n)
              + 4 * bound * l * n)
    if math.log2(z) * digits > MAX_ENCODED_BITS:
        raise ValueError(f"encoded {l}x{m}x{n} product at bound {bound}: power "
                         f"table, operands and result past {MAX_ENCODED_BITS} "
                         f"bits; use the numpy kernel")
    pows = np.empty(4 * bound + 2, dtype=object)
    pows[0] = 1
    for e in range(1, len(pows)):
        pows[e] = pows[e - 1] * z
    prod = ring_matmul(_encode(a, bound, pows), _encode(b, bound, pows), kernel)
    return _decode_min(prod, bound, pows)


def _encode(mat: np.ndarray, bound: int, pows: np.ndarray) -> np.ndarray:
    """z**(bound - e) for each finite entry e of mat, 0 for INF: one
    lookup in pows[:2 bound + 1] with a 0 slot at index 2 bound + 1."""
    table = np.zeros(2 * bound + 2, dtype=object)
    table[:-1] = pows[:2 * bound + 1]
    return table.take(np.where(is_finite(mat), bound - mat, 2 * bound + 1))


def _decode_min(prod: np.ndarray, bound: int, pows: np.ndarray) -> np.ndarray:
    """2 bound - p for each entry c of an encoded product, p its highest
    nonzero base-z digit position; INF where c is 0.

    Every digit counts at most inner_dim < z terms, so no digit carries
    and z**p <= c < z**(p + 1): p is the last index of pows (z**0 ..
    z**(4 bound + 1), ascending) whose entry is at most c, and c = 0
    lands before the table at p = -1."""
    p = np.searchsorted(pows, prod, side="right") - 1
    return np.where(p < 0, INF, 2 * bound - p)


def _digit_bits(m: int) -> int:
    """Bits s per float-route digit at inner dimension m: 2**s >= 4m."""
    return (4 * m - 1).bit_length()


def float_window_admits(m: int, width: int, width_b: int | None = None) -> bool:
    """Whether the numpy kernel multiplies on the float route at inner
    dimension m, for operands whose finite entries span width and width_b
    (default width): every encoded exponent sum, at most
    (width + width_b) s, stays within FLOAT_EXP_BUDGET. window_square
    on an n x n matrix asks it with m = n and width = hi - lo."""
    if width_b is None:
        width_b = width
    return (width + width_b) * _digit_bits(m) <= FLOAT_EXP_BUDGET


def widest_float_window(m: int) -> int:
    """The largest width with float_window_admits(m, width): the widest
    window [lo, lo + width] that window_square multiplies on the float
    route at inner dimension m, FLOAT_EXP_BUDGET // (2 s). At the budget
    1020 it is 72 at m = 32, 63 at m = 64, 56 at m = 65 .. 128 and 42 at
    m = 1024."""
    return FLOAT_EXP_BUDGET // (2 * _digit_bits(m))


def window_square(d: np.ndarray, lo: int, hi: int,
                  kernel: str = "numpy") -> np.ndarray:
    """Min-plus square of the first-index matrix of a square matrix d on
    the window [lo, hi], in d's units.

    The first-index matrix C maps entries <= lo to 0, entries in [lo, hi]
    to d - lo and entries above hi (INF included) to INF. The result is
    (C min-plus C) + 2 lo, and exactly INF where no term is finite.
    threshold_positive.level_step and threshold_general.target_distances
    say what it holds for their matrices; lo may be negative there.

    Under the numpy kernel, when float_window_admits(n, hi - lo), this is
    _minplus_float on d with both ranges given as (lo, hi): _pow2_encode
    clips an index below 0 to slot 0, which is C = 0, and one past
    hi - lo to the 0.0 slot, which is INF, so C is never formed, and the
    decode offset lo + lo adds the 2 lo. Every encoded exponent lies in
    [0, (hi - lo) s], so _minplus_float's exactness proof holds as it
    stands, and no range scan runs, since the window fixes the range.
    Any other case forms C and calls dist_product_fast at bound hi - lo.
    """
    if kernel == "numpy" and float_window_admits(d.shape[0], hi - lo):
        return _minplus_float(d, (lo, hi), d, (lo, hi))
    first = np.where(d <= hi, np.maximum(d, lo) - lo, INF)
    sq = dist_product_fast(first, first, bound=hi - lo, kernel=kernel)
    return np.where(is_finite(sq), sq + 2 * lo, INF)


def _pow2_encode(mat: np.ndarray, lo: int, hi: int, s: int) -> np.ndarray:
    """2.0**(-(e - lo) * s) for each entry e of mat in [lo, hi]; an entry
    below lo encodes as lo (its index e - lo clips to slot 0), and one
    above hi, INF included, as 0.0 (it clips to the table's last slot).
    At lo = 0 the index is mat itself."""
    return _pow2_table(hi - lo, s).take(mat - lo if lo else mat, mode="clip")


@functools.lru_cache(maxsize=None)
def _pow2_table(top: int, s: int) -> np.ndarray:
    """2.0**(-x s) for x = 0..top, then one 0.0 slot. The float route
    keeps top s within FLOAT_EXP_BUDGET, so the keys are few."""
    out = np.zeros(top + 2)
    out[:-1] = np.ldexp(1.0, -s * np.arange(top + 1))
    out.flags.writeable = False
    return out


def _minplus_float(a: np.ndarray, ra: tuple, b: np.ndarray,
                   rb: tuple) -> np.ndarray:
    """Bounded min-plus as one float64 matrix product (Yuval's encoding).

    ra and rb are (lo, hi) ranges holding the finite entries of a and b
    that take part (see _pow2_encode), m is the inner dimension and
    s = (4m - 1).bit_length(), so 2**s >= 4m. With x = e - lo, each
    finite entry becomes 2**(-x s) and INF becomes 0, and S = ea @ eb is
    one dgemm. Callers take this route only when float_window_admits(m,
    range_a, range_b), range being hi - lo.

    Exactness. Each product term is 2**(-(xa + xb) s) with
    (xa + xb) s <= 1020: an exact power of two and a normal float64
    (>= 2**-1020), so the multiplications round nothing, and every nonzero
    partial sum is normal too. Let e* be the least xa + xb over finite
    pairs. The true sum S has at least one term 2**(-e* s) and at most m
    terms, none larger, so S lies in [2**(-e* s), m 2**(-e* s)], and
    m <= 2**(s - 2). dgemm forms each entry as a sum of the m products in
    some order, with or without FMA (BLAS runs no fast matrix product), and
    a floating sum of m nonnegative terms, in any order, has relative
    error at most g = (m - 1) u / (1 - (m - 1) u), u = 2**-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 4), and g < 1/2
    for every m below 2**51. So the computed sum lies in
    [2**(-e* s - 1), 2**(s - 1 - e* s)), its frexp exponent E
    (sum = f 2**E, f in [1/2, 1)) lies in [-e* s, -e* s + s - 1], and
    (s - 1 - E) // s is exactly e*. BLAS blocking and thread count
    therefore cannot change the result. The minimum is e* plus both
    ranges' lo; S = 0 exactly where no pair is finite, and that entry is
    INF.
    """
    l, m = a.shape
    n = b.shape[1]
    COUNTERS.minplus_relaxations += l * m * n
    s = _digit_bits(m)
    ea = _pow2_encode(a, *ra, s)
    eb = ea if b is a else _pow2_encode(b, *rb, s)
    return _pow2_decode(ea @ eb, s, ra[0] + rb[0])


def _pow2_decode(total: np.ndarray, s: int, offset: int) -> np.ndarray:
    """The least exponent sum e* of each entry of an encoded product,
    (s - 1 - E) // s from frexp's exponent E, plus offset; INF where the
    entry is 0. _minplus_float proves it exact.

    E is read from the bits: a nonzero entry is a normal float64 in
    [2**-1020, m], m <= 2**(s - 2), whose 11-bit biased exponent field is
    b = E + 1022 <= s + 1021, and 0.0 has b = 0. So one lookup in
    _digit_table(s, offset), indexed by b, decodes every entry, INF
    included."""
    return _digit_table(s, offset).take(total.view(np.int64) >> 52)


@functools.lru_cache(maxsize=64)
def _digit_table(s: int, offset: int) -> np.ndarray:
    """(s - 1 - E) // s + offset for each biased exponent field
    b = E + 1022 = 1 .. s + 1021, and INF at b = 0. Read-only, and cached
    per (s, offset)."""
    out = (s + 1021 - np.arange(s + 1022, dtype=np.int64)) // s + offset
    out[0] = INF
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=64)
def _chain_tables(s: int, win: int) -> tuple:
    """The two tables nonneg_distances reads by the biased exponent field
    b of an encoded square, indexed like _digit_table(s, 0), whose digit
    x they truncate at win: 2.0**(-x s) and x where x <= win, 0.0 and INF
    elsewhere (b = 0 included, as its digit is INF). Read-only; cached per
    (s, win)."""
    x = _digit_table(s, 0)
    idx = np.where(x <= win, x, win + 1)
    square = _pow2_table(win, s).take(idx)
    square.flags.writeable = False
    decode = np.where(idx <= win, idx, INF)
    decode.flags.writeable = False
    return square, decode


def _narrowest_int(top: int) -> type:
    """The narrowest of int16, int32 and int64 that holds top."""
    return next((t for t in (np.int16, np.int32) if top <= np.iinfo(t).max),
                np.int64)


def _relax(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out = min(out, a min-plus b) in place, one pivot k of the inner
    dimension at a time: out = min(out, a[:, k] + b[k, :]). With
    out = a = b it is in-place Floyd-Warshall."""
    l, m = a.shape
    COUNTERS.minplus_relaxations += l * m * b.shape[1]
    tmp = np.empty_like(out)
    for k in range(m):
        np.add(a[:, k, None], b[k], out=tmp)
        np.minimum(out, tmp, out=out)
    return out


def _minplus_blocked(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """Bounded min-plus by fixed-width relaxation (_relax).

    INF becomes the sentinel 3*bound + 1. A sum of two finite entries lies
    in [-2*bound, 2*bound]; a sum that uses a sentinel is at least
    3*bound + 1 - bound = 2*bound + 1. Minima above 2*bound are therefore
    exactly the pairs with no finite term, and map back to INF. The
    largest value formed is the double sentinel top = 2*(3*bound + 1),
    the start value of every result entry, so the relaxation runs in
    _narrowest_int(top): int16 up to bound 5460, int32 up to bound
    357913940, int64 above.
    """
    sentinel = 3 * bound + 1
    dtype = _narrowest_int(2 * sentinel)
    sa = np.where(is_finite(a), a, sentinel).astype(dtype, copy=False)
    sb = np.where(is_finite(b), b, sentinel).astype(dtype, copy=False)
    out = np.full((a.shape[0], b.shape[1]), 2 * sentinel, dtype=dtype)
    out = _relax(out, sa, sb).astype(np.int64, copy=False)
    out[out > 2 * bound] = INF
    return out


def minplus_closure(w: np.ndarray, cap: int) -> np.ndarray:
    """Distances up to cap (INF beyond) of a square nonnegative weight
    matrix w (INF for no arc), by in-place Floyd-Warshall: _relax with
    out = a = b = d. Raises ValueError on a negative entry.

    Entries above cap become the sentinel s = cap + 1, and pivot k sets
    d = min(d, d[:, k] + d[k, :]). Every entry stays in [0, s]: min never
    raises a value, and a sum that uses s is at least s. So the relaxation
    runs in _narrowest_int(2s), 2s being the largest sum: int16 up to
    cap = 16382, int32 up to cap = 1073741822, int64 above.

    Exactness. Let D_k[i, j] be the least weight of an arc sequence from i
    to j, weighed by w, whose inner vertices all lie below k (D_0 = w).
    Before pivot k, d = D_k where D_k <= cap and d = s elsewhere. At pivot
    k, a D_(k+1)[i, j] <= cap is either D_k[i, j], already held, or
    D_k[i, k] + D_k[k, j]; with nonnegative weights both halves are
    subpaths of weight <= cap, so both are held exactly. Every other sum
    is the weight of an arc sequence through k, so at least D_(k+1)[i, j],
    or it uses s and is at least s. If D_(k+1)[i, j] > cap, d[i, j] is s
    and every sum is at least s. After n pivots d holds D_n, which is the
    distance matrix when w has a 0 diagonal.
    """
    if (w < 0).any():
        raise ValueError("minplus_closure needs nonnegative weights")
    s = int(cap) + 1
    d = np.where(w <= cap, w, s).astype(_narrowest_int(2 * s))
    out = _relax(d, d, d).astype(np.int64)
    out[out > cap] = INF
    return out


def nonneg_distances(n: int, arcs: tuple, win: int, hops: int) -> np.ndarray:
    """Distances up to win (INF beyond) of the n-vertex graph with arcs
    (u, v, w): 0-based int arrays, w >= 0, no self-loops and no repeated
    pair, as graphs.Graph.arcs and far_pairs._reweighted give them;
    given that some shortest path of every pair within win has at most
    hops arcs. The one exact-distance routine:
    threshold_positive.primal_distances and far_pairs.compute_delta_t
    call it. Takes no kernel.

    Precondition: win <= W = widest_float_window(n), which the exactness
    proof needs; a wider win raises ValueError. The routine neither scans
    for INF nor falls back to minplus_closure: a caller whose cap passes
    W does (compute_delta_t).

    Let T truncate a matrix at win (entries above it become INF). The
    routine squares D = T(w) exactly r = ceil(log2(hops)) times,
    D <- T(D min-plus D), and keeps D encoded between squares as
    _pow2_encode does at [0, win] with s = _digit_bits(n): 2**(-x s) for
    an entry x, 0.0 for INF. The arcs are encoded directly: 1.0 on the
    diagonal (x = 0), 0.0 where there is no arc, and _pow2_table(win, s)
    at each arc's weight, a weight past win clipping to the table's 0.0
    slot, which are the bits _pow2_encode gives the weight matrix with a
    0 diagonal. A square is then one dgemm e @ e and one lookup by the
    product's biased exponent fields in the first of _chain_tables(s,
    win). That lookup is _pow2_decode's digit, exact by _minplus_float's
    proof (every x is at most win <= W, as there), then T, then
    _pow2_encode: the chain forms exactly T(window_square(D, 0, win)) at
    each square. The second table decodes the last product's fields to
    int64 (x, or INF past win). With no square run it decodes e itself:
    2**(-x s) has field 1023 - x s, whose digit is x. Every square adds
    n**3 to COUNTERS.minplus_relaxations. The square count depends on
    hops alone, as in the paper's repeated squaring: an exit at a square
    that changes nothing measured slower at n = 32 and 64, and saved
    about 20% at n = 128 with two BLAS threads but nothing with one.

    Exactness. A square takes D'[u, v] = min over x of D[u, x] + D[x, v]
    where that is within win, and INF otherwise. Every term is the weight
    of a walk, so D >= dist throughout, and the diagonal stays 0. A
    shortest path weighs at most win only if each of its subpaths does,
    as weights are nonnegative, and each subpath is itself shortest. So
    a pair with dist(u, v) <= win is exact after j squares when some
    shortest u-v path has at most 2**j arcs: for j = 0 that is T(w); for
    j + 1, cut the path into two halves of at most 2**j arcs each, both
    exact and within win, so their sum is a term. Hence after r squares
    every such pair is exact, and every other entry is INF, as D >= dist.
    """
    if win > widest_float_window(n):
        raise ValueError(f"window {win} past the widest float window "
                         f"{widest_float_window(n)} at n = {n}")
    s = _digit_bits(n)
    square, decode = _chain_tables(s, win)
    u, v, w = arcs
    e = np.eye(n)
    e[u, v] = _pow2_table(win, s).take(w, mode="clip")
    bits = e.view(np.int64) >> 52
    for left in reversed(range(max(hops - 1, 0).bit_length())):
        COUNTERS.minplus_relaxations += n ** 3
        bits = (e @ e).view(np.int64)
        bits >>= 52
        if left:  # the last product is decoded, not re-encoded
            e = square.take(bits)
    return decode.take(bits)


def truncate(a: np.ndarray, t: int) -> np.ndarray:
    """Keep entries with |e| <= t, everything else becomes INF."""
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    return np.where(np.abs(a) <= t, a, INF)


def scale_div_ceil(a: np.ndarray, k: int) -> np.ndarray:
    """Entrywise ceil(e / k), mathematical ceiling for negatives too."""
    if k < 1:
        raise ValueError("divisor must be >= 1")
    fin = is_finite(a)
    scaled = -((-a) // k)
    return np.where(fin, scaled, INF)

