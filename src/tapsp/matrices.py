"""Distance-matrix kernels.

Weight matrices are square or rectangular numpy int64 arrays where the
sentinel INF stands for "no path". graphs.MAX_SPAN caps n*M so that every
value the kernels form stays below INF, and masked arithmetic never
overflows.

Two min-plus product implementations are provided. The naive one loops
over the inner dimension with numpy broadcasting. The fast one takes a
kernel. "schoolbook" and "strassen" encode bounded entries as
arbitrary-precision integers z**e (Yuval's trick) and multiply them over
the plain integer ring, so the inner loop is one exact integer matrix
product; the two ring kernels give bit-identical results. "numpy" (the
default) relaxes the bounded entries directly in blocked int64
arithmetic. Polynomial squaring takes the same kernel choice: the ring
kernels square a radix-packed integer matrix, "numpy" runs float32 BLAS
products over the coefficient slabs. The "strassen" kernel recurses
until blocks have at most STRASSEN_CUTOFF rows and multiplies those by
schoolbook.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

INF = np.int64(1) << np.int64(60)

# largest operand side the "strassen" kernel multiplies by schoolbook
STRASSEN_CUTOFF = 64


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


def ring_matmul(a: np.ndarray, b: np.ndarray, kernel: str = "schoolbook",
                strassen_cutoff: int = STRASSEN_CUTOFF) -> np.ndarray:
    """Exact integer matrix product over object arrays of Python ints.

    This is the ring behind the encoded kernels, so kernel is one of
    "schoolbook" and "strassen"; the "numpy" kernel never calls it.
    """
    _check_inner(a, b)
    if kernel == "schoolbook":
        return _schoolbook(a, b)
    if kernel == "strassen":
        return _strassen_entry(a, b, strassen_cutoff)
    raise ValueError(f"unknown ring kernel {kernel!r}")


def _schoolbook(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    l, m = a.shape
    n = b.shape[1]
    COUNTERS.ring_mults += l * m * n
    if l == 0 or m == 0 or n == 0:
        return np.zeros((l, n), dtype=object)
    return np.dot(a, b)


def _strassen_entry(a: np.ndarray, b: np.ndarray, cutoff: int) -> np.ndarray:
    l, m = a.shape
    n = b.shape[1]
    size = max(l, m, n)
    if size <= cutoff or size <= 2:
        return _schoolbook(a, b)
    p = 1
    while p < size:
        p *= 2
    pa = np.zeros((p, p), dtype=object)
    pb = np.zeros((p, p), dtype=object)
    pa[:l, :m] = a
    pb[:m, :n] = b
    return _strassen(pa, pb, cutoff)[:l, :n]


def _strassen(a: np.ndarray, b: np.ndarray, cutoff: int) -> np.ndarray:
    n = a.shape[0]
    if n <= cutoff or n <= 2:
        return _schoolbook(a, b)
    h = n // 2
    a11, a12, a21, a22 = a[:h, :h], a[:h, h:], a[h:, :h], a[h:, h:]
    b11, b12, b21, b22 = b[:h, :h], b[:h, h:], b[h:, :h], b[h:, h:]
    m1 = _strassen(a11 + a22, b11 + b22, cutoff)
    m2 = _strassen(a21 + a22, b11, cutoff)
    m3 = _strassen(a11, b12 - b22, cutoff)
    m4 = _strassen(a22, b21 - b11, cutoff)
    m5 = _strassen(a11 + a12, b22, cutoff)
    m6 = _strassen(a21 - a11, b11 + b12, cutoff)
    m7 = _strassen(a12 - a22, b21 + b22, cutoff)
    out = np.empty((n, n), dtype=object)
    out[:h, :h] = m1 + m4 - m5 + m7
    out[:h, h:] = m3 + m5
    out[h:, :h] = m2 + m4
    out[h:, h:] = m1 - m2 + m3 + m6
    return out


def _derive_bound(a: np.ndarray, b: np.ndarray) -> int:
    best = 0
    for mat in (a, b):
        fin = mat[is_finite(mat)]
        if fin.size:
            best = max(best, int(np.abs(fin).max()))
    return best


def dist_product_fast(a: np.ndarray, b: np.ndarray, bound: int | None = None,
                      kernel: str = "numpy") -> np.ndarray:
    """Min-plus product of matrices with bounded finite entries.

    Finite entries of both operands must lie in [-bound, bound]; bound
    defaults to the largest finite magnitude present.

    The ring kernels ("schoolbook", "strassen") encode each finite entry
    e as z**(bound - e) with radix z = inner_dim + 1 (so digit counts
    cannot carry) and INF as 0; after one exact integer product, the
    minimum is 2*bound minus the highest nonzero digit position.

    The "numpy" kernel relaxes in int64 directly, see _minplus_blocked.
    """
    _check_inner(a, b)
    l, m = a.shape
    n = b.shape[1]
    if m == 0:
        return full_inf(l, n)
    if bound is None:
        bound = _derive_bound(a, b)
    else:
        bound = int(bound)
        for mat in (a, b):
            fin = mat[is_finite(mat)]
            if fin.size and int(np.abs(fin).max()) > bound:
                raise EntryBoundError(
                    f"entry magnitude {int(np.abs(fin).max())} exceeds bound {bound}")
    if kernel == "numpy":
        return _minplus_blocked(a, b, bound)
    z = m + 1
    pows = [1] * (4 * bound + 2)
    for e in range(1, len(pows)):
        pows[e] = pows[e - 1] * z
    enc_a = _encode(a, bound, pows)
    enc_b = _encode(b, bound, pows)
    prod = ring_matmul(enc_a, enc_b, kernel, STRASSEN_CUTOFF)
    return _decode_min(prod, bound, z, pows, l, n)


# elements of the (rows, inner, cols) temporary in one relaxation block
_BLOCK_ELEMS = 1 << 15


def _minplus_blocked(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """Bounded min-plus by blocked int64 relaxation.

    INF becomes the sentinel 3*bound + 1. A sum of two finite entries lies
    in [-2*bound, 2*bound]; a sum that uses a sentinel is at least
    3*bound + 1 - bound = 2*bound + 1. Minima above 2*bound are therefore
    exactly the pairs with no finite term, and map back to INF.
    """
    l, m = a.shape
    n = b.shape[1]
    COUNTERS.minplus_relaxations += l * m * n
    sentinel = np.int64(3 * bound + 1)
    sa = np.where(is_finite(a), a, sentinel)
    sb = np.where(is_finite(b), b, sentinel)
    out = np.empty((l, n), dtype=np.int64)
    rows = max(1, _BLOCK_ELEMS // max(1, m * n))
    for i0 in range(0, l, rows):
        i1 = min(i0 + rows, l)
        (sa[i0:i1, :, None] + sb[None, :, :]).min(axis=1, out=out[i0:i1])
    out[out > 2 * bound] = INF
    return out


def _encode(mat: np.ndarray, bound: int, pows: list) -> np.ndarray:
    fin = is_finite(mat)
    exps = np.where(fin, bound - mat, 0)
    flat_f = fin.ravel()
    flat_e = exps.ravel()
    out = np.empty(mat.size, dtype=object)
    for i in range(mat.size):
        out[i] = pows[flat_e[i]] if flat_f[i] else 0
    return out.reshape(mat.shape)


def _decode_min(prod: np.ndarray, bound: int, z: int, pows: list,
                l: int, n: int) -> np.ndarray:
    out = full_inf(l, n)
    logz = float(np.log2(z))
    top = 4 * bound
    flat = prod.ravel()
    res = out.ravel()
    for i in range(flat.size):
        c = flat[i]
        if not c:
            continue
        p = int((c.bit_length() - 1) / logz)
        if p > top:
            p = top
        while p < top and pows[p + 1] <= c:
            p += 1
        while p > 0 and pows[p] > c:
            p -= 1
        res[i] = 2 * bound - p
    return res.reshape(l, n)


def min_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return np.minimum(a, b)


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


def window_shift(a: np.ndarray, lo: int, hi: int, shift: int) -> np.ndarray:
    """Keep entries inside [lo, hi] shifted down by shift; others INF."""
    if lo > hi:
        raise ValueError("empty window")
    if hi >= int(INF):
        raise ValueError("window upper end must be finite")
    keep = (a >= lo) & (a <= hi)
    return np.where(keep, a - shift, INF)


def bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product over bitset rows."""
    _check_inner(a, b)
    l, m = a.shape
    n = b.shape[1]
    COUNTERS.bool_ops += l * m
    if m == 0 or n == 0:
        return np.zeros((l, n), dtype=bool)
    nbytes = (n + 7) // 8
    packed = np.packbits(b.astype(np.uint8), axis=1, bitorder="little")
    rows = [int.from_bytes(packed[k].tobytes(), "little") for k in range(m)]
    out = np.zeros((l, n), dtype=bool)
    for i in range(l):
        acc = 0
        for k in np.nonzero(a[i])[0]:
            acc |= rows[k]
        if acc:
            buf = np.frombuffer(acc.to_bytes(nbytes, "little"), dtype=np.uint8)
            out[i] = np.unpackbits(buf, count=n, bitorder="little").astype(bool)
    return out


@dataclass
class PolyMatrix:
    """Matrix of Boolean-coefficient polynomials, coeffs shape (n, n, s)."""

    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.ndim != 3 or self.coeffs.shape[0] != self.coeffs.shape[1]:
            raise ValueError("coeffs must have shape (n, n, s)")
        self.coeffs = self.coeffs.astype(bool)

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    @property
    def s(self) -> int:
        return self.coeffs.shape[2]

    def coefficient(self, q: int) -> np.ndarray:
        return self.coeffs[:, :, q]


def poly_square(p: PolyMatrix, kernel: str = "numpy") -> PolyMatrix:
    """Square a Boolean-polynomial matrix. Output has degree 2s - 2.

    The ring kernels pack entries into integers with radix n*s + 1: the
    coefficient of x**q in any product entry counts one term per (inner
    index, split) pair, at most n*s of them, so digits never carry and
    the Boolean coefficients of the square are exactly the nonzero
    digits. The "numpy" kernel multiplies coefficient slabs in float32,
    see _poly_square_slabs.
    """
    if kernel == "numpy":
        return _poly_square_slabs(p)
    n, s = p.n, p.s
    radix = n * s + 1
    weights = np.empty(s, dtype=object)
    w = 1
    for q in range(s):
        weights[q] = w
        w *= radix
    enc = np.dot(p.coeffs.reshape(n * n, s).astype(object), weights).reshape(n, n)
    prod = ring_matmul(enc, enc, kernel, STRASSEN_CUTOFF)
    out = np.zeros((n, n, 2 * s - 1), dtype=bool)
    flat = prod.ravel()
    oflat = out.reshape(n * n, 2 * s - 1)
    for i in range(flat.size):
        c = flat[i]
        q = 0
        while c:
            c, digit = divmod(c, radix)
            if digit:
                oflat[i, q] = True
            q += 1
    return PolyMatrix(out)


def _poly_square_slabs(p: PolyMatrix) -> PolyMatrix:
    """Boolean polynomial square by s float32 BLAS products.

    With A_q the coefficient slab of x**q, coefficient q of the square is
    the OR over i + j = q of the Boolean products A_i A_j. The slabs are
    stacked side by side into right = [A_0 | ... | A_{s-1}], so one
    product A_i @ right yields A_i A_j for every j, which lands on
    coefficients i .. i + s - 1. Each entry of A_i A_j counts at most n
    terms and n < 2**24, so float32 holds it exactly.
    """
    n, s = p.n, p.s
    COUNTERS.ring_mults += s * n * n * (s * n)
    right = np.ascontiguousarray(
        p.coeffs.transpose(0, 2, 1), dtype=np.float32).reshape(n, s * n)
    buf = np.empty((n, s * n), dtype=np.float32)
    # coefficient-major layout so every OR writes one contiguous slab
    out = np.zeros((n, 2 * s - 1, n), dtype=bool)
    for i in range(s):
        np.matmul(right[:, i * n:(i + 1) * n], right, out=buf)
        out[:, i:i + s, :] |= buf.reshape(n, s, n) > 0
    return PolyMatrix(out.transpose(0, 2, 1))
