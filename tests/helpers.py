"""Shared test utilities: instance generators and independent oracles.

The oracles here deliberately avoid the package's fast-path encodings so
that agreement between the two is meaningful evidence.
"""

import numpy as np

from tapsp import matrices
from tapsp.graphs import Graph, gen_mixed_ncf, make_graph
from tapsp.matrices import INF, dist_product_naive
from tapsp.sampling import Rng
from tapsp.schedule import build_schedule
from tapsp.threshold_general import build_levels
from tapsp.threshold_positive import level_step


def lower_strassen_cutoff(monkeypatch, cutoff: int) -> dict:
    """Set matrices.STRASSEN_CUTOFF to cutoff so that small products under
    the "strassen" kernel recurse. The returned dict counts, under the key
    "calls", the calls to matrices._strassen made from inside another one:
    the sub-products of Strassen's recursion, so it stays 0 unless some
    product was split."""
    counted = {"calls": 0}
    depth = [0]
    orig = matrices._strassen

    def wrapper(*args, **kwargs):
        if depth[0]:
            counted["calls"] += 1
        depth[0] += 1
        try:
            return orig(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(matrices, "STRASSEN_CUTOFF", cutoff)
    monkeypatch.setattr(matrices, "_strassen", wrapper)
    return counted


def schedule_levels(g: Graph, config, rng: Rng) -> list:
    """(level, partial matrix, scaled estimate) for every schedule level,
    built by threshold_general.build_levels, the loop
    prepare_general(g, config, rng, h) runs when its hitting set is below
    n. Where the hitting set is capped and prepare_general builds no
    levels, this still builds them all, so the level lemmas keep being
    checked on small instances."""
    sched = build_schedule(g.n, g.M, omega=config.omega,
                           force_beta=config.force_beta)
    return [(lev, pdm, est) for lev, (pdm, est)
            in zip(sched.levels, build_levels(g, sched, config, rng))]


def mixed_graph(n: int, density: float, M: int, seed: int) -> Graph:
    """Negative-cycle-free instance with weights in [-M, M], both signs."""
    return gen_mixed_ncf(n, density, M, seed)


def sc_positive_graph(n: int, density: float, M: int, seed: int) -> Graph:
    """Strongly connected: a full cycle backbone plus random extra arcs."""
    rng = Rng(seed)
    arcs = {}
    for u in range(1, n + 1):
        v = u % n + 1
        arcs[(u, v)] = rng.randint(1, M)
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u != v and (u, v) not in arcs and rng.unit() < density:
                arcs[(u, v)] = rng.randint(1, M)
    return make_graph(n, [(u, v, w) for (u, v), w in arcs.items()], M=M)


def sc_mixed_graph(n: int, density: float, M: int, seed: int) -> Graph:
    """Strongly connected, mixed-sign, negative-cycle-free."""
    return gen_mixed_ncf(n, density, M, seed, backbone=True)


def two_scc_graph(n: int, density: float, M: int, seed: int) -> Graph:
    """Two strongly connected mixed halves joined by arcs from the first
    half to the second only, so no vertex of the second reaches the
    first; negative-cycle-free, and every vertex has an out-arc and an
    in-arc."""
    k = n // 2
    rng = Rng(seed)
    arcs = list(sc_mixed_graph(k, density, M, seed).edges)
    arcs += [(u + k, v + k, w)
             for u, v, w in sc_mixed_graph(n - k, density, M, seed + 1).edges]
    arcs += [(u, v, rng.randint(-M, M)) for u in range(1, k + 1)
             for v in range(k + 1, n + 1) if rng.unit() < density]
    return make_graph(n, arcs, M=M)


def rand_dist_matrix(gen: np.random.Generator, rows: int, cols: int,
                     bound: int, inf_frac: float = 0.2) -> np.ndarray:
    """Random int64 matrix with entries in [-bound, bound] and some INF."""
    vals = gen.integers(-bound, bound + 1, size=(rows, cols)).astype(np.int64)
    mask = gen.random((rows, cols)) < inf_frac
    vals[mask] = INF
    return vals


def minplus_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pure-Python min-plus product, the slowest and most obvious way."""
    l, m = a.shape
    m2, r = b.shape
    assert m == m2
    out = np.empty((l, r), dtype=np.int64)
    for i in range(l):
        for j in range(r):
            best = INF
            for k in range(m):
                if a[i, k] < INF and b[k, j] < INF:
                    cand = a[i, k] + b[k, j]
                    if cand < best:
                        best = cand
            out[i, j] = best
    return out


def f_set_based(k: int, m_bound: int, base: int) -> set:
    """threshold_positive.f_set(k, M) with the recursion's base M + 1
    replaced by base: {0..k} once k <= base; otherwise k together with
    the closures of every index in [floor((k-M)/2), ceil((k+M)/2)]. The
    reference for level_plan(d, M, base), written without its interval
    arithmetic."""
    memo = {}

    def rec(i: int) -> frozenset:
        if i <= base:
            return frozenset(range(i + 1))
        if i not in memo:
            acc = {i}
            for j in range((i - m_bound) // 2, (i + m_bound + 1) // 2 + 1):
                acc |= rec(j)
            memo[i] = frozenset(acc)
        return memo[i]

    return set(rec(k))


def poly_square_direct(coeffs: np.ndarray) -> np.ndarray:
    """Boolean polynomial square by explicit convolution of coefficients."""
    n, _, s = coeffs.shape
    out = np.zeros((n, n, 2 * s - 1), dtype=bool)
    ints = coeffs.astype(np.int64)
    for q1 in range(s):
        for q2 in range(s):
            out[:, :, q1 + q2] |= (ints[:, :, q1] @ ints[:, :, q2]) > 0
    return out


def nested_coeffs(gen: np.random.Generator, n: int, s: int,
                  density: float) -> np.ndarray:
    """Coefficient slabs (n, n, s) of a nested Boolean family: slab q is
    contained in slab q + 1. A pair enters at a uniform index with
    probability density and is absent from every slab otherwise."""
    enters = gen.integers(0, s, size=(n, n))
    enters[gen.random((n, n)) >= density] = s
    return enters[:, :, None] <= np.arange(s)


def level_step_square(coeffs: np.ndarray, t_lo: int, kernel: str) -> np.ndarray:
    """level_step over the nested family coeffs, placed at indices
    t_lo .. t_lo + s - 1 and read at every target, stacked like
    poly_square_direct's output."""
    s = coeffs.shape[2]
    # each pair's first index in the family, INF where it never enters
    first = np.where(coeffs.any(axis=2), t_lo + coeffs.argmax(axis=2), INF)
    got = level_step(first, (t_lo, t_lo + s - 1), kernel=kernel)
    return got[:, :, None] <= np.arange(2 * t_lo, 2 * t_lo + 2 * s - 1)


def squaring_apsp(w: np.ndarray) -> np.ndarray:
    """Distances by repeated naive min-plus squaring; second oracle.

    Only valid without negative cycles.
    """
    n = w.shape[0]
    d = w.copy()
    np.fill_diagonal(d, np.minimum(np.diag(d), 0))
    rounds = max(1, int(np.ceil(np.log2(max(n, 2)))))
    for _ in range(rounds):
        d = np.minimum(d, dist_product_naive(d, d))
    return d


def unreachable_corner_graph(n: int, seed: int) -> Graph:
    """A mixed graph in which vertex n has no out-arc and vertex 1 no
    in-arc: an INF row and column in its distance matrix."""
    full = gen_mixed_ncf(n, min(1.0, 3 / n), 4, seed)
    arcs = [(u, v, w) for (u, v, w) in full.edges if u != n and v != 1]
    return make_graph(n, arcs, M=4)


def arcs_of(w: np.ndarray) -> tuple:
    """The arc list (u, v, w[u, v]) of a square weight matrix: its finite
    off-diagonal entries, 0-based and row-major, in the form
    matrices.nonneg_distances takes (Graph.arcs' form)."""
    u, v = np.nonzero((w < INF) & ~np.eye(w.shape[0], dtype=bool))
    return u, v, w[u, v]


def nonneg_distances_reference(w: np.ndarray, win: int, hops: int) -> np.ndarray:
    """matrices.nonneg_distances as a loop of int64 window_square(D, 0,
    win) squares on the weight matrix w (0 diagonal), each kept
    untruncated, then truncated at win. It has no encoded chain."""
    d = w.copy()
    for _ in range(max(hops - 1, 0).bit_length()):
        d = matrices.window_square(d, 0, win)
    return np.where(d <= win, d, INF)
