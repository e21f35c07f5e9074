"""Deterministic threshold decisions for weights in {1..M}.

A_k denotes the Boolean matrix of pairs at distance <= k. Small k (up to
M + 1) come straight from the distances capped at M + 1: when the float
route admits the window [0, M + 1] (2 (M + 1) s <= 1020, s the bit
length of 4n - 1), ceil(log2(min(M + 1, n - 1))) window squares of the
weight matrix, and otherwise one Floyd-Warshall closure
(matrices.minplus_closure). Past n M, A_k is the reachability matrix.
Large k in between are built top-down: the target set {d} expands level
by level into intervals of indices roughly halving each time. The paper
turns the family of a deeper level into the family of the one above it
by squaring a matrix of Boolean polynomials. A nested family is one
integer matrix D with (D <= k) = A_k, so each level is carried as such a
matrix, and the square is one bounded min-plus product of the "first
index" matrix (Yuval 1976): each level costs one matrices.window_square
call, which on the numpy float route encodes D directly and never forms
the first-index matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, to_matrix, transitive_closure
from .matrices import INF, float_window_admits, minplus_closure, window_square
from .threshold_general import ThresholdReport


def f_set(k: int, m_bound: int) -> set:
    """Index closure of the halving recursion rooted at k.

    {0..k} once k <= M + 1; otherwise k together with the closures of
    every index in [floor((k-M)/2), ceil((k+M)/2)].
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if m_bound < 1:
        raise ValueError("M must be >= 1")
    memo = {}

    def rec(i: int) -> frozenset:
        got = memo.get(i)
        if got is not None:
            return got
        if i <= m_bound + 1:
            out = frozenset(range(i + 1))
        else:
            lo = (i - m_bound) // 2
            hi = -((-(i + m_bound)) // 2)
            acc = {i}
            for j in range(lo, hi + 1):
                acc |= rec(j)
            out = frozenset(acc)
        memo[i] = out
        return out

    return set(rec(k))


@dataclass(frozen=True)
class LevelPlan:
    d: int
    M: int
    levels: tuple  # (lo, hi) index intervals, level 0 first


def level_plan(d: int, m_bound: int) -> LevelPlan:
    """Intervals of indices touched per recursion level, top down.

    Level 0 is {d}; level j+1 collects the expansion intervals of every
    non-primal index (> M + 1) of level j. Construction stops at the
    first all-primal level. Each interval is contiguous and never wider
    than 2M + 3.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    if m_bound < 1:
        raise ValueError("M must be >= 1")
    levels = [(d, d)]
    lo, hi = d, d
    while hi > m_bound + 1:
        src_lo = max(lo, m_bound + 2)
        lo = (src_lo - m_bound) // 2
        hi = (hi + m_bound + 1) // 2
        levels.append((lo, hi))
    return LevelPlan(d=d, M=m_bound, levels=tuple(levels))


def primal_distances(g: Graph) -> np.ndarray:
    """Distances up to M + 1 (INF beyond), so that (primal <= k) = A_k for
    k = 0..M+1. Takes no kernel.

    When the numpy float route admits the window [0, M + 1] at n
    (matrices.float_window_admits), they are r = ceil(log2(min(M + 1,
    n - 1))) window squares of the weight matrix w at [0, M + 1] (r = 0
    for n <= 2), with entries past M + 1 set to INF. Otherwise they are
    matrices.minplus_closure(w, M + 1): at caps that wide, squaring by
    fixed-width relaxation loses to Floyd-Warshall.

    Exactness of the squares. On [0, M + 1] the first-index matrix of a
    nonnegative D is D truncated at M + 1, so each square takes
    D'[u, v] = min over x of D[u, x] + D[x, v], both terms within M + 1.
    Every term is the weight of a walk, so D' >= dist throughout. After
    j squares, D holds dist(u, v) exactly whenever dist(u, v) <= M + 1
    and some shortest u-v path has at most 2**j arcs: for j = 0 that is w
    (zero diagonal); for j + 1, cut such a path at a vertex x into two
    halves of at most 2**j arcs each. Both are shortest paths and, with
    nonnegative weights, weigh at most dist(u, v) <= M + 1, so D holds
    both exactly inside the window, and their sum is a term. Truncating
    at the window therefore loses nothing, for the same reason as in
    minplus_closure. With weights >= 1 a path of weight <= M + 1 has at
    most M + 1 arcs, and a shortest path at most n - 1, so after r squares
    every pair within M + 1 is exact and every other entry exceeds M + 1.
    """
    bad = g.arcs[2][g.arcs[2] < 1]
    if bad.size:
        raise ValueError(f"non-positive weight {bad[0]}; this path needs weights in 1..M")
    w = to_matrix(g)
    cap = g.M + 1
    if not float_window_admits(g.n, cap):
        return minplus_closure(w, cap)
    for _ in range(max(min(cap, g.n - 1) - 1, 0).bit_length()):
        w = window_square(w, 0, cap)
    np.putmask(w, w > cap, INF)
    return w


def level_step(dist: np.ndarray, source: tuple, kernel: str = "numpy") -> np.ndarray:
    """One level's matrix R from the matrix dist of the level below.

    dist must bound the distances from above, with (dist <= i) = A_i for
    every i in the source window [t_lo, t_hi]. For k in [2 t_lo, 2 t_hi],
    (R <= k) is then the union over splits i + (k - i) = k with both
    halves in the window of A_i A_(k-i): the coefficient of
    x**(k - 2 t_lo) in the square of sum_q A_(t_lo+q) x**q, which is A_k
    when the window covers k's expansion interval.

    Proof. The window is nested (A_i a subset of A_(i+1)), so
    C = max(dist, t_lo) - t_lo where dist <= t_hi (INF elsewhere) is the
    least i in the window with A_i[u, v], minus t_lo, and
    R = (C min-plus C) + 2 t_lo, which is matrices.window_square. If
    A_i[u, w] and A_j[w, v] with i + j = k, then
    C[u, w] + C[w, v] <= k - 2 t_lo. Conversely, take w
    with a = C[u, w] + t_lo, b = C[w, v] + t_lo and a + b <= k. Put
    i = min(t_hi, k - b) and j = k - i: then t_lo <= a <= i <= t_hi and
    t_lo <= b <= j <= t_hi (if i = t_hi, j = k - t_hi <= t_hi), and by
    nesting A_i[u, w] and A_j[w, v] hold, since A_a[u, w] and A_b[w, v]
    do. A pair within t_lo is in every such union: C[u, v] = C[u, u] = 0
    (diagonal distances are 0), so R[u, v] <= 2 t_lo <= k.

    Soundness: every term of R[u, v] is max(dist[u, w], t_lo) +
    max(dist[w, v], t_lo) >= dist(u, w) + dist(w, v), so R bounds the
    distances from above and a pair it reports at any k is within k.

    The caller keeps minimum(primal, R), and (minimum <= k) =
    (primal <= k) | (R <= k). For k <= M + 1, R <= k implies dist <= k,
    which primal <= k already holds, so those indices stay exact. For a
    target k > M + 1, primal <= k only holds pairs within M + 1 < k,
    which A_k = (R <= k) contains.
    """
    t_lo, t_hi = source
    return window_square(dist, t_lo, t_hi, kernel=kernel)


def threshold_apsp_pos(g: Graph, d: int, kernel: str = "numpy",
                       primal: np.ndarray | None = None) -> ThresholdReport:
    """Ordered pairs at distance <= d for weights in {1..M}. Deterministic.

    primal, when given, must be primal_distances(g); callers probing
    several d on one graph pass it to build it once. It is only read,
    never modified. Past n M every reachable pair is within d (a shortest
    path has at most n - 1 arcs), so the report is the reachability
    matrix and nothing else is built.
    """
    if d < 0:
        return ThresholdReport(reported=np.zeros((g.n, g.n), dtype=bool), d=d,
                               stats={"edge_case": "negative_d"})
    if d > g.n * g.M:
        return ThresholdReport(reported=transitive_closure(g), d=d,
                               stats={"edge_case": "closure"})
    if primal is None:
        primal = primal_distances(g)
    if d <= g.M + 1:
        return ThresholdReport(reported=primal <= d, d=d,
                               stats={"edge_case": "primal", "levels": 0})
    levels = level_plan(d, g.M).levels
    dist = primal  # walked bottom-up, see level_step
    for (lo, hi), source in reversed(list(zip(levels, levels[1:]))):
        low = max(lo, g.M + 2)  # the non-primal targets are low..hi
        if low <= hi and not 2 * source[0] <= low <= hi <= 2 * source[1]:
            raise ValueError(f"targets {(low, hi)} outside convolution range of {source}")
        dist = np.minimum(primal, level_step(dist, source, kernel=kernel))
    return ThresholdReport(reported=dist <= d, d=d,
                           stats={"levels": len(levels), "edge_case": None})
