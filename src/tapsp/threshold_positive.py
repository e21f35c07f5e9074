"""Deterministic threshold decisions for weights in {1..M}.

A_k denotes the Boolean matrix of pairs at distance <= k. Small k come
straight from the primal matrix, the distances capped at a cap >= M + 1
(primal_distances). primal_cap(g, d) states the cap: max(M + 1, min(d,
W)), W = matrices.widest_float_window(n) the widest window the float
route holds at n (63 at n = 64, 72 at n = 32, 42 at n = 1024). While
2 cap s <= 1020, s the bit length of 4n - 1, the primal matrix is
ceil(log2(min(cap, n - 1))) window squares encoded from the arc list
(matrices.nonneg_distances), and otherwise (W < M + 1) one Floyd-Warshall closure at M + 1
(matrices.minplus_closure). Past n M, A_k is the reachability matrix.
Large k in between are built top-down by the paper's halving recursion
based at the cap (level_plan): the target set {d} expands level by level
into intervals of indices roughly halving each time, down to the first
interval the primal matrix holds. The paper bases the recursion at
M + 1, the least base it needs; a wider one costs the same per square
and ends the recursion sooner. The paper turns the family of a deeper
level into the family of the one above it by squaring a matrix of
Boolean polynomials. A nested family is one integer matrix D with
(D <= k) = A_k, so each level is carried as such a matrix, and the
square is one bounded min-plus product of the "first index" matrix
(Yuval 1976): each level costs one matrices.window_square call, which on
the numpy float route encodes D directly and never forms the first-index
matrix.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, integer_threshold, to_matrix, transitive_closure
from .matrices import (float_window_admits, minplus_closure, nonneg_distances,
                       widest_float_window, window_square)
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


def level_plan(d: int, m_bound: int, base: int | None = None) -> tuple:
    """(lo, hi) intervals of indices touched per recursion level, top
    down (level 0 first), for the recursion based at base (default M + 1,
    the paper's).

    Level 0 is {d}; level j+1 collects the expansion intervals
    [floor((k-M)/2), ceil((k+M)/2)] of the level's targets, its indices
    k > base. Construction stops at the first level whose top is at most
    base, all held by a primal matrix at cap base. Each interval is
    contiguous and never wider than 2M + 3.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    if m_bound < 1:
        raise ValueError("M must be >= 1")
    base = m_bound + 1 if base is None else base
    if base < m_bound + 1:
        raise ValueError("base must be >= M + 1")
    levels = [(d, d)]
    lo, hi = d, d
    while hi > base:
        lo = (max(lo, base + 1) - m_bound) // 2
        hi = (hi + m_bound + 1) // 2
        levels.append((lo, hi))
    return tuple(levels)


def primal_cap(g: Graph, d: int | None = None) -> int:
    """The primal matrix's cap for threshold d: max(M + 1, min(d, W)), W
    the widest window the float route holds at n
    (matrices.widest_float_window). d = None, for every threshold at
    once, gives the widest cap, max(M + 1, W). The primal matrix is
    window squares while M + 1 <= W, so the largest M that squares is
    W - 1: 62 at n = 64, 55 at n = 128, 41 at n = 1024."""
    w = widest_float_window(g.n)
    return max(g.M + 1, w if d is None else min(d, w))


def _require_positive(g: Graph) -> None:
    bad = g.arcs[2][g.arcs[2] < 1]
    if bad.size:
        raise ValueError(f"non-positive weight {bad[0]}; this path needs weights in 1..M")


def primal_distances(g: Graph, cap: int | None = None) -> np.ndarray:
    """Distances up to cap (INF beyond), so that (primal <= k) = A_k for
    k = 0..cap. cap defaults to primal_cap(g); the threshold paths take
    it at M + 1 or above. Takes no kernel.

    When the numpy float route admits the window [0, cap] at n
    (matrices.float_window_admits, that is cap <= W), they are
    matrices.nonneg_distances(n, g.arcs, cap, min(cap, n - 1)), encoded
    straight from the arc list: ceil(log2(min(cap, n - 1))) window
    squares at [0, cap], none for n <= 2. With weights >= 1 a path of
    weight <= cap has at most cap arcs, and a shortest path at most
    n - 1, which bounds the hops that routine's proof asks for.
    Otherwise they are matrices.minplus_closure(w, cap) of the weight
    matrix w: at caps that wide, squaring by fixed-width relaxation
    loses to Floyd-Warshall. At a cap primal_cap gives, that happens
    only when W < M + 1, and then cap = M + 1.
    """
    _require_positive(g)
    if cap is None:
        cap = primal_cap(g)
    if not float_window_admits(g.n, cap):
        return minplus_closure(to_matrix(g), cap)
    return nonneg_distances(g.n, g.arcs, cap, min(cap, g.n - 1))


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

    Under numpy, window_square takes the float route when
    float_window_admits(n, t_hi - t_lo); a level's window is at most
    2M + 2 wide (level_plan), so every level step of an M up to
    (W - 2) // 2 (30 at n = 64) takes it, W = widest_float_window(n).

    The caller keeps minimum(primal, R), and (minimum <= k) =
    (primal <= k) | (R <= k). For k up to the primal cap, R <= k implies
    dist <= k, which primal <= k already holds, so those indices stay
    exact. For a target k past the cap, primal <= k only holds pairs
    within the cap, which A_k = (R <= k) contains.
    """
    t_lo, t_hi = source
    return window_square(dist, t_lo, t_hi, kernel=kernel)


def threshold_apsp_pos(g: Graph, d: int, kernel: str = "numpy",
                       primal: np.ndarray | None = None) -> ThresholdReport:
    """Ordered pairs at distance <= d for weights in {1..M}. Deterministic.

    A weight below 1 is a ValueError at every d. The call works at cap
    primal_cap(g, d). primal, when given, must be primal_distances(g), at
    the full cap primal_cap(g); callers probing several d on one graph
    pass it to build it once. It is only read, never modified. It serves
    every d: for d <= W the cap max(M + 1, d) is at most the full cap, so
    primal <= d is still exact, and for d > W the cap is the full cap
    itself. Without it the call builds its own at cap primal_cap(g, d),
    so a d within the float window costs no more squares than its own cap
    needs. Past n M every reachable pair is within d (a shortest path has
    at most n - 1 arcs), so the report is the reachability matrix and
    nothing else is built. A d up to the cap is read off the primal
    matrix, levels 0.

    A larger d walks level_plan(d, M, cap) bottom-up; stats["levels"]
    counts its intervals. The paper's argument holds with M + 1 read as
    the base. The last interval lies within the cap, where primal holds
    A_i for every i. Each level (lo, hi) above it needs exactness only at
    its targets past the cap, low = max(lo, cap + 1) .. hi; indices up to
    the cap come from the primal through minimum(primal, R), see
    level_step. The next interval (lo', hi') is the union of the targets'
    expansion intervals, so 2 lo' <= low <= hi <= 2 hi' and level_step
    gives A_k at every target k, as long as its source window is exact:
    its indices up to the cap are, and each one past the cap is a target
    of the next level, exact by induction.

    d is any integer, Python or numpy (graphs.integer_threshold).
    """
    d = integer_threshold(d)
    _require_positive(g)
    if d < 0:
        return ThresholdReport(reported=np.zeros((g.n, g.n), dtype=bool), d=d,
                               stats={"edge_case": "negative_d"})
    if d > g.n * g.M:
        return ThresholdReport(reported=transitive_closure(g), d=d,
                               stats={"edge_case": "closure"})
    cap = primal_cap(g, d)
    if primal is None:
        primal = primal_distances(g, cap)
    if d <= cap:
        return ThresholdReport(reported=primal <= d, d=d,
                               stats={"edge_case": "primal", "levels": 0})
    levels = level_plan(d, g.M, cap)
    dist = primal  # walked bottom-up, see level_step
    for (lo, hi), source in reversed(list(zip(levels, levels[1:]))):
        low = max(lo, cap + 1)  # the targets past the cap are low..hi
        if not 2 * source[0] <= low <= hi <= 2 * source[1]:
            raise ValueError(f"targets {(low, hi)} outside convolution range of {source}")
        dist = np.minimum(primal, level_step(dist, source, kernel=kernel))
    return ThresholdReport(reported=dist <= d, d=d,
                           stats={"levels": len(levels), "edge_case": None})
