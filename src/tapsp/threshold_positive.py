"""Deterministic threshold decisions for weights in {1..M}.

A_k denotes the Boolean matrix of pairs at distance <= k. Small k (up to
M + 1) come straight from a truncated distance matrix, since a shortest
path of weight at most M + 1 uses at most M + 1 arcs. Large k are built
top-down: the target set {d} expands level by level into intervals of
indices roughly halving each time. The paper turns the family of a deeper
level into the family of the one above it by squaring a matrix of
Boolean polynomials; because the family is nested, that square is one
bounded min-plus product of the "first index" matrix (Yuval 1976), so
each level costs one dist_product_fast call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, to_matrix
from .matrices import dist_product_fast, full_inf, min_merge, truncate


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

    def interval(self, j: int) -> tuple:
        return self.levels[j]

    @property
    def depth(self) -> int:
        return len(self.levels)


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


def primal_distances(g: Graph, kernel: str = "numpy") -> dict:
    """A_k for k = 0..M+1 from a repeatedly squared truncated matrix."""
    w = to_matrix(g)
    for (_, _, wt) in g.edges:
        if wt < 1:
            raise ValueError(f"non-positive weight {wt}; this path needs weights in 1..M")
    cap = g.M + 1
    d = truncate(w, cap)
    rounds = math.ceil(math.log2(g.M + 1)) + 1
    for _ in range(rounds):
        sq = dist_product_fast(d, d, bound=cap, kernel=kernel)
        d = truncate(min_merge(d, sq), cap)
    family = {k: (d <= k) for k in range(cap + 1)}
    family[0] = np.eye(g.n, dtype=bool)
    return family


def level_step(family: dict, source: tuple, targets: tuple, m_bound: int,
               kernel: str = "numpy") -> dict:
    """Matrices for one level from the family of the level below.

    family must contain A_i for every i in the source window
    [t_lo, t_hi], and the window must be nested, A_i a subset of
    A_(i+1) (threshold matrices always are). Target k in [2 t_lo, 2 t_hi]
    is the union over splits i + (k - i) = k with both halves in the
    window of the Boolean products A_i A_(k-i), which is the coefficient
    of x**(k - 2 t_lo) in the square of the polynomial matrix
    sum_q A_(t_lo+q) x**q.

    One min-plus product computes every target. Let C[u, v] be the least
    i in the window with A_i[u, v], minus t_lo (INF if none), and
    S = C (min-plus) C. Then (u, v) is in the union for k exactly when
    S[u, v] <= k - 2 t_lo. If A_i[u, w] and A_j[w, v] with i + j = k,
    then C[u, w] + C[w, v] <= k - 2 t_lo. Conversely, take w with
    a = C[u, w] + t_lo, b = C[w, v] + t_lo and a + b <= k. Put
    i = min(t_hi, k - b) and j = k - i: then t_lo <= a <= i <= t_hi and
    t_lo <= b <= j <= t_hi (if i = t_hi, j = k - t_hi <= t_hi), and by
    nesting A_i[u, w] and A_j[w, v] hold, since A_a[u, w] and A_b[w, v]
    do.

    That union already holds every pair closer than the window bottom:
    k lies in [2 t_lo, 2 t_hi], so i = max(t_lo, k - t_hi) puts both i
    and k - i in the window, and since every A_j contains the identity
    (diagonal distances are 0), A_i A_(k-i) contains A_i, which contains
    A_(t_lo).
    """
    t_lo, t_hi = source
    for i in range(t_lo, t_hi + 1):
        if i not in family:
            raise ValueError(f"missing source matrix A_{i}")
    n = family[t_lo].shape[0]
    first = full_inf(n, n)
    for i in range(t_hi, t_lo - 1, -1):
        first[family[i]] = i - t_lo
    sq = dist_product_fast(first, first, bound=t_hi - t_lo, kernel=kernel)
    out = {}
    for k in range(targets[0], targets[1] + 1):
        if k <= m_bound + 1:
            continue  # primal targets come from the primal family
        if not 2 * t_lo <= k <= 2 * t_hi:
            raise ValueError(f"target {k} outside convolution range of {source}")
        out[k] = sq <= k - 2 * t_lo
    return out


@dataclass
class PositiveReport:
    reported: np.ndarray
    d: int
    stats: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return int(self.reported.sum())

    def pairs(self) -> list:
        return [(int(u) + 1, int(v) + 1) for u, v in zip(*np.nonzero(self.reported))]


def threshold_apsp_pos(g: Graph, d: int, kernel: str = "numpy",
                       primal: dict | None = None) -> PositiveReport:
    """Ordered pairs at distance <= d for weights in {1..M}. Deterministic.

    primal, when given, must be primal_distances(g); callers probing
    several d on one graph pass it to build the family once. It is
    only read, never modified.
    """
    n = g.n
    if d < 0:
        rep = np.zeros((n, n), dtype=bool)
        return PositiveReport(reported=rep, d=d, stats={"edge_case": "negative_d"})
    if primal is None:
        primal = primal_distances(g, kernel=kernel)
    if d <= g.M + 1:
        return PositiveReport(reported=primal[d].copy(), d=d,
                              stats={"edge_case": "primal", "levels": 0})
    plan = level_plan(d, g.M)
    family = dict(primal)
    for j in range(plan.depth - 2, -1, -1):
        computed = level_step(family, source=plan.interval(j + 1),
                              targets=plan.interval(j), m_bound=g.M,
                              kernel=kernel)
        family.update(computed)
    return PositiveReport(reported=family[d], d=d,
                          stats={"levels": plan.depth, "edge_case": None})
