"""Deterministic threshold decisions for weights in {1..M}.

A_k denotes the Boolean matrix of pairs at distance <= k. Small k (up to
M + 1) come straight from a truncated distance matrix, since a shortest
path of weight at most M + 1 uses at most M + 1 arcs. Large k are built
top-down: the target set {d} expands level by level into intervals of
indices roughly halving each time, and one squaring of a Boolean
polynomial matrix per level turns the family of a deeper level into the
family of the one above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, to_matrix
from .matrices import (INF, PolyMatrix, dist_product_fast, min_merge,
                       poly_square, truncate)


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

    family must contain A_i for every i in the source interval. One
    polynomial squaring yields, for target k, the union over splits
    i + (k - i) = k with both halves in the source window [t_lo, t_hi].
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
    width = t_hi - t_lo + 1
    n = family[t_lo].shape[0]
    coeffs = np.stack([family[t_lo + q] for q in range(width)], axis=2)
    sq = poly_square(PolyMatrix(coeffs), kernel=kernel)
    out = {}
    for k in range(targets[0], targets[1] + 1):
        if k <= m_bound + 1:
            continue  # primal targets come from the primal family
        idx = k - 2 * t_lo
        if not (0 <= idx <= 2 * width - 2):
            raise ValueError(f"target {k} outside convolution range of {source}")
        out[k] = sq.coefficient(idx).copy()
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
