"""Exact distances through a hitting set.

Pairs whose shortest paths use many edges are resolved exactly: a random
vertex sample large enough to hit every long path (w.h.p.), one Dijkstra
per sampled vertex in each direction over Johnson-reweighted arcs, and a
min-plus combine through the sample. A sample of every vertex makes the
combine the exact distance matrix, which the capped Floyd-Warshall
closure (matrices.minplus_closure) of the Johnson-reweighted weight
matrix builds with no Dijkstra.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, to_matrix
from .matrices import INF, full_inf, minplus_closure
from .sampling import Rng, sample


def hitting_set(n: int, t: int, rng: Rng) -> np.ndarray:
    """Sample ceil(8 n ln n / t) vertices (capped at n), 0-based sorted."""
    if t < 1:
        raise ValueError("path-length threshold t must be >= 1")
    count = 8.0 * n * math.log(n) / t if n > 1 else 0.0
    return sample(np.arange(n), count, rng)


def _adjacency(g: Graph, h: np.ndarray, reverse: bool):
    """Reweighted adjacency lists, arcs in edges order; arcs become
    nonnegative under h."""
    u, v, w = g.arcs
    wp = w + h[u] - h[v]
    if (wp < 0).any():
        raise ValueError("potentials do not reweight arcs nonnegatively")
    if reverse:
        u, v = v, u
    adj = [[] for _ in range(g.n)]
    for x, y, c in zip(u.tolist(), v.tolist(), wp.tolist()):
        adj[x].append((y, c))
    return adj


def _dijkstra_heap(adj, src: int, n: int) -> np.ndarray:
    # a plain list: indexing an int64 array boxes a numpy scalar each time
    dist = [int(INF)] * n
    dist[src] = 0
    heap = [(0, src)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist[x]:
            continue
        for (y, w) in adj[x]:
            nd = d + w
            if nd < dist[y]:
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    return np.array(dist, dtype=np.int64)


def sssp_rows(g: Graph, h: np.ndarray, sources, reverse: bool = False) -> list:
    """Distances from (or, reversed, to) each 0-based source, over one
    adjacency build.

    Forward: out[v] = dist(src, v). Reverse: out[v] = dist(v, src).
    """
    adj = _adjacency(g, h, reverse)
    n = g.n
    rows = []
    for src in sources:
        src = int(src)
        dp = _dijkstra_heap(adj, src, n)
        out = np.empty(n, dtype=np.int64)
        out.fill(INF)
        fin = dp < INF
        if reverse:
            # reversed reweighted length of v->src is dist(v,src) + h[v] - h[src]
            out[fin] = dp[fin] - h[fin] + h[src]
        else:
            out[fin] = dp[fin] - h[src] + h[fin]
        rows.append(out)
    return rows


@dataclass
class FarDistances:
    delta: np.ndarray
    hitting: np.ndarray
    potentials: np.ndarray
    t: int


def compute_delta_t(g: Graph, t: int, rng: Rng, h: np.ndarray) -> FarDistances:
    """delta_t[u,v] = min over sampled x of dist(u,x) + dist(x,v).

    h are g's Johnson potentials (graphs.johnson_potentials). Exact
    (= dist) for every pair whose shortest path has >= t edges, with high
    probability; an upper bound on dist everywhere.

    A sample of all n vertices makes the combine dist itself: each term
    dist(u, x) + dist(x, v) is >= dist(u, v), the x = u term equals it
    (dist(u, u) = 0 without negative cycles), and a pair at INF has no
    finite term. Any exact APSP may then build delta; it is the closure
    (matrices.minplus_closure, which takes no kernel) of the weight matrix
    reweighted by h, shifted back. Reweighted arcs w + h[u] - h[v] are
    nonnegative, and as h lies in [-(n - 1) M, 0], a reweighted distance
    dist(u, v) + h[u] - h[v] is at most 2 (n - 1) M, the cap.
    """
    n = g.n
    if n == 1:
        return FarDistances(delta=np.zeros((1, 1), dtype=np.int64),
                            hitting=np.zeros(0, dtype=np.int64),
                            potentials=h, t=t)
    xs = hitting_set(n, t, rng)
    if xs.size == n:
        w = to_matrix(g)
        dp = minplus_closure(np.where(w < INF, w + h[:, None] - h[None, :], INF),
                             2 * (n - 1) * g.M)
        delta = np.where(dp < INF, dp - h[:, None] + h[None, :], INF)
        return FarDistances(delta=delta, hitting=xs, potentials=h, t=t)
    delta = full_inf(n, n)
    for row, col in zip(sssp_rows(g, h, xs), sssp_rows(g, h, xs, reverse=True)):
        ok = (col < INF)[:, None] & (row < INF)[None, :]
        cand = col[:, None] + row[None, :]
        np.copyto(delta, cand, where=ok & (cand < delta))
    return FarDistances(delta=delta, hitting=xs, potentials=h, t=t)
