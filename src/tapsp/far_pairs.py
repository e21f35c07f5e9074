"""Exact distances through a hitting set.

Pairs whose shortest paths use many edges are resolved exactly: a random
vertex sample large enough to hit every long path (w.h.p.), one Dijkstra
per sampled vertex in each direction over Johnson-reweighted arcs, and a
min-plus combine through the sample, one matrices.dist_product_fast
product. A sample of every vertex makes the combine the exact distance
matrix, built with no Dijkstra: matrices.nonneg_distances encodes the
Johnson-reweighted arc list straight into a few float-route window
squares, and compute_delta_t owns the rest, one INF scan that decides
both the capped Floyd-Warshall fallback, when some pair may lie past the
window, and which entries the shift back must keep at INF.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .matrices import (INF, dist_product_fast, full_inf, minplus_closure,
                       minplus_identity, nonneg_distances, widest_float_window)
from .sampling import Rng, sample


def hitting_count(n: int, t: int) -> int:
    """The size of hitting_set(n, t, rng) for every rng: ceil(8 n ln n / t)
    capped at n, and 0 at n = 1 (ln 1 = 0). A size of n is a capped sample."""
    if t < 1:
        raise ValueError("path-length threshold t must be >= 1")
    return min(math.ceil(8.0 * n * math.log(n) / t), n)


def hitting_set(n: int, t: int, rng: Rng) -> np.ndarray:
    """Sample hitting_count(n, t) vertices, 0-based sorted."""
    return sample(np.arange(n), hitting_count(n, t), rng)


def _reweighted(g: Graph, h: np.ndarray) -> tuple:
    """g's arcs (u, v, w + h[u] - h[v]) in edges order; ValueError unless
    h reweights every arc nonnegatively."""
    u, v, w = g.arcs
    wp = w + h[u] - h[v]
    if (wp < 0).any():
        raise ValueError("potentials do not reweight arcs nonnegatively")
    return u, v, wp


def _adjacency(g: Graph, h: np.ndarray, reverse: bool):
    """Reweighted adjacency lists (_reweighted), arcs in edges order."""
    u, v, wp = _reweighted(g, h)
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


def sssp_rows(g: Graph, h: np.ndarray, sources, reverse: bool = False) -> np.ndarray:
    """Distances from (or, reversed, to) each 0-based source, over one
    adjacency build: one row per source.

    Forward: out[i, v] = dist(sources[i], v). Reverse: out[i, v] =
    dist(v, sources[i]).
    """
    adj = _adjacency(g, h, reverse)
    sources = np.asarray(sources, dtype=np.int64)
    out = full_inf(sources.size, g.n)
    for row, src in zip(out, sources.tolist()):
        dp = _dijkstra_heap(adj, src, g.n)
        fin = dp < INF
        if reverse:
            # reversed reweighted length of v->src is dist(v,src) + h[v] - h[src]
            row[fin] = dp[fin] - h[fin] + h[src]
        else:
            row[fin] = dp[fin] - h[src] + h[fin]
    return out


@dataclass
class FarDistances:
    delta: np.ndarray
    hitting: np.ndarray
    potentials: np.ndarray


def compute_delta_t(g: Graph, t: int, rng: Rng, h: np.ndarray) -> FarDistances:
    """delta_t[u,v] = min over sampled x of dist(u,x) + dist(x,v).

    h are g's Johnson potentials (graphs.johnson_potentials). Exact
    (= dist) for every pair whose shortest path has >= t edges, with high
    probability; an upper bound on dist everywhere.

    A sample of all n vertices makes the combine dist itself: each term
    dist(u, x) + dist(x, v) is >= dist(u, v), the x = u term equals it
    (dist(u, u) = 0 without negative cycles), and a pair at INF has no
    finite term. Any exact APSP may then build delta. It is the
    reweighted distances, shifted back by -h[u] + h[v]. Reweighted arcs
    (_reweighted) are nonnegative, and as h lies in [-(n - 1) M, 0], a
    reweighted distance dist(u, v) + h[u] - h[v] is at most
    cap = 2 (n - 1) M. Zero-weight reweighted arcs let a path within any
    cap use up to n - 1 arcs, so the hop bound is n - 1.

    The reweighted distances are matrices.nonneg_distances of the
    reweighted arc list (which takes no kernel) at win = min(cap, W), W
    the widest float window at n: at most ceil(log2(n - 1)) window
    squares, exact for every pair within win and INF elsewhere. One scan,
    for an INF entry, decides the rest. With none, every pair is exact.
    If win = cap, the squares are the answer as they stand: an INF entry
    lies past the cap, which holds every reachable reweighted distance,
    so it is unreachable. Otherwise (win < cap) an INF entry is a pair
    past the window or unreachable, and the answer is minplus_closure of
    the reweighted weight matrix (INF, a 0 diagonal and the reweighted
    arcs) at the cap, which is built there and nowhere else. Either way
    the INF entries of delta are exactly the unreachable pairs, so a
    caller may read reachability off them (diameter does). The shift
    back moves INF entries off INF, so when the scan found one they are
    pinned back, by a mask taken before the shift. The diagonal is
    exactly 0 on both routes: 2**0 decodes to 0, the closure keeps its 0
    diagonal, and the shift cancels there.

    A smaller sample X combines by one dist_product_fast (kernel "numpy";
    like nonneg_distances, this takes no kernel) of the reverse rows
    stacked as an n x |X| matrix, dist(u, x), by the forward rows, |X| x
    n, dist(x, v).
    """
    n = g.n
    if n == 1:
        return FarDistances(delta=np.zeros((1, 1), dtype=np.int64),
                            hitting=np.zeros(0, dtype=np.int64),
                            potentials=h)
    xs = hitting_set(n, t, rng)
    if xs.size == n:
        arcs = _reweighted(g, h)
        cap = 2 * (n - 1) * g.M
        win = min(cap, widest_float_window(n))
        dp = nonneg_distances(n, arcs, win, n - 1)
        unreached = dp.max() == INF
        if unreached and win < cap:
            u, v, wp = arcs
            rw = minplus_identity(n)
            rw[u, v] = wp
            dp = minplus_closure(rw, cap)
        inf = dp == INF if unreached else None
        dp -= h[:, None]
        dp += h[None, :]
        if unreached:
            dp[inf] = INF
        return FarDistances(delta=dp, hitting=xs, potentials=h)
    delta = dist_product_fast(sssp_rows(g, h, xs, reverse=True).T,
                              sssp_rows(g, h, xs))
    return FarDistances(delta=delta, hitting=xs, potentials=h)
