"""Brute-force reference implementations.

Everything here is deliberately straightforward and shares no algorithmic
code with the fast paths, so it can serve as an independent check. Only
the INF sentinel convention is common.
"""

from __future__ import annotations

import numpy as np

from .matrices import INF
from .graphs import NegativeCycleError


def _relax_all(d: np.ndarray, w: np.ndarray) -> np.ndarray:
    # one round of d[i,j] <- min_k d[i,k] + w[k,j], plain per-k loop
    n = d.shape[0]
    out = d.copy()
    for k in range(n):
        col = d[:, k]
        row = w[k, :]
        ok = (col < INF)[:, None] & (row < INF)[None, :]
        cand = col[:, None] + row[None, :]
        np.copyto(out, cand, where=ok & (cand < out))
    return out


def floyd_warshall(w: np.ndarray) -> np.ndarray:
    """All-pairs distances of a weight matrix; diagonal must come out 0."""
    n = w.shape[0]
    d = w.astype(np.int64).copy()
    for k in range(n):
        col = d[:, k]
        row = d[k, :]
        ok = (col < INF)[:, None] & (row < INF)[None, :]
        cand = col[:, None] + row[None, :]
        np.copyto(d, cand, where=ok & (cand < d))
    if (np.diagonal(d) < 0).any():
        raise NegativeCycleError("negative cycle reachable", cycle=None)
    return d


def min_edge_counts(w: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """c[u,v] = least k with a k-edge path of weight exactly dist[u,v].

    Computed by the textbook DP d_k = min(d_{k-1}, d_{k-1} (*) w). Pairs
    that first match at d_0 (the min-plus identity) get 0; that covers
    the diagonal and, vacuously, unreachable pairs.
    """
    n = w.shape[0]
    d = np.empty((n, n), dtype=np.int64)
    d.fill(INF)
    np.fill_diagonal(d, 0)
    counts = np.where(d == dist, 0, -1).astype(np.int64)
    for k in range(1, n):
        d = _relax_all(d, w)
        hit = (counts < 0) & (d == dist)
        counts[hit] = k
    return counts


def brute_threshold(dist: np.ndarray, d: int) -> np.ndarray:
    """Pairs at distance <= d. INF entries never qualify."""
    return (dist <= d) & (dist < INF)
