"""Partial distance matrices over shrinking bridge sets.

The builder squares a truncated matrix through a sampled "bridge" set
whose size shrinks geometrically while the truncation radius grows. The
result P dominates true distances entrywise and, with high probability,
carries enough redundancy that short-haul pairs can be recovered from it:

* property 1: every pair (u,v) whose min-edge shortest path uses at most
  n^(1-beta) edges has a vertex x with P[u,x] + P[x,v] = dist(u,v);
* property 2: such a pair even has a min-edge shortest path on which
  every window of ceil(n^(1-beta-gamma)) consecutive edges contains such
  an x.

Both properties have explicit checkers here; they return the violating
pairs so tests can assert emptiness or measure failure rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import one_based_pairs
from .matrices import (INF, dist_product_fast, dist_product_naive,
                       minplus_identity, truncate)
from .sampling import Rng, sample


@dataclass
class PartialDistanceMatrix:
    P: np.ndarray
    beta: float
    gamma: float
    bridge: np.ndarray

    @property
    def n(self) -> int:
        return self.P.shape[0]


def build_partial(w: np.ndarray, M: int, beta: float, gamma: float, rng: Rng,
                  kernel: str = "numpy") -> PartialDistanceMatrix:
    """Run the bridge-set squaring loop on weight matrix w.

    Phase one shrinks the bridge set while s = (3/2)^ell climbs to
    n^(1-beta-gamma); phase two keeps the final set and continues until
    s reaches 2 n^(1-beta). s stays an exact rational so the truncation
    radius ceil(s*M) never wobbles with float error.
    """
    if beta < 0 or gamma < 0 or beta + gamma > 1 + 1e-12:
        raise ValueError("need beta, gamma >= 0 with beta + gamma <= 1")
    if M < 1:
        raise ValueError("need M >= 1")
    n = w.shape[0]
    P = w.astype(np.int64).copy()
    bridge = np.arange(n, dtype=np.int64)
    log15 = math.log(1.5)
    l_shrink = max(0, math.ceil((1.0 - beta - gamma) * math.log(n) / log15))
    l_total = max(l_shrink, math.ceil(math.log(2.0 * n ** (1.0 - beta)) / log15))

    s = Fraction(1)
    for ell in range(1, l_total + 1):
        s = s * Fraction(3, 2)
        radius = math.ceil(s * M)
        if ell <= l_shrink:
            bridge = sample(bridge, 9.0 * n * math.log(n) / float(s), rng)
        bb = np.ix_(bridge, bridge)
        left = dist_product_fast(truncate(P[:, bridge], radius), truncate(P[bb], radius),
                                 bound=radius, kernel=kernel)
        P[:, bridge] = np.minimum(P[:, bridge], left)
        right = dist_product_fast(truncate(P[bb], radius), truncate(P[bridge, :], radius),
                                  bound=radius, kernel=kernel)
        P[bridge, :] = np.minimum(P[bridge, :], right)
    return PartialDistanceMatrix(P=P, beta=beta, gamma=gamma, bridge=bridge)


def check_rpdm_property1(pdm: PartialDistanceMatrix, dist: np.ndarray,
                    counts: np.ndarray) -> list:
    """Pairs with small edge counts where no midpoint of P recovers the
    distance. Empty list means property 1 holds."""
    limit = pdm.n ** (1.0 - pdm.beta)
    via = dist_product_naive(pdm.P, pdm.P)
    mask = (counts <= limit) & (dist < INF) & (via != dist)
    return one_based_pairs(mask)


def check_rpdm_property2(pdm: PartialDistanceMatrix, dist: np.ndarray,
                    counts: np.ndarray, w: np.ndarray,
                    window: int | None = None,
                    pairs: list | None = None) -> list:
    """Pairs with small edge counts where no min-edge shortest path keeps
    recovery midpoints within every window of `window` consecutive edges.

    Decided per pair by a run-length DP over the layered DAG of vertices
    that lie on some min-edge shortest path: a position qualifies at step
    j when an exactly-j-edge prefix and an exactly-(c-j)-edge suffix sum
    to the true distance. The DP is quadratic per pair, so callers that
    cannot afford every in-range pair may pass an explicit 0-based `pairs`
    subset; out-of-range pairs in it are ignored.
    """
    P = pdm.P
    n = pdm.n
    limit = n ** (1.0 - pdm.beta)
    L = window if window is not None else math.ceil(n ** (1.0 - pdm.beta - pdm.gamma))
    if L < 1:
        raise ValueError("window must be >= 1")
    fin_p = P < INF
    if pairs is None:
        pairs = [(u, v) for u in range(n) for v in range(n)]
    pairs = [(u, v) for (u, v) in pairs
             if 1 <= counts[u, v] <= limit and dist[u, v] < INF]
    if not pairs:
        return []
    cmax = max(counts[u, v] for u, v in pairs)
    exact = [minplus_identity(n)]
    for _ in range(cmax):
        exact.append(dist_product_naive(exact[-1], w))
    big = n + 2
    bad = []
    fin_w = w < INF
    for (u, v) in pairs:
        c = int(counts[u, v])
        d = int(dist[u, v])
        hits = fin_p[u, :] & fin_p[:, v] & (P[u, :] + P[:, v] == d)
        run = np.full(n, big, dtype=np.int64)
        run[u] = 0 if hits[u] else 1
        for j in range(1, c + 1):
            ea = exact[j - 1][u, :]
            fb = exact[c - j][:, v]
            qual = (ea[:, None] < INF) & fin_w & (fb[None, :] < INF)
            qual &= (ea[:, None] + w + fb[None, :]) == d
            inc = np.where(qual, run[:, None], big).min(axis=0)
            run = np.where(hits & (inc < big), 0, inc + 1)
            run[run > L] = big
        if run[v] > L:
            bad.append((u + 1, v + 1))
    return bad
