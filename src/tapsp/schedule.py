"""Parameter schedule for the randomized threshold pipeline.

One level per halving of the path-length scale: level i handles pairs
whose shortest paths use between t_i/2 and t_i edges, where
t_i = n^(1-beta) / 2^i. Each level carries the partial-matrix exponents
(beta_i, gamma_i) and the rounding granularity k_i used by the scaled
approximation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass


def compute_beta(n: int, M: int, omega: float) -> float:
    """Crossover exponent balancing the sampled and encoded phases."""
    if n < 2:
        raise ValueError("need n >= 2")
    if M < 1:
        raise ValueError("need M >= 1")
    if not (2.0 <= omega <= 3.0):
        raise ValueError("omega must lie in [2, 3]")
    log_n_m = math.log(M) / math.log(n)
    beta = (omega / (omega + 1.0)) * log_n_m + (omega - 1.0) ** 2 / (omega + 1.0)
    return min(1.0, max(0.0, beta))


@dataclass(frozen=True)
class Level:
    index: int
    t: float
    beta: float
    gamma: float
    k: int


@dataclass(frozen=True)
class Schedule:
    beta: float
    t_far: int
    K: int
    levels: tuple


def _make_level(i: int, n: int, M: int, beta: float, omega: float) -> Level:
    # past the natural depth (the coverage guard's extra level) the raw
    # exponent can pass 1; clamp it. Such a level's band [t/2, t) holds
    # no integer, so it only adds a valid upper bound.
    log2_over_logn = math.log(2.0) / math.log(n)
    beta_i = min(1.0, beta + i * log2_over_logn)
    gamma_i = max(0.0, (1.0 - beta_i) * (omega - 1.0) / omega)
    t_i = n ** (1.0 - beta) / 2.0 ** i
    k_i = max(1, math.ceil(M * n ** max(0.0, 1.0 - beta_i - gamma_i)))
    return Level(index=i, t=t_i, beta=beta_i, gamma=gamma_i, k=k_i)


def _covered(c: int, levels) -> bool:
    return any(lev.t / 2.0 <= c < lev.t for lev in levels)


@functools.lru_cache(maxsize=256)
def build_schedule(n: int, M: int, omega: float = 2.376,
                   force_beta: float | None = None) -> Schedule:
    """The schedule for (n, M, omega, force_beta). It is a pure function
    of them and frozen, so calls share one cached instance."""
    if force_beta is not None:
        if not (0.0 <= force_beta <= 1.0):
            raise ValueError("forced beta must lie in [0, 1]")
        beta = float(force_beta)
        if n < 2:
            raise ValueError("need n >= 2")
    else:
        beta = compute_beta(n, M, omega)
    top = max(0, math.floor((1.0 - beta) * math.log2(n)))
    levels = [_make_level(i, n, M, beta, omega) for i in range(top + 1)]
    t_far = math.ceil(n ** (1.0 - beta))
    # guard against float rounding at the small end of the scale: every
    # integer edge count below the far threshold must fall in some
    # level's [t/2, t) band
    for c in range(1, t_far):
        if not _covered(c, levels):
            levels.append(_make_level(top + 1, n, M, beta, omega))
            break
    for c in range(1, t_far):
        if not _covered(c, levels):
            raise AssertionError(f"schedule leaves edge count {c} uncovered")
    gamma = levels[0].gamma
    K = math.ceil(2.0 * M * n ** max(0.0, 1.0 - beta - gamma))
    return Schedule(beta=beta, t_far=t_far, K=K, levels=tuple(levels))
