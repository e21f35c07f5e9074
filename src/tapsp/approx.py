"""Scaled additive approximation of one schedule level.

Entries of the partial matrix are divided by the level granularity k
(rounding toward +inf), the scaled matrix is squared through a fresh
vertex sample with the bounded min-plus product, and the result is
multiplied back by k. For pairs in the level's edge-count band the
estimate lands in [dist, dist + 2k].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import dist_product_fast, full_inf, is_finite, scale_div_ceil
from .partial_distances import PartialDistanceMatrix
from .sampling import Rng, sample
from .schedule import Level


@dataclass
class LevelEstimate:
    delta: np.ndarray
    sample: np.ndarray


def additive_approximate(pdm: PartialDistanceMatrix, level: Level, rng: Rng,
                         kernel: str = "numpy") -> LevelEstimate:
    n = pdm.n
    k = level.k
    scaled = scale_div_ceil(pdm.P, k)
    count = 12.0 * n ** (1.0 - level.gamma) * math.log(n) if n > 1 else 1.0
    xs = sample(np.arange(n), count, rng)
    q = dist_product_fast(scaled[:, xs], scaled[xs, :], kernel=kernel)
    delta = full_inf(n, n)
    fin = is_finite(q)
    delta[fin] = k * q[fin]
    return LevelEstimate(delta=delta, sample=xs)
