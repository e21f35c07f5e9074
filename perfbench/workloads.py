"""Workload definitions: instance generation, the timed call, the oracle check.

Each call gets a fresh graph built by the package's own generators from
(workload seed, call index), so no two calls share an instance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import tapsp
from tapsp import INF, RunConfig, to_matrix

# Bound before any tracing is installed: the generators, the timed root
# call and the oracle are always the package's own functions, never a
# tracing wrapper.
GEN_RANDOM = tapsp.gen_random
GEN_MIXED_NCF = tapsp.gen_mixed_ncf
THRESHOLD_POS = tapsp.threshold_apsp_pos
THRESHOLD_NEG = tapsp.threshold_apsp_neg
DIAMETER = tapsp.diameter
FLOYD_WARSHALL = tapsp.floyd_warshall


@dataclass
class Case:
    seed: int  # instance seed, derived from (workload seed, index)
    index: int
    graph: object
    dist: np.ndarray  # oracle distances
    oracle_s: float
    d: int | None = None


def instance_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def _oracle(graph):
    t0 = time.perf_counter()
    dist = FLOYD_WARSHALL(to_matrix(graph))
    return dist, time.perf_counter() - t0


def _pick_d(dist: np.ndarray, index: int, percentiles, extra) -> int:
    """Cycle over percentiles of the finite off-diagonal distances, then extra."""
    vals = dist[~np.eye(dist.shape[0], dtype=bool) & (dist < INF)]
    choices = [int(np.percentile(vals, q, method="lower")) for q in percentiles]
    choices += extra
    return choices[index % len(choices)]


def _check_threshold(case: Case, out) -> str | None:
    want = case.dist <= case.d
    got = np.asarray(out.reported, dtype=bool)
    if got.shape != want.shape:
        return f"reported matrix has shape {got.shape}, want {want.shape}"
    wrong = int((got != want).sum())
    return f"{wrong} pairs differ from the oracle" if wrong else None


def _threshold_key(out):
    return np.asarray(out.reported, dtype=bool).tobytes()


class PositiveThreshold:
    name = "positive-threshold"
    n, wmax = 64, 8
    percentiles = (25, 50, 75, 90)
    cycle = len(percentiles) + 1  # calls until the d values repeat

    def make(self, seed: int, index: int) -> Case:
        s = instance_seed(seed, index)
        g = GEN_RANDOM(self.n, 3.0 / self.n, 1, self.wmax, seed=s)
        dist, oracle_s = _oracle(g)
        d = _pick_d(dist, index, self.percentiles, [2 * self.n])
        return Case(seed=s, index=index, graph=g, dist=dist, oracle_s=oracle_s, d=d)

    def solve(self, case: Case):
        return THRESHOLD_POS(case.graph, case.d)

    check = staticmethod(_check_threshold)
    key = staticmethod(_threshold_key)


class GeneralThreshold:
    name = "general-threshold"
    n, m_bound = 64, 4
    percentiles = (10, 25, 50, 75, 90)
    cycle = len(percentiles)

    def make(self, seed: int, index: int) -> Case:
        s = instance_seed(seed, index)
        g = GEN_MIXED_NCF(self.n, 3.0 / self.n, self.m_bound, seed=s, backbone=True)
        dist, oracle_s = _oracle(g)
        d = _pick_d(dist, index, self.percentiles, [])
        return Case(seed=s, index=index, graph=g, dist=dist, oracle_s=oracle_s, d=d)

    def solve(self, case: Case):
        return THRESHOLD_NEG(case.graph, case.d, RunConfig(seed=case.seed))

    check = staticmethod(_check_threshold)
    key = staticmethod(_threshold_key)


class Diameter:
    name = "diameter"
    n, m_bound = 32, 4
    cycle = 1

    def make(self, seed: int, index: int) -> Case:
        s = instance_seed(seed, index)
        g = GEN_MIXED_NCF(self.n, 3.0 / self.n, self.m_bound, seed=s, backbone=True)
        dist, oracle_s = _oracle(g)
        return Case(seed=s, index=index, graph=g, dist=dist, oracle_s=oracle_s)

    def solve(self, case: Case):
        return DIAMETER(case.graph, RunConfig(seed=case.seed))

    @staticmethod
    def check(case: Case, out) -> str | None:
        # the backbone makes every distance finite
        value = int(case.dist.max())
        want = sorted((int(u) + 1, int(v) + 1)
                      for u, v in zip(*np.nonzero(case.dist == value)))
        if out.value != value:
            return f"diameter {out.value}, oracle {value}"
        if sorted(out.witnesses) != want:
            return f"{len(out.witnesses)} witnesses, oracle has {len(want)}"
        return None

    @staticmethod
    def key(out):
        return (out.value, tuple(sorted(out.witnesses)))


WORKLOADS = {w.name: w for w in (PositiveThreshold(), GeneralThreshold(), Diameter())}
