"""Exact diameter via binary search over threshold reports.

The diameter is the largest finite pairwise distance. Reachability is
settled first: any unreachable ordered pair makes the diameter +inf and
no probes run. Otherwise probe(d) asks whether every ordered pair is
within d, and binary search pins the smallest such d.

Reports are one-sided on both paths: a reported pair is always truly
within d, so a probe that reports every pair proves diameter <= d.

Positive weights: every probe is the deterministic path over one primal
matrix built per call, and the search covers [1, M(n-1)].

General weights: one prepare_general pass per search over its Johnson
potentials, whose Bellman-Ford is also the negative-cycle check; a probe
is then only classify_threshold(run, d). Since
dist <= delta_star <= dist + K (the upper bound with high probability),
the search covers the K-wide window
[max(0, max delta_star - K), min(M(n-1), max delta_star)], about
log2(K+1) probes. The diameter is never below 0 (diagonal distances are
0). If some delta_star entry is infinite the search covers [0, M(n-1)].

Certificate: the answer is checked, not re-sampled, since probes sharing
one run are correlated. probe(diam) must report every pair. The
candidates are the pairs it reports that probe(diam - 1) does not; by
one-sidedness they include every pair at distance diam. A candidate is
kept only when its exact distance equals diam: the hitting-set distance
when an endpoint was sampled (exact, as dist(x, x) = 0), otherwise one
Dijkstra from its source. If the probe trace is not monotone or no
candidate survives, the whole search is retried with a fresh derived
seed, so a returned value and witness set are exact (Las Vegas).

The probe trace lists each threshold classified once, in order, the two
certificate probes included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig, pick_mode
from .far_pairs import sssp_rows
from .graphs import Graph, johnson_potentials, one_based_pairs, transitive_closure
from .matrices import INF, is_finite
from .sampling import Rng
from .threshold_general import GeneralRun, classify_threshold, prepare_general
from .threshold_positive import primal_distances, threshold_apsp_pos


@dataclass
class DiameterResult:
    value: object  # int, or math.inf when some pair is unreachable
    witnesses: list  # 1-based (u, v) pairs realizing the value
    probes: list = field(default_factory=list)  # (d, all_within) trace
    lo: int = 0
    hi: int = 0

    @property
    def finite(self) -> bool:
        return self.value != math.inf


def _window(run: GeneralRun, top: int) -> tuple:
    """Search range [lo, hi] from delta_star, with top = M(n-1)."""
    ds = run.delta_star
    if not is_finite(ds).all():
        return 0, top
    best = int(ds.max())
    return max(0, best - run.schedule.K), min(top, best)


def _exact_witnesses(g: Graph, run: GeneralRun, cand: np.ndarray,
                     diam: int) -> np.ndarray:
    """The candidates whose exact distance is diam."""
    sampled = np.zeros(g.n, dtype=bool)
    sampled[run.far.hitting] = True
    # delta_t[u, v] = dist(u, v) when u or v was sampled
    known = sampled[:, None] | sampled[None, :]
    exact = np.where(known, run.far.delta, INF)
    rest = np.flatnonzero((cand & ~known).any(axis=1))
    if rest.size:
        exact[rest] = sssp_rows(g, run.far.potentials, rest)
    return cand & (exact == diam)


def _search(g: Graph, config: RunConfig, rng: Rng,
            primal: np.ndarray | None) -> DiameterResult | None:
    """One certified binary search; None when the general path must retry.

    primal selects the positive path; otherwise one general pipeline
    pass is prepared from rng and every probe classifies against it.
    """
    lo, hi = 1, g.M * (g.n - 1)
    if primal is not None:
        def classify(d):
            return threshold_apsp_pos(g, d, kernel=config.kernel,
                                      primal=primal).reported
    else:
        run = prepare_general(g, config, rng, johnson_potentials(g))
        lo, hi = _window(run, hi)

        def classify(d):
            return classify_threshold(run, d, config).reported

    reports = {}

    def probe(d: int) -> np.ndarray:
        if d not in reports:
            reports[d] = classify(d)
        return reports[d]

    # the top of the range is an upper bound (closure check or delta_star);
    # the certificate below confirms whatever the search settles on
    a, b = lo, hi
    while a < b:
        mid = (a + b) // 2
        if probe(mid).all():
            b = mid
        else:
            a = mid + 1
    diam = a
    at = probe(diam)
    below = probe(diam - 1)
    probes = [(d, bool(rep.all())) for d, rep in reports.items()]
    # every probe below diam False, at or above diam True
    if any(ok != (d >= diam) for (d, ok) in probes):
        return None
    wit = at & ~below
    if primal is None:
        wit = _exact_witnesses(g, run, wit, diam)
    if not wit.any():
        return None
    return DiameterResult(value=diam, witnesses=one_based_pairs(wit),
                          probes=probes, lo=lo, hi=hi)


def diameter(g: Graph, config: RunConfig = None, rng: Rng = None) -> DiameterResult:
    """Exact diameter of g, or +inf with unreachable witness pairs."""
    if config is None:
        config = RunConfig()
    if rng is None:
        rng = Rng(config.seed)
    positive = pick_mode(g, config) == "positive"
    closure = transitive_closure(g)
    if not closure.all():
        return DiameterResult(value=math.inf, witnesses=one_based_pairs(~closure))
    if g.n == 1:
        return DiameterResult(value=0, witnesses=[(1, 1)])
    if positive:
        primal = primal_distances(g)
        out = _search(g, config, rng, primal)
        if out is None:
            raise RuntimeError("inconsistent probe trace on the deterministic path")
        return out
    for attempt in range(config.max_attempts):
        out = _search(g, config, rng.derive(1000 + attempt), None)
        if out is not None:
            return out
    raise RuntimeError(f"diameter search failed its certificate after "
                       f"{config.max_attempts} searches")
