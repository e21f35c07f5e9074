"""The library's two questions: which pairs are within d, and the diameter.

threshold(g, d) reports the ordered pairs at distance <= d on the path
pick_mode selects from config.mode: the deterministic positive path
for weights in {1..M}, the randomized general path for [-M, M].
diameter(g) searches over such reports. Both apply config.verify_due
themselves, so a caller's verify=True checks every answer against the
Floyd-Warshall oracle and a disagreement raises VerifyMismatchError: the
general threshold path re-runs on fresh seeds first (threshold_apsp_neg),
the deterministic positive path and the Las Vegas diameter are checked
once.

The diameter is the largest pairwise distance, +inf when some ordered
pair is unreachable; its witnesses are the pairs at that distance, or
the unreachable ones.

Reports are one-sided on both paths: a reported pair is always truly
within d, so a probe that reports every pair proves diameter <= d.

Any unreachable ordered pair makes the diameter +inf, its witnesses are
those pairs, and no search runs. On the general path one Bellman-Ford
runs first: it gives the Johnson potentials every run shares and is the
negative-cycle check, so a negative cycle raises NegativeCycleError even
when some pair is unreachable. Reachability is then read off one of two
sources:
- A capped general run (hitting set every vertex, below) prepares its
  run first and reads reachability off delta_star, with no separate
  closure: a capped run's delta_star is far.delta, whose INF entries
  are exactly the unreachable pairs (compute_delta_t gives the proof).
  Whether the run is capped is decided before it, from the schedule
  alone (threshold_general.capped).
- The positive path and sampled general runs run the Boolean closure
  graphs.transitive_closure before any run.

Positive weights: every probe is the deterministic path over one primal
matrix built per call at its full cap (threshold_positive.primal_cap), so
a probe within the cap runs no level step, and binary search over
[1, M(n-1)] pins the smallest d whose probe reports every pair.

General weights: each attempt prepares one run, prepare_general on
rng.derive(1000 + attempt).
- If its hitting set is every vertex, one attempt answers directly: the
  value is max(delta_star) and the witnesses are the pairs at it, in
  row-major order, or +inf and the INF pairs (above). No probe or
  certificate runs, and lo = hi = value (0 for +inf).
  Proof: a capped run has no levels, so delta_star = far.delta
  (prepare_general), which is exact APSP when every vertex is sampled
  (compute_delta_t gives the proof). When every pair is reachable, its
  maximum and the pairs at it are the diameter and its witnesses by
  definition.
- Otherwise the hitting set is sampled, and a probe is only
  classify_threshold(run, d). Since dist <= delta_star <= dist + K (the
  upper bound with high probability), the search covers the K-wide
  window [max(0, max delta_star - K), min(M(n-1), max delta_star)],
  about log2(K+1) probes. The diameter is never below 0 (diagonal
  distances are 0). If some delta_star entry is infinite the search
  covers [0, M(n-1)].

Certificate: both paths search and certify by one rule (_search), given
a range, classify(d) and exact(cand, diam). probe(diam) must report
every pair. The candidates are the pairs probe(diam) reports that
probe(diam - 1) does not; by one-sidedness they include every pair at
distance diam, and exact(cand, diam) keeps those whose distance is diam.
The rest of the probe trace needs no check: the bisection leaves every
probe below diam short of some pair, and when diam = lo a probe(lo - 1)
that reports every pair leaves no candidate.
- Positive path: reports are exact, so the candidates are exactly the
  pairs at diam and exact keeps them all. The path is deterministic, so
  one search runs and a failed certificate raises.
- Sampled general path: probes sharing one run are correlated, so the
  answer is checked, not re-sampled. A candidate is kept only when its
  exact distance equals diam: the hitting-set distance when an endpoint
  was sampled (exact, as dist(x, x) = 0), otherwise one Dijkstra from
  its source (_exact_witnesses). If probe(diam) misses a pair or no
  candidate survives, the whole search is retried on a fresh run with a
  fresh derived seed, up to MAX_ATTEMPTS searches, so a returned
  value and witness set are exact (Las Vegas).

The probe trace lists each threshold classified once, in order, the two
certificate probes included; it is empty for a direct answer and for
+inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import MAX_ATTEMPTS, RunConfig, pick_mode
from .far_pairs import sssp_rows
from .graphs import (Graph, integer_threshold, johnson_potentials,
                     one_based_pairs, to_matrix, transitive_closure)
from .matrices import INF, is_finite
from .oracle import floyd_warshall
from .sampling import Rng
from .threshold_general import (GeneralRun, ThresholdReport, VerifyMismatchError,
                                capped, classify_threshold, oracle_report,
                                prepare_general, threshold_apsp_neg)
from .threshold_positive import primal_distances, threshold_apsp_pos


def threshold(g: Graph, d: int, config: RunConfig | None = None) -> ThresholdReport:
    """Ordered pairs at distance <= d, on the path pick_mode selects.

    The general path verifies and retries inside threshold_apsp_neg. The
    positive path is deterministic, so under config.verify_due(g.n) its
    report is compared once with the oracle's. d is any integer, Python
    or numpy; any other d raises ValueError (graphs.integer_threshold).
    """
    d = integer_threshold(d)
    config = config or RunConfig()
    if pick_mode(g, config) == "general":
        return threshold_apsp_neg(g, d, config=config)
    rep = threshold_apsp_pos(g, d, kernel=config.kernel)
    want = oracle_report(g, d, config)
    if want is not None and not np.array_equal(rep.reported, want):
        raise VerifyMismatchError("positive-path report disagrees with the oracle")
    return rep


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


def _search(lo: int, hi: int, classify, exact) -> DiameterResult | None:
    """One certified binary search over [lo, hi]; None when it fails.

    classify(d) is the one-sided report at d, and exact(cand, diam) keeps
    the candidates whose distance is diam. Each d is classified once; the
    trace lists them in call order, the two certificate probes last.
    """
    reports = {}

    def probe(d: int) -> np.ndarray:
        if d not in reports:
            reports[d] = classify(d)
        return reports[d]

    # the caller's hi bounds the diameter from above; the certificate
    # below confirms whatever the search settles on
    a, b = lo, hi
    while a < b:
        mid = (a + b) // 2
        if probe(mid).all():
            b = mid
        else:
            a = mid + 1
    diam = a
    at = probe(diam)
    if not at.all():
        return None
    wit = exact(at & ~probe(diam - 1), diam)
    if not wit.any():
        return None
    probes = [(d, bool(rep.all())) for d, rep in reports.items()]
    return DiameterResult(value=diam, witnesses=one_based_pairs(wit),
                          probes=probes, lo=lo, hi=hi)


def _answer(dist: np.ndarray) -> DiameterResult:
    """The diameter read off exact distances: the largest entry and the
    pairs at it, with lo = hi = value; +inf and the INF pairs when that
    entry is INF."""
    value = int(dist.max())
    if value == INF:
        return DiameterResult(value=math.inf, witnesses=one_based_pairs(dist == INF))
    return DiameterResult(value=value, lo=value, hi=value,
                          witnesses=one_based_pairs(dist == value))


def _verify(g: Graph, res: DiameterResult) -> None:
    """VerifyMismatchError unless the oracle gives res's value and
    witnesses: the pairs at that distance, or the unreachable ones."""
    want = _answer(floyd_warshall(to_matrix(g)))
    if want.value != res.value:
        raise VerifyMismatchError(f"diameter {res.value} but oracle says {want.value}")
    if want.witnesses != sorted(res.witnesses):
        raise VerifyMismatchError("witness set disagrees with the oracle")


def _solve(g: Graph, config: RunConfig, rng: Rng) -> DiameterResult:
    """diameter() before its oracle check, in the module docstring's
    order: the Bellman-Ford (general path), a capped general run
    answered directly off delta_star (reachability included, proof
    there), else the reachability closure and the attempts. Each attempt
    prepares its path's state, the primal matrix or a sampled general
    run on a fresh derived seed, and hands _search its range, classify
    and exact; only the general path makes more than one.
    """
    mode = pick_mode(g, config)
    positive = mode == "positive"
    h = None if positive else johnson_potentials(g)
    if g.n == 1:
        return DiameterResult(value=0, witnesses=[(1, 1)])
    if not positive and capped(g, config):
        return _answer(prepare_general(g, config, rng.derive(1000), h).delta_star)
    closure = transitive_closure(g)
    if not closure.all():
        return DiameterResult(value=math.inf, witnesses=one_based_pairs(~closure))
    top = g.M * (g.n - 1)
    # the positive path is deterministic: a failed certificate fails again
    searches = 1 if positive else MAX_ATTEMPTS
    for attempt in range(searches):
        if positive:
            primal = primal_distances(g)
            out = _search(1, top,
                          lambda d: threshold_apsp_pos(g, d, kernel=config.kernel,
                                                       primal=primal).reported,
                          lambda cand, diam: cand)  # positive reports are exact
        else:
            run = prepare_general(g, config, rng.derive(1000 + attempt), h)
            out = _search(*_window(run, top),
                          lambda d: classify_threshold(run, d, config).reported,
                          lambda cand, diam: _exact_witnesses(g, run, cand, diam))
        if out is not None:
            return out
    raise RuntimeError(f"diameter search failed its certificate after "
                       f"{searches} search(es) on the {mode} path")


def diameter(g: Graph, config: RunConfig | None = None) -> DiameterResult:
    """Exact diameter of g, or +inf with unreachable witness pairs;
    checked against the oracle when config.verify_due(g.n)."""
    config = config or RunConfig()
    res = _solve(g, config, Rng(config.seed))
    if config.verify_due(g.n):
        _verify(g, res)
    return res
