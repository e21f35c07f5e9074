"""Threshold decisions for weights in [-M, M], randomized pipeline.

For a threshold d, every ordered pair is classified against an estimate
delta_star with dist <= delta_star <= dist + K: pairs at or below d are
reported, pairs beyond d + K are rejected outright, and the thin
uncertainty band in between is resolved exactly from each level's
partial matrix by one matrices.window_square around d/2, the product
the positive path's level steps run. delta_star itself is the pointwise
minimum of the hitting set distances (long paths) and one scaled
estimate per schedule level (each covering one band of path lengths).
A run whose hitting set is every vertex has exact hitting set distances
and no levels. build_levels builds the levels, each on its own derived
random streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .approx import additive_approximate
from .config import MAX_ATTEMPTS, RunConfig
from .far_pairs import FarDistances, compute_delta_t, hitting_count
from .graphs import (Graph, integer_threshold, johnson_potentials,
                     one_based_pairs, to_matrix, transitive_closure)
from .matrices import INF, window_square
from .oracle import brute_threshold, floyd_warshall
from .partial_distances import PartialDistanceMatrix, build_partial
from .sampling import Rng
from .schedule import Schedule, build_schedule


class VerifyMismatchError(RuntimeError):
    """A verified answer disagrees with the brute-force oracle (on the
    general threshold path, after all retries)."""


@dataclass
class GeneralRun:
    """Threshold-independent state of one pipeline pass."""

    schedule: Schedule
    far: FarDistances
    partials: list
    delta_star: np.ndarray


@dataclass
class ThresholdReport:
    """Ordered pairs reported within d; both threshold paths return it."""

    reported: np.ndarray
    d: int
    stats: dict = field(default_factory=dict)
    # exact distances on the window pairs (far.delta lowered by each
    # level's window square), INF elsewhere; None whenever no window
    # square ran: on the positive path, on shortcuts, and on general runs
    # with no partial matrix or no window pair
    window_exact: np.ndarray | None = None

    @property
    def count(self) -> int:
        return int(self.reported.sum())

    def pairs(self) -> list:
        return one_based_pairs(self.reported)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def build_levels(g: Graph, sched: Schedule, config: RunConfig,
                 rng: Rng) -> list:
    """(partial matrix, scaled estimate) for each level of sched, level i
    built on the streams rng.derive(100 + i) and rng.derive(200 + i)."""
    w = to_matrix(g)
    out = []
    for lev in sched.levels:
        pdm = build_partial(w, g.M, lev.beta, lev.gamma, rng.derive(100 + lev.index),
                            kernel=config.kernel)
        est = additive_approximate(pdm, lev, rng.derive(200 + lev.index),
                                   kernel=config.kernel)
        out.append((pdm, est))
    return out


def capped(g: Graph, config: RunConfig) -> bool:
    """Whether a general run on g samples every one of its n vertices as
    its hitting set (far_pairs.hitting_count). It depends on n and the
    schedule alone, so it is known before any run."""
    sched = build_schedule(g.n, g.M, omega=config.omega,
                           force_beta=config.force_beta)
    return hitting_count(g.n, sched.t_far) == g.n


def prepare_general(g: Graph, config: RunConfig, rng: Rng,
                    h: np.ndarray) -> GeneralRun:
    """Everything that does not depend on the threshold: schedule, far
    distances, one partial matrix and scaled estimate per level. h are
    g's Johnson potentials (graphs.johnson_potentials).

    A capped run, whose hitting set is all n vertices, has no levels:
    far.delta is then exact (compute_delta_t), so delta_star = far.delta,
    the same array. Its diagonal is already exactly 0 (compute_delta_t),
    so only a run with levels pins it.
    A capped sample draws nothing and no level derives a stream, so
    uncapped runs keep their random streams.
    """
    sched = build_schedule(g.n, g.M, omega=config.omega,
                           force_beta=config.force_beta)
    far = compute_delta_t(g, sched.t_far, rng.derive(0), h)
    levels = [] if far.hitting.size == g.n else build_levels(g, sched, config, rng)
    delta_star = far.delta
    if levels:
        for _, est in levels:
            delta_star = np.minimum(delta_star, est.delta)
        # distances to self are identically 0 on negative-cycle-free
        # graphs; no level band covers edge count 0, and a sampled far
        # combine need not hold 0 there, so pin the diagonal directly
        np.fill_diagonal(delta_star, 0)
    return GeneralRun(schedule=sched, far=far,
                      partials=[pdm for pdm, _ in levels],
                      delta_star=delta_star)


def target_distances(pdm: PartialDistanceMatrix, d: int, k_margin: int,
                     kernel: str = "numpy") -> np.ndarray:
    """Exact distances near d recovered from one partial matrix: the
    window square of pdm.P on [lo, hi] = [ceil(d/2) - k_margin,
    floor(d/2) + k_margin] (matrices.window_square, the product
    threshold_positive.level_step runs on its own window).

    Entries are >= dist everywhere, and equal to dist for pairs of the
    matrix's band whose distance lies in (d, d + k_margin].

    Proof. Every term of the square is max(P[u, x], lo) +
    max(P[x, v], lo) over the x with P[u, x] <= hi and P[x, v] <= hi (INF
    where there is none). P >= dist entrywise (build_partial's entries are
    walk weights), and clipping at the floor lo only raises a half, so
    every term is at least dist(u, x) + dist(x, v) >= dist(u, v). A band
    pair is exact through an exact midpoint, an x with P[u, x] + P[x, v]
    = dist(u, v) and both halves in [lo, hi], which partial-matrix
    property 2 provides for the pairs of the matrix's band. Inside
    [lo, hi] the first-index map only shifts an entry by lo, so clipping
    never touches that term, it is exactly dist(u, v), and no term is
    smaller.
    """
    return window_square(pdm.P, _ceil_div(d, 2) - k_margin, d // 2 + k_margin,
                         kernel=kernel)


def classify_threshold(run: GeneralRun, d: int, config: RunConfig) -> ThresholdReport:
    """Report pairs with delta_star <= d; resolve the (d, d+K] band.

    delta_star <= far.delta entrywise, so far.delta never reports a
    window pair (delta_star > d): only a partial matrix's window square
    can. So the window arrays (the squares, window_exact and the pairs
    they keep) are formed only when the run has partial matrices and the
    window holds a pair; otherwise the report is exactly delta_star <= d,
    window_reported is 0 and window_exact is None. A capped run has no
    partial matrix.
    """
    k_margin = run.schedule.K
    ds = run.delta_star
    accepted = ds <= d
    near = ds <= d + k_margin  # the accepted pairs and the window
    # count_nonzero is several times faster than a Boolean sum at this size
    n_accepted = int(np.count_nonzero(accepted))
    n_window = int(np.count_nonzero(near)) - n_accepted
    reported, n_kept, window_exact = accepted, 0, None
    if run.partials and n_window:
        exact = run.far.delta
        for pdm in run.partials:
            exact = np.minimum(exact, target_distances(
                pdm, d, k_margin, kernel=config.kernel))
        window_exact = np.where(near & ~accepted, exact, INF)
        keep = window_exact <= d
        reported = accepted | keep
        n_kept = int(np.count_nonzero(keep))
    stats = {
        "accepted": n_accepted,
        "rejected": ds.size - n_accepted - n_window,
        "window": n_window,
        "window_reported": n_kept,
        "K": k_margin,
        "levels": len(run.partials),
        "edge_case": None,
    }
    return ThresholdReport(reported=reported, d=d, stats=stats,
                           window_exact=window_exact)


def _edge_case_report(g: Graph, d: int) -> ThresholdReport | None:
    span = g.n * g.M
    if d < -span:
        rep = np.zeros((g.n, g.n), dtype=bool)
        return ThresholdReport(reported=rep, d=d, stats={"edge_case": "below_range"})
    if d > span:
        rep = transitive_closure(g)
        return ThresholdReport(reported=rep, d=d, stats={"edge_case": "closure"})
    if g.n == 1:
        rep = np.array([[d >= 0]], dtype=bool)
        return ThresholdReport(reported=rep, d=d, stats={"edge_case": "single_vertex"})
    return None


def oracle_report(g: Graph, d: int, config: RunConfig) -> np.ndarray | None:
    """The brute-force report for (g, d), or None unless
    config.verify_due(g.n)."""
    if not config.verify_due(g.n):
        return None
    return brute_threshold(floyd_warshall(to_matrix(g)), d)


def threshold_apsp_neg(g: Graph, d: int,
                       config: RunConfig | None = None) -> ThresholdReport:
    """Ordered pairs at distance <= d, weights in [-M, M].

    Raises NegativeCycleError (with a witness cycle) if distances are
    undefined. In verify mode, instances up to config.verify_bound are
    checked against the brute-force oracle and re-run on fresh derived
    seeds until they agree, up to MAX_ATTEMPTS passes. n = 1 and a d
    outside [-nM, nM] are answered without a run (_edge_case_report). d
    is any integer, Python or numpy (graphs.integer_threshold).
    """
    d = integer_threshold(d)
    config = config or RunConfig()
    rng = Rng(config.seed)
    h = johnson_potentials(g)
    shortcut = _edge_case_report(g, d)
    if shortcut is not None:
        shortcut.stats["attempts"] = 1
        return shortcut
    oracle_rep = oracle_report(g, d, config)
    attempts = MAX_ATTEMPTS if oracle_rep is not None else 1
    for attempt in range(attempts):
        run = prepare_general(g, config, rng.derive(attempt), h)
        report = classify_threshold(run, d, config)
        report.stats["attempts"] = attempt + 1
        if oracle_rep is None or np.array_equal(report.reported, oracle_rep):
            return report
    raise VerifyMismatchError(
        f"threshold report still disagrees with oracle after "
        f"{attempts} attempts (n={g.n}, d={d}, seed={config.seed})")
