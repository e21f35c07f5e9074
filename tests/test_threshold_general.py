import dataclasses

import numpy as np
import pytest

from helpers import (lower_strassen_cutoff, mixed_graph, sc_mixed_graph,
                     schedule_levels)
from tapsp import (approx, far_pairs, graphs, matrices, partial_distances,
                   threshold_general)
from tapsp.config import KERNELS, RunConfig
from tapsp.graphs import (NegativeCycleError, find_negative_cycle,
                          johnson_potentials, make_graph, to_matrix)
from tapsp.matrices import INF, dist_product_naive, is_finite, window_square
from tapsp.oracle import brute_threshold, floyd_warshall, min_edge_counts
from tapsp.partial_distances import PartialDistanceMatrix
from tapsp.sampling import Rng
from tapsp.schedule import build_schedule
from tapsp.threshold_general import (GeneralRun, ThresholdReport,
                                     VerifyMismatchError, classify_threshold,
                                     prepare_general, target_distances,
                                     threshold_apsp_neg)
from tapsp.threshold_positive import threshold_apsp_pos


def _oracle(g, d):
    return brute_threshold(floyd_warshall(to_matrix(g)), d)


def _window(run, d):
    ds = run.delta_star
    return (ds > d) & (ds <= d + run.schedule.K)


def test_matches_oracle_on_small_instances():
    for seed in range(6):
        g = mixed_graph(14, 0.35, 3, seed)
        for d in (-5, -1, 0, 1, 4, 11, 50):
            rep = threshold_apsp_neg(g, d)
            assert np.array_equal(rep.reported, _oracle(g, d)), (seed, d)


def test_negative_cycle_raises_with_witness():
    g = make_graph(3, [(1, 2, -2), (2, 3, -2), (3, 1, 1)])
    with pytest.raises(NegativeCycleError) as exc:
        threshold_apsp_neg(g, 0)
    assert exc.value.cycle is not None


def test_one_bellman_ford_per_call(monkeypatch):
    neg = make_graph(3, [(1, 2, -2), (2, 3, -2), (3, 1, 1)])
    cycle = find_negative_cycle(neg)
    calls = {"bf": 0}
    orig = graphs._bellman_ford

    def counted(g):
        calls["bf"] += 1
        return orig(g)

    monkeypatch.setattr(graphs, "_bellman_ford", counted)
    g = mixed_graph(10, 0.4, 2, seed=8)
    span = g.n * g.M
    for cfg in (RunConfig(), RunConfig(verify=True, verify_bound=64)):
        for d, edge_case in ((3, None), (-span - 1, "below_range"),
                             (span + 1, "closure")):
            calls["bf"] = 0
            rep = threshold_apsp_neg(g, d, config=cfg)
            assert np.array_equal(rep.reported, _oracle(g, d))
            assert rep.stats["edge_case"] == edge_case
            assert calls["bf"] == 1, (cfg.verify, d)
    calls["bf"] = 0
    with pytest.raises(NegativeCycleError) as exc:
        threshold_apsp_neg(neg, 0)
    assert exc.value.cycle == cycle
    assert calls["bf"] == 1


def test_d_below_range_reports_nothing():
    g = mixed_graph(8, 0.4, 2, seed=1)
    rep = threshold_apsp_neg(g, -(8 * 2) - 1)
    assert not rep.reported.any()
    assert rep.stats["edge_case"] == "below_range"


def test_d_above_range_is_reachability():
    g = mixed_graph(8, 0.4, 2, seed=2)
    rep = threshold_apsp_neg(g, 8 * 2 + 1)
    dist = floyd_warshall(to_matrix(g))
    assert np.array_equal(rep.reported, is_finite(dist))
    assert rep.stats["edge_case"] == "closure"


def test_single_vertex():
    g = make_graph(1, [])
    assert threshold_apsp_neg(g, 0).reported[0, 0]
    assert not threshold_apsp_neg(g, -1).reported[0, 0]


def test_diagonal_always_reported_at_zero():
    g = mixed_graph(12, 0.3, 3, seed=5)
    rep = threshold_apsp_neg(g, 0)
    assert np.diag(rep.reported).all()


def test_window_pairs_get_resolved_exactly():
    # choose d right below a realized distance so the uncertainty band
    # is actually populated, then check the exact resolver's verdicts
    for seed in range(8):
        g = sc_mixed_graph(16, 0.3, 3, seed + 3)
        dist = floyd_warshall(to_matrix(g))
        vals = np.unique(dist[is_finite(dist)])
        if vals.size < 3:
            continue
        d = int(vals[vals.size // 2])
        cfg = RunConfig()
        run = prepare_general(g, cfg, Rng(seed), johnson_potentials(g))
        rep = classify_threshold(run, d, cfg)
        assert np.array_equal(rep.reported, _oracle(g, d))
        # a capped run has no partial matrix, so no window square runs and
        # its window pairs are resolved by far.delta itself
        assert run.partials == [] and rep.window_exact is None
        win = _window(run, d)
        got, want = run.far.delta[win], dist[win]
        assert (got >= want).all()
        assert np.array_equal(got <= d, want <= d)


def test_delta_star_window_bound():
    for seed in range(8):
        g = sc_mixed_graph(14, 0.35, 2, seed)
        cfg = RunConfig()
        run = prepare_general(g, cfg, Rng(seed + 1), johnson_potentials(g))
        dist = floyd_warshall(to_matrix(g))
        fin = is_finite(dist)
        assert (run.delta_star[fin] >= dist[fin]).all()
        assert (run.delta_star[fin] <= dist[fin] + run.schedule.K).all()
        assert not is_finite(run.delta_star[~fin]).any()


def test_target_distances_exact_in_band():
    # pairs whose edge count falls in the level band and whose distance
    # lies in the probe window must come back exact; the hitting set is
    # capped at n = 14, so the levels are built outside prepare_general
    levels_checked = 0
    for seed in range(6):
        g = sc_mixed_graph(14, 0.35, 3, seed + 11)
        w = to_matrix(g)
        dist = floyd_warshall(w)
        counts = min_edge_counts(w, dist)
        cfg = RunConfig()
        K = build_schedule(g.n, g.M, omega=cfg.omega).K
        vals = np.unique(dist[is_finite(dist)])
        d = int(vals[2 * vals.size // 3])
        for lev, pdm, _ in schedule_levels(g, cfg, Rng(seed)):
            levels_checked += 1
            t = target_distances(pdm, d, K)
            fin = is_finite(t)
            assert (t[fin] >= dist[fin]).all()
            band = (lev.t / 2.0 <= counts) & (counts < lev.t)
            band &= is_finite(dist) & (dist > d) & (dist <= d + K)
            if band.any():
                assert np.array_equal(t[band], dist[band])
    assert levels_checked > 0


def _shift_and_drop(P, lo, hi):
    """The uncertainty-window square that drops every entry outside
    [lo, hi] instead of clipping the ones below lo to lo."""
    s = np.where((P >= lo) & (P <= hi), P - lo, INF)
    r = dist_product_naive(s, s)
    return np.where(is_finite(r), r + 2 * lo, INF)


@pytest.mark.parametrize("kernel", KERNELS)
def test_target_distances_clip_entries_below_the_window(kernel):
    # 1 -> 2 -> 3 -> 4 with weights 1, 5, -5; P is the distance matrix,
    # a valid partial matrix (P >= dist). Each (d, K) puts some entry of P
    # below lo = ceil(d/2) - K, the last one with lo < 0.
    g = make_graph(4, [(1, 2, 1), (2, 3, 5), (3, 4, -5)])
    dist = floyd_warshall(to_matrix(g))
    pdm = PartialDistanceMatrix(P=dist.copy(), beta=0.0, gamma=0.0,
                                bridge=np.arange(4))
    for d, K in ((8, 2), (1, 1), (-2, 1)):
        lo, hi = -(-d // 2) - K, d // 2 + K
        assert (pdm.P < lo).any()
        got = target_distances(pdm, d, K, kernel=kernel)
        assert np.array_equal(got, window_square(pdm.P, lo, hi, kernel=kernel))
        first = np.where(pdm.P <= hi, np.maximum(pdm.P, lo) - lo, INF)
        sq = dist_product_naive(first, first)
        assert np.array_equal(got, np.where(is_finite(sq), sq + 2 * lo, INF))
        dropped = _shift_and_drop(pdm.P, lo, hi)
        assert (got <= dropped).all(), (d, K)
        gained = is_finite(got) & ~is_finite(dropped)
        assert gained.any(), (d, K)
        fin = is_finite(got)
        assert (got[fin] >= dist[fin]).all(), (d, K)


def test_verify_retry_returns_on_agreement():
    g = mixed_graph(10, 0.4, 2, seed=8)
    cfg = RunConfig(verify=True, verify_bound=64)
    rep = threshold_apsp_neg(g, 3, config=cfg)
    assert rep.stats["attempts"] >= 1
    assert np.array_equal(rep.reported, _oracle(g, 3))


def test_verify_skipped_above_bound():
    g = mixed_graph(10, 0.4, 2, seed=8)
    cfg = RunConfig(verify=True, verify_bound=4)
    rep = threshold_apsp_neg(g, 3, config=cfg)
    assert rep.stats["attempts"] == 1


def test_runs_are_deterministic():
    g = mixed_graph(12, 0.35, 3, seed=17)
    a = threshold_apsp_neg(g, 2, RunConfig(seed=4))
    b = threshold_apsp_neg(g, 2, RunConfig(seed=4))
    assert np.array_equal(a.reported, b.reported)
    assert a.stats == b.stats


def test_all_kernels_give_identical_reports(monkeypatch):
    # force_beta=0 keeps the hitting set below n, so the partial matrices
    # and estimates are built and the window product decides some pairs
    strassen = lower_strassen_cutoff(monkeypatch, 4)
    window_reported = 0
    for g, seed in ((sc_mixed_graph(32, 0.1, 3, seed=2), 2),
                    (mixed_graph(32, 0.1, 3, seed=6), 6)):
        cfgs = [RunConfig(force_beta=0.0, kernel=k) for k in KERNELS]
        h = johnson_potentials(g)
        runs = [prepare_general(g, cfg, Rng(seed), h) for cfg in cfgs]
        assert runs[0].far.hitting.size < g.n
        for d in (-3, 0, 1, 2, 3, 4, 10):
            reps = [classify_threshold(run, d, cfg) for run, cfg in zip(runs, cfgs)]
            assert np.array_equal(reps[0].reported, _oracle(g, d)), (seed, d)
            for rep in reps[1:]:
                assert np.array_equal(rep.reported, reps[0].reported), (seed, d)
                assert rep.stats == reps[0].stats
                assert np.array_equal(rep.window_exact, reps[0].window_exact)
            window_reported += reps[0].stats["window_reported"]
    assert window_reported > 0
    assert strassen["calls"] > 0


def test_capped_hitting_set_builds_no_levels(monkeypatch):
    calls = {"dijkstra": 0, "product": 0, "closure": 0}

    def count(module, name, key):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    count(far_pairs, "_dijkstra_heap", "dijkstra")
    for module in (partial_distances, approx, matrices):
        count(module, "dist_product_fast", "product")
    count(threshold_general, "window_square", "product")
    count(far_pairs, "minplus_closure", "closure")

    # capped: no Dijkstra and no product. Every pair is reachable and its
    # reweighted distance lies within the float window, so the far pairs
    # come from window squares alone, with no closure; answers still exact.
    # A path with unreachable pairs (back along it) runs the closure once
    # after the squares, as its cap 2 (n - 1) M = 90 passes the window (85
    # at n = 16)
    cases = [mixed_graph(16, 0.3, 3, seed + 40) for seed in range(3)]
    cases.append(make_graph(16, [(i, i + 1, 2 if i % 2 else -1)
                                 for i in range(1, 16)], M=3))
    for seed, g in enumerate(cases):
        dist = floyd_warshall(to_matrix(g))
        calls.update(dijkstra=0, product=0, closure=0)
        cfg = RunConfig()
        run = prepare_general(g, cfg, Rng(seed), johnson_potentials(g))
        assert run.far.hitting.size == g.n
        assert run.partials == []
        assert calls["dijkstra"] == calls["product"] == 0
        assert calls["closure"] == (0 if is_finite(dist).all() else 1), seed
        assert np.array_equal(run.delta_star, dist), seed
        assert run.delta_star is run.far.delta
        for d in (-2, 0, 2, 5):
            rep = classify_threshold(run, d, cfg)
            assert np.array_equal(rep.reported, _oracle(g, d)), (seed, d)
            # a capped run's stats are the oracle's counts of dist <= d
            # and d < dist <= d + K
            K = run.schedule.K
            accepted = int((dist <= d).sum())
            window = int(((dist > d) & (dist <= d + K)).sum())
            assert rep.stats == {"accepted": accepted, "window": window,
                                 "rejected": g.n * g.n - accepted - window,
                                 "window_reported": 0, "levels": 0, "K": K,
                                 "edge_case": None}, (seed, d)
            # no window square ran: far.delta holds the window pairs exactly
            assert rep.window_exact is None
            win = _window(run, d)
            assert np.array_equal(run.far.delta[win], dist[win])

    # uncapped: both Dijkstra directions per sampled vertex, and the levels
    g = sc_mixed_graph(32, 0.1, 3, seed=2)
    calls.update(dijkstra=0, product=0)
    run = prepare_general(g, RunConfig(force_beta=0.0), Rng(2), johnson_potentials(g))
    assert run.far.hitting.size < g.n
    assert len(run.partials) > 0
    assert calls["dijkstra"] == 2 * run.far.hitting.size
    assert calls["product"] > 0


def test_sampled_run_without_partials_reports_delta_star_within_d():
    # delta_star <= far.delta entrywise, so far.delta alone never reports a
    # window pair: with the partial matrices dropped, a sampled run
    # reports exactly delta_star <= d
    windows = 0
    for g, seed in ((sc_mixed_graph(32, 0.1, 3, seed=2), 2),
                    (mixed_graph(32, 0.1, 3, seed=6), 6)):
        cfg = RunConfig(force_beta=0.0)
        run = prepare_general(g, cfg, Rng(seed), johnson_potentials(g))
        assert run.far.hitting.size < g.n and run.partials
        bare = dataclasses.replace(run, partials=[])
        for d in (-3, 0, 1, 2, 3, 4, 10):
            rep = classify_threshold(bare, d, cfg)
            assert np.array_equal(rep.reported, run.delta_star <= d), (seed, d)
            assert rep.stats["window_reported"] == 0
            # with no partial matrix no window square runs
            assert rep.window_exact is None
            win = _window(run, d)
            assert rep.stats["window"] == int(win.sum())
            assert (run.far.delta[win] > d).all()
            windows += int(win.sum())
    assert windows > 0


@pytest.mark.parametrize("beta, n", [(0.0, 32), (0.3, 256)])
def test_sampled_window_count_is_the_band_population(beta, n):
    # stats["window"] is counted as (delta_star <= d + K) minus the
    # accepted pairs, and the window arrays are formed only when the band
    # is populated: on sampled runs the count must equal the band
    # d < delta_star <= d + K, for d below every distance, at the
    # percentiles and past every distance; window_exact is None exactly
    # when the band is empty
    g = sc_mixed_graph(n, 3 / n, 3, seed=2)
    cfg = RunConfig(force_beta=beta)
    run = prepare_general(g, cfg, Rng(2), johnson_potentials(g))
    assert run.far.hitting.size < g.n and run.partials
    ds, K = run.delta_star, run.schedule.K
    vals = ds[is_finite(ds)]
    ds_at = [int(vals.min()) - K - 1, int(vals.min()) - 1]
    ds_at += [int(np.percentile(vals, q, method="lower")) for q in (10, 50, 90)]
    ds_at += [int(vals.max()), int(vals.max()) + K]
    dist = floyd_warshall(to_matrix(g))
    populated = 0
    for d in ds_at:
        rep = classify_threshold(run, d, cfg)
        band = int(((ds > d) & (ds <= d + K)).sum())
        assert rep.stats["window"] == band, d
        assert rep.stats["accepted"] == int((ds <= d).sum()), d
        assert rep.stats["rejected"] == ds.size - rep.stats["accepted"] - band
        assert (rep.window_exact is None) == (band == 0), d
        assert np.array_equal(rep.reported, brute_threshold(dist, d)), d
        populated += band > 0
    assert 0 < populated < len(ds_at)


def test_report_pairs_are_one_based():
    # both paths return one report type; a pair is (source, target)
    cases = [(threshold_apsp_neg(make_graph(2, [(1, 2, -1)]), -1), [(1, 2)]),
             (threshold_apsp_pos(make_graph(2, [(2, 1, 1)]), 1),
              [(1, 1), (2, 1), (2, 2)])]
    for rep, want in cases:
        assert isinstance(rep, ThresholdReport)
        assert rep.pairs() == want
        assert rep.count == len(want)


def test_forced_schedule_still_exact():
    g = sc_mixed_graph(12, 0.35, 2, seed=23)
    cfg = RunConfig(force_beta=0.5)
    for d in (-2, 0, 3, 9):
        rep = threshold_apsp_neg(g, d, config=cfg)
        assert np.array_equal(rep.reported, _oracle(g, d))
