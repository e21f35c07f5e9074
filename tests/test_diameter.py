import importlib
import math

import numpy as np
import pytest

from helpers import (lower_strassen_cutoff, mixed_graph, sc_mixed_graph,
                     sc_positive_graph, two_scc_graph)
from tapsp import graphs
from tapsp.config import KERNELS, MAX_ATTEMPTS, RunConfig
from tapsp.diameter import diameter, threshold
from tapsp.far_pairs import compute_delta_t
from tapsp.graphs import (MAX_SPAN, NegativeCycleError, find_negative_cycle,
                          gen_random, johnson_potentials, make_graph, to_matrix)
from tapsp.matrices import is_finite
from tapsp.oracle import floyd_warshall
from tapsp.sampling import Rng
from tapsp.schedule import build_schedule
from tapsp.threshold_general import (VerifyMismatchError, prepare_general,
                                     threshold_apsp_neg)

# the package re-exports the function under the module's name
dia_mod = importlib.import_module("tapsp.diameter")
pos_mod = importlib.import_module("tapsp.threshold_positive")
tg_mod = importlib.import_module("tapsp.threshold_general")
fp_mod = importlib.import_module("tapsp.far_pairs")


def _oracle_diameter(g):
    dist = floyd_warshall(to_matrix(g))
    fin = is_finite(dist)
    value = int(dist.max()) if fin.all() else math.inf
    at = dist == value if fin.all() else ~fin
    return value, sorted((int(u) + 1, int(v) + 1) for u, v in zip(*np.nonzero(at)))


# force_beta=0 samples the hitting set only once 8 ln n < n: at n = 32
# it holds 28 vertices, so the general search and certificate run
SAMPLED = RunConfig(force_beta=0.0)


def sampled_graph(seed):
    return sc_mixed_graph(32, 0.1, 3, seed=seed)


def test_unit_cycle():
    n = 9
    g = make_graph(n, [(i, i % n + 1, 1) for i in range(1, n + 1)])
    res = diameter(g)
    assert res.value == n - 1


def test_positive_matches_oracle():
    for seed in range(10):
        g = sc_positive_graph(11, 0.3, 4, seed)
        want, wit = _oracle_diameter(g)
        res = diameter(g)
        assert res.value == want
        assert sorted(res.witnesses) == wit


def test_general_matches_oracle():
    for seed in range(10):
        g = sc_mixed_graph(11, 0.3, 3, seed + 20)
        want, wit = _oracle_diameter(g)
        res = diameter(g)
        assert res.value == want
        assert sorted(res.witnesses) == wit


def test_unreachable_pair_gives_infinity():
    g = make_graph(4, [(1, 2, 1), (2, 1, 1), (3, 4, 1), (4, 3, 1)])
    res = diameter(g)
    assert res.value == math.inf
    assert not res.finite
    assert (1, 3) in res.witnesses
    assert res.probes == []


def test_witnesses_are_argmax_pairs():
    g = sc_positive_graph(9, 0.4, 3, seed=5)
    res = diameter(g)
    dist = floyd_warshall(to_matrix(g))
    for (u, v) in res.witnesses:
        assert dist[u - 1, v - 1] == res.value


def test_probe_count_stays_logarithmic():
    for seed in range(6):
        g = sc_positive_graph(12, 0.35, 4, seed)
        res = diameter(g)
        span = res.hi - res.lo
        allowed = math.ceil(math.log2(span + 1)) + 2 if span > 0 else 2
        assert len(res.probes) <= allowed


def test_probe_trace_is_monotone(monkeypatch):
    hitting = _record_hitting(monkeypatch)
    for seed in range(6):
        g = sampled_graph(seed + 5)
        res = diameter(g, SAMPLED.with_(seed=seed))
        assert res.probes
        for (d, ok) in res.probes:
            assert ok == (d >= res.value)
    assert max(hitting) < 32


# _search on its own: exact reports from the oracle, every classify call
# recorded; the range is chosen per case
SEARCH_GRAPHS = [sc_positive_graph(9, 0.3, 3, seed=4), sc_mixed_graph(10, 0.3, 3, seed=2)]


def _exact_classify(g, broken=None):
    """classify(d) = the oracle's report, or broken(d) where that is not
    None; the second value lists the d's classified, in call order."""
    dist = floyd_warshall(to_matrix(g))
    calls = []

    def classify(d):
        calls.append(d)
        rep = broken(d) if broken else None
        return dist <= d if rep is None else rep
    return classify, calls


def _bisect_mids(lo, hi, diam):
    mids = []
    while lo < hi:
        mids.append((lo + hi) // 2)
        lo, hi = (lo, mids[-1]) if mids[-1] >= diam else (mids[-1] + 1, hi)
    return mids


@pytest.mark.parametrize("g", SEARCH_GRAPHS)
def test_search_is_a_certified_binary_search_over_any_classify(g):
    want, wit = _oracle_diameter(g)
    for lo, hi in ((0, g.M * (g.n - 1)), (want, g.M * (g.n - 1)), (0, want)):
        classify, calls = _exact_classify(g)
        res = dia_mod._search(lo, hi, classify, lambda cand, diam: cand)
        assert (res.value, sorted(res.witnesses)) == (want, wit)
        assert (res.lo, res.hi) == (lo, hi)
        assert len(calls) == len(set(calls))
        assert res.probes == [(d, d >= want) for d in calls]
        mids = _bisect_mids(lo, hi, want)
        assert calls == mids + [d for d in (want, want - 1) if d not in mids]


@pytest.mark.parametrize("g", SEARCH_GRAPHS)
def test_search_rejects_a_non_monotone_classify(g):
    want, _ = _oracle_diameter(g)
    assert want > 0
    dist = floyd_warshall(to_matrix(g))
    # one d misreports: below the range, every pair; at the top of the
    # range, every pair within want but (1, 1), at distance 0. The second
    # still yields witnesses, so only the check that probe(diam) reports
    # every pair rejects it
    below_all = np.ones((g.n, g.n), dtype=bool)
    top_short = dist <= want
    top_short[0, 0] = False
    for lo, hi, bad, rep in ((want, want + 5, want - 1, below_all),
                             (0, want, want, top_short)):
        classify, calls = _exact_classify(g, lambda d: rep if d == bad else None)
        assert dia_mod._search(lo, hi, classify, lambda cand, diam: cand) is None
        assert bad in calls


@pytest.mark.parametrize("g", SEARCH_GRAPHS)
def test_search_with_no_exact_candidate_returns_none(g):
    want, _ = _oracle_diameter(g)
    classify, calls = _exact_classify(g)
    seen = []

    def exact(cand, diam):
        seen.append((int(cand.sum()), diam))
        return np.zeros_like(cand)
    assert dia_mod._search(0, g.M * (g.n - 1), classify, exact) is None
    # exact saw the pairs at the diameter, once
    dist = floyd_warshall(to_matrix(g))
    assert seen == [(int((dist == want).sum()), want)]


@pytest.mark.parametrize("g", SEARCH_GRAPHS)
def test_search_over_one_value_probes_it_and_the_one_below(g):
    want, wit = _oracle_diameter(g)
    classify, calls = _exact_classify(g)
    res = dia_mod._search(want, want, classify, lambda cand, diam: cand)
    assert calls == [want, want - 1]
    assert (res.value, sorted(res.witnesses), res.lo, res.hi) == (want, wit, want, want)
    assert res.probes == [(want, True), (want - 1, False)]


def test_single_vertex():
    res = diameter(make_graph(1, []))
    assert res.value == 0
    assert res.witnesses == [(1, 1)]


def test_negative_cycle_propagates():
    # at n = 3 vertex 3 is unreachable, yet distances are undefined: the
    # general path runs its Bellman-Ford before the reachability check
    for n in (2, 3):
        g = make_graph(n, [(1, 2, -2), (2, 1, 1)])
        with pytest.raises(NegativeCycleError) as exc:
            diameter(g)
        assert exc.value.cycle == [1, 2], n


def test_forced_general_mode_on_positive_graph():
    g = sc_positive_graph(10, 0.35, 3, seed=2)
    want, wit = _oracle_diameter(g)
    res = diameter(g, config=RunConfig(mode="general"))
    assert res.value == want
    assert sorted(res.witnesses) == wit


def test_mode_mismatch_rejected():
    g = sc_mixed_graph(8, 0.4, 2, seed=3)
    if g.positive_weights():
        pytest.skip("instance came out all positive")
    with pytest.raises(ValueError):
        diameter(g, config=RunConfig(mode="positive"))


def test_deterministic(monkeypatch):
    hitting = _record_hitting(monkeypatch)
    g = sampled_graph(31)
    a = diameter(g, SAMPLED.with_(seed=2))
    b = diameter(g, SAMPLED.with_(seed=2))
    assert a.value == b.value and a.witnesses == b.witnesses and a.probes == b.probes
    assert a.probes and max(hitting) < g.n


def test_general_path_exact_at_the_headroom_limit():
    # n*M = MAX_SPAN (rounded down): the largest sums the numpy kernel
    # forms are still int64 and below INF
    for n in (2, 3, 5):
        M = MAX_SPAN // n
        g = make_graph(n, [(u, u % n + 1, M if u > 1 else -M)
                           for u in range(1, n + 1)], M=M)
        dist = floyd_warshall(to_matrix(g))
        assert diameter(g).value == int(dist.max())
        for d in (int(dist.min()), 0, int(dist.max()) - 1):
            assert np.array_equal(threshold_apsp_neg(g, d).reported, dist <= d), (n, d)


def test_all_kernels_give_identical_diameters(monkeypatch):
    strassen = lower_strassen_cutoff(monkeypatch, 4)
    hitting = _record_hitting(monkeypatch)
    # the mixed graph is sampled, so its probes classify against levels;
    # the positive one's first probe, (1 + M (n - 1)) // 2 = 108, lies past
    # the primal cap at n = 10 (85), so it runs level steps
    cases = [(sc_positive_graph(10, 0.3, 24, seed=5), RunConfig(seed=3)),
             (sampled_graph(6), SAMPLED.with_(seed=3))]
    for g, cfg in cases:
        want, wit = _oracle_diameter(g)
        results = [diameter(g, cfg.with_(kernel=k)) for k in KERNELS]
        for kernel, res in zip(KERNELS, results):
            assert res.value == want, kernel
            assert sorted(res.witnesses) == wit, kernel
            assert res.probes == results[0].probes, kernel
        assert results[0].probes
    assert strassen["calls"] > 0
    assert len(hitting) == len(KERNELS) and max(hitting) < 32


def _count_calls(monkeypatch, module, name, calls, edit=None):
    orig = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        out = orig(*args, **kwargs)
        return edit(out, calls[name]) if edit else out

    monkeypatch.setattr(module, name, wrapper)


def _record_hitting(monkeypatch) -> list:
    """The hitting-set size of every run diameter() prepares, in order."""
    sizes = []

    def record(run, call):
        sizes.append(run.far.hitting.size)
        return run

    _count_calls(monkeypatch, dia_mod, "prepare_general", {}, record)
    return sizes


def test_general_search_prepares_once(monkeypatch):
    calls = {}
    for name in ("prepare_general", "_search", "johnson_potentials"):
        _count_calls(monkeypatch, dia_mod, name, calls)
    hitting = _record_hitting(monkeypatch)
    for seed in range(4):
        g = sampled_graph(seed + 60)
        want, wit = _oracle_diameter(g)
        calls.clear()
        res = diameter(g, SAMPLED.with_(seed=seed))
        assert (res.value, sorted(res.witnesses)) == (want, wit)
        assert calls == {"prepare_general": 1, "_search": 1,
                         "johnson_potentials": 1}
    assert len(hitting) == 4 and max(hitting) < 32


@pytest.mark.parametrize("searches", [1, 2])
def test_one_bellman_ford_per_general_search(monkeypatch, searches):
    # delta_star shifted up by K + 1 fails the first certificate, so a
    # second search runs; both share the call's one Bellman-Ford
    def shift_first(run, call):
        if searches == 2 and call == 1:
            run.delta_star = run.delta_star + run.schedule.K + 1
        return run

    neg = make_graph(3, [(1, 2, -2), (2, 3, -2), (3, 1, 1)])
    cycle = find_negative_cycle(neg)
    calls = {}
    _count_calls(monkeypatch, graphs, "_bellman_ford", calls)
    _count_calls(monkeypatch, dia_mod, "_search", calls)
    _count_calls(monkeypatch, dia_mod, "prepare_general", calls, shift_first)
    hitting = _record_hitting(monkeypatch)
    for seed in range(3):
        g = sampled_graph(seed + 80)
        want, wit = _oracle_diameter(g)
        calls.clear()
        res = diameter(g, SAMPLED.with_(seed=seed))
        assert (res.value, sorted(res.witnesses)) == (want, wit)
        assert (calls["_bellman_ford"], calls["_search"]) == (1, searches)
    assert len(hitting) == 3 * searches and max(hitting) < 32
    calls.clear()
    with pytest.raises(NegativeCycleError) as exc:
        diameter(neg)
    assert exc.value.cycle == cycle
    assert calls["_bellman_ford"] == 1


def test_general_search_stays_in_k_window(monkeypatch):
    cfg = SAMPLED
    hitting = _record_hitting(monkeypatch)
    for seed in range(8):
        g = sc_mixed_graph(32, 0.1, 4, seed=seed + 70)
        k_margin = build_schedule(g.n, g.M, omega=cfg.omega,
                                  force_beta=cfg.force_beta).K
        res = diameter(g, cfg.with_(seed=seed))
        assert 0 <= res.lo <= res.value <= res.hi <= res.lo + k_margin
        assert len(res.probes) <= math.ceil(math.log2(k_margin + 1)) + 2
        assert len({d for (d, _) in res.probes}) == len(res.probes)
        assert res.probes
    assert len(hitting) == 8 and max(hitting) < 32


def test_window_holds_at_the_k_bound(monkeypatch):
    # delta_star = dist + K everywhere is still within its bound, so the
    # window must contain the diameter and one search must answer
    dist = {}

    def at_k_bound(run, call):
        run.delta_star = dist["g"] + run.schedule.K
        return run

    calls = {}
    _count_calls(monkeypatch, dia_mod, "prepare_general", calls, at_k_bound)
    hitting = _record_hitting(monkeypatch)
    for seed in range(4):
        g = sampled_graph(seed + 80)
        dist["g"] = floyd_warshall(to_matrix(g))
        want, wit = _oracle_diameter(g)
        calls.clear()
        res = diameter(g, SAMPLED.with_(seed=seed))
        assert (res.value, sorted(res.witnesses)) == (want, wit)
        assert res.lo <= want <= res.hi
        assert calls["prepare_general"] == 1
    assert len(hitting) == 4 and max(hitting) < 32


def test_broken_first_run_is_caught_and_searched_again(monkeypatch):
    # delta_star shifted up by K + 1 puts the whole window above the
    # diameter; the certificate must reject it and a fresh run answer
    def shift_first(run, call):
        if call == 1:
            run.delta_star = run.delta_star + run.schedule.K + 1
        return run

    calls = {}
    _count_calls(monkeypatch, dia_mod, "prepare_general", calls, shift_first)
    hitting = _record_hitting(monkeypatch)
    for seed in range(4):
        g = sampled_graph(seed + 80)
        want, wit = _oracle_diameter(g)
        calls.clear()
        res = diameter(g, SAMPLED.with_(seed=seed))
        assert res.value == want
        assert sorted(res.witnesses) == wit
        assert calls["prepare_general"] == 2
    assert len(hitting) == 8 and max(hitting) < 32


def test_exact_under_forced_beta():
    # 0.4 and 0.6 cap the hitting set at n = 48; 0.0 samples below n, so
    # the partial matrices and estimates are built and shape delta_star
    for beta in (0.0, 0.4, 0.6):
        for seed in range(4):
            g = sc_mixed_graph(48, 3.0 / 48, 4, seed=seed + 90)
            want, wit = _oracle_diameter(g)
            res = diameter(g, RunConfig(seed=seed, force_beta=beta))
            assert res.value == want, (beta, seed)
            assert sorted(res.witnesses) == wit, (beta, seed)


# capped: the hitting set is every vertex, so delta_star is exact APSP
CAPPED = [sc_mixed_graph(n, 0.3, 3, seed=n + 40) for n in (2, 3, 12, 32)]
UNREACHABLE = {"n3": make_graph(3, [(1, 2, -1), (2, 1, 2)]),
               "n4": make_graph(4, [(1, 2, -2), (2, 1, 3), (3, 4, 1), (4, 3, -1)]),
               "n5": make_graph(5, [(1, 2, 2), (2, 3, -1), (3, 1, 0), (4, 5, -3)]),
               "n32": mixed_graph(32, 0.1, 3, seed=2),
               "n32-two-scc": two_scc_graph(32, 0.1, 3, seed=2)}
WATCHED = ("prepare_general", "transitive_closure", "_search",
           "classify_threshold", "_exact_witnesses")


@pytest.mark.parametrize("g", CAPPED, ids=[f"n{g.n}" for g in CAPPED])
def test_capped_general_run_answers_from_delta_star(monkeypatch, g):
    want, wit = _oracle_diameter(g)
    calls = {}
    for name in WATCHED:
        _count_calls(monkeypatch, dia_mod, name, calls)
    _count_calls(monkeypatch, graphs, "_bellman_ford", calls)
    hitting = _record_hitting(monkeypatch)
    res = diameter(g, RunConfig(seed=1))
    assert (res.value, sorted(res.witnesses)) == (want, wit)
    assert res.witnesses == sorted(res.witnesses)
    assert calls == {"prepare_general": 1, "_bellman_ford": 1}
    assert hitting == [g.n]
    assert res.probes == []
    assert (res.lo, res.hi) == (want, want)


@pytest.mark.parametrize("cfg", [RunConfig(seed=1), SAMPLED.with_(seed=1)],
                         ids=["capped", "sampled"])
@pytest.mark.parametrize("name", UNREACHABLE)
def test_unreachable_pair_ends_the_general_call_before_any_run(monkeypatch, name, cfg):
    # a sampled run (SAMPLED samples only the n = 32 graphs here) settles
    # reachability by the closure before any run: one Bellman-Ford and
    # one closure. A capped run reads it off its delta_star: one
    # Bellman-Ford and one run
    g = UNREACHABLE[name]
    want, wit = _oracle_diameter(g)
    calls = {}
    for fn in WATCHED:
        _count_calls(monkeypatch, dia_mod, fn, calls)
    _count_calls(monkeypatch, graphs, "_bellman_ford", calls)
    res = diameter(g, cfg)
    assert want == math.inf
    assert (res.value, sorted(res.witnesses)) == (want, wit)
    closure_first = cfg.force_beta == 0.0 and g.n == 32
    second = "transitive_closure" if closure_first else "prepare_general"
    assert calls == {"_bellman_ford": 1, second: 1}
    assert (res.probes, res.lo, res.hi) == ([], 0, 0)


@pytest.mark.parametrize("n", [32, 64])
def test_capped_two_scc_diameter_is_inf_without_the_closure(monkeypatch, n):
    # the capped run's delta_star settles reachability: its INF pairs
    # are the witnesses
    calls = {}
    for fn in WATCHED:
        _count_calls(monkeypatch, dia_mod, fn, calls)
    hitting = _record_hitting(monkeypatch)
    for seed in range(3):
        g = two_scc_graph(n, 4.0 / n, 4, seed=seed + n)
        want, wit = _oracle_diameter(g)
        calls.clear()
        res = diameter(g, RunConfig(seed=seed))
        assert want == math.inf
        assert (res.value, res.witnesses) == (want, wit)
        assert (res.probes, res.lo, res.hi) == ([], 0, 0)
        assert calls == {"prepare_general": 1}
    assert hitting == [n] * 3


def test_sampled_general_run_still_searches_and_certifies(monkeypatch):
    calls = {}
    for name in WATCHED:
        _count_calls(monkeypatch, dia_mod, name, calls)
    _count_calls(monkeypatch, graphs, "_bellman_ford", calls)
    hitting = _record_hitting(monkeypatch)
    for seed in range(3):
        g = sampled_graph(seed + 120)
        want, wit = _oracle_diameter(g)
        calls.clear()
        res = diameter(g, SAMPLED.with_(seed=seed))
        assert (res.value, sorted(res.witnesses)) == (want, wit)
        assert calls["classify_threshold"] == len(res.probes) >= 2
        assert {k: v for k, v in calls.items() if k != "classify_threshold"} == {
            "prepare_general": 1, "_bellman_ford": 1, "transitive_closure": 1,
            "_search": 1, "_exact_witnesses": 1}
    assert len(hitting) == 3 and max(hitting) < 32


def test_certificate_exact_with_sampled_hitting_set():
    # a large t samples only a few hitting vertices; pairs touching none
    # of them are settled by Dijkstra
    for seed in range(5):
        g = sc_mixed_graph(12, 0.3, 3, seed=seed + 100)
        dist = floyd_warshall(to_matrix(g))
        h = johnson_potentials(g)
        run = prepare_general(g, RunConfig(), Rng(seed), h)
        run.far = compute_delta_t(g, 10 * g.n, Rng(seed + 1), h)
        assert 0 < run.far.hitting.size < g.n
        everything = np.ones((g.n, g.n), dtype=bool)
        for d in np.unique(dist):
            got = dia_mod._exact_witnesses(g, run, everything, int(d))
            assert np.array_equal(got, dist == d), (seed, d)


def test_certificate_runs_dijkstra_for_unsampled_sources(monkeypatch):
    # an empty hitting set takes the sampled route and leaves every
    # candidate to a Dijkstra from its source
    for module in (tg_mod, fp_mod):
        monkeypatch.setattr(module, "hitting_count", lambda n, t: 0)
    calls = {}
    _count_calls(monkeypatch, dia_mod, "prepare_general", calls)
    _count_calls(monkeypatch, dia_mod, "sssp_rows", calls)
    for seed in range(4):
        g = sc_mixed_graph(12, 0.3, 3, seed=seed + 110)
        want, wit = _oracle_diameter(g)
        res = diameter(g, RunConfig(seed=seed))
        assert (res.value, sorted(res.witnesses)) == (want, wit)
    assert calls["sssp_rows"] == calls["prepare_general"] >= 4


def test_primal_family_built_once_per_positive_diameter(monkeypatch):
    calls = {}
    _count_calls(monkeypatch, dia_mod, "primal_distances", calls)
    _count_calls(monkeypatch, pos_mod, "primal_distances", calls)
    for seed in range(4):
        g = sc_positive_graph(12, 0.35, 4, seed=seed)
        want, wit = _oracle_diameter(g)
        calls.clear()
        res = diameter(g)
        assert (res.value, sorted(res.witnesses)) == (want, wit)
        assert calls == {"primal_distances": 1}
        assert len(res.probes) >= 2


def test_positive_probes_within_the_primal_cap_run_no_level_step(monkeypatch):
    # the diameters are 139, 83 and 9 against a primal cap of 85 at n = 12
    calls = {}
    _count_calls(monkeypatch, pos_mod, "level_step", calls)
    steps = {}
    real = dia_mod.threshold_apsp_pos

    def probe(g, d, **kw):
        before = calls.get("level_step", 0)
        rep = real(g, d, **kw)
        steps[d] = calls.get("level_step", 0) - before
        return rep

    monkeypatch.setattr(dia_mod, "threshold_apsp_pos", probe)
    seen = set()
    for density, m_bound in ((0.05, 24), (0.05, 16), (0.35, 4)):
        g = sc_positive_graph(12, density, m_bound, seed=1)
        cap = pos_mod.primal_cap(g)
        dist = floyd_warshall(to_matrix(g))
        want, wit = _oracle_diameter(g)
        steps.clear()
        res = diameter(g)
        assert (res.value, sorted(res.witnesses)) == (want, wit)
        assert [d for d, _ in res.probes] == list(steps)
        for d, ok in res.probes:
            assert ok == bool((dist <= d).all()) == (d >= res.value), (m_bound, d)
            assert (steps[d] == 0) == (d <= cap), (m_bound, d, steps[d])
            seen.add(d <= cap)
    assert seen == {True, False}


def test_mode_checked_before_reachability():
    g = make_graph(3, [(1, 2, -1), (2, 1, 2)])
    assert diameter(g).value == math.inf
    with pytest.raises(ValueError):
        diameter(g, config=RunConfig(mode="positive"))


def _corrupt_first_witness(res, call):
    # (1, 1) is at distance 0: reachable, and below every diameter here
    res.witnesses[0] = (1, 1)
    return res


@pytest.mark.parametrize("g", [sc_positive_graph(8, 0.3, 3, seed=4),
                               sc_mixed_graph(8, 0.3, 3, seed=4),
                               make_graph(3, [(1, 2, 1), (2, 3, -1)])],
                         ids=["positive", "general", "inf"])
def test_verify_checks_every_witness(monkeypatch, g):
    calls = {}
    _count_calls(monkeypatch, dia_mod, "_solve", calls, _corrupt_first_witness)
    assert diameter(g).witnesses[0] == (1, 1)
    with pytest.raises(VerifyMismatchError, match="witness set"):
        diameter(g, RunConfig(verify=True))


@pytest.mark.parametrize("g", [sc_positive_graph(8, 0.3, 3, seed=5),
                               sc_mixed_graph(8, 0.3, 3, seed=5)],
                         ids=["positive", "general"])
def test_verify_checks_the_value(monkeypatch, g):
    oracle = dia_mod.floyd_warshall
    monkeypatch.setattr(dia_mod, "floyd_warshall", lambda w: oracle(w) + 1)
    diameter(g)
    with pytest.raises(VerifyMismatchError, match="oracle says"):
        diameter(g, RunConfig(verify=True))


def test_threshold_verifies_the_positive_path(monkeypatch):
    g = sc_positive_graph(8, 0.3, 3, seed=6)
    cfg = RunConfig(verify=True)
    assert threshold(g, 5, cfg).count == threshold(g, 5).count > 0
    monkeypatch.setattr(tg_mod, "brute_threshold",
                        lambda dist, d: np.zeros(dist.shape, dtype=bool))
    threshold(g, 5)
    with pytest.raises(VerifyMismatchError):
        threshold(g, 5, cfg)


def test_no_oracle_above_the_verify_bound(monkeypatch):
    g = sc_positive_graph(8, 0.3, 3, seed=7)
    mixed = sc_mixed_graph(8, 0.3, 3, seed=7)
    calls = {}
    # threshold() reaches the oracle through threshold_general.oracle_report
    for module in (dia_mod, tg_mod):
        _count_calls(monkeypatch, module, "floyd_warshall", calls)
    for bound, want in ((7, 0), (8, 1)):
        cfg = RunConfig(verify=True, verify_bound=bound)
        for run in (lambda: threshold(g, 5, cfg), lambda: diameter(g, cfg),
                    lambda: diameter(mixed, cfg)):
            calls.clear()
            run()
            assert calls.get("floyd_warshall", 0) == want, bound


@pytest.mark.parametrize("g,mode", [(sc_positive_graph(8, 0.3, 3, seed=9), "positive"),
                                    (sampled_graph(9), "general")])
def test_failed_certificates_name_the_path(monkeypatch, g, mode):
    monkeypatch.setattr(dia_mod, "_search", lambda *args: None)
    hitting = _record_hitting(monkeypatch)
    cfg = SAMPLED if mode == "general" else RunConfig()
    searches = 1 if mode == "positive" else MAX_ATTEMPTS
    with pytest.raises(RuntimeError,
                       match=rf"after {searches} search\(es\) on the {mode} path"):
        diameter(g, cfg)
    assert len(hitting) == (searches if mode == "general" else 0)
    assert all(size < g.n for size in hitting)


@pytest.mark.parametrize("mode", ["positive", "general"])
def test_threshold_runs_the_path_the_mode_picks(mode):
    g = sc_positive_graph(10, 0.3, 3, seed=8)
    cfg = RunConfig(mode=mode, seed=3, verify=True)
    dist = floyd_warshall(to_matrix(g))
    for d in (0, 4, 9, 31):
        rep = threshold(g, d, cfg)
        assert np.array_equal(rep.reported, (dist <= d) & is_finite(dist)), d
        assert ("attempts" in rep.stats) == (mode == "general")


def test_threshold_takes_any_integer_d_and_rejects_the_rest():
    # the paper's threshold is an integer: numpy integers convert once, as
    # a Python int would, on both paths; a float (whole or not), a bool
    # and a string raise ValueError on every entry point
    g = make_graph(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1)])
    want = floyd_warshall(to_matrix(g)) <= 3
    for d in (np.int64(3), np.int32(3), 3):
        for mode in ("positive", "general"):
            rep = threshold(g, d, RunConfig(mode=mode))
            assert np.array_equal(rep.reported, want), (d, mode)
            assert type(rep.d) is int
        assert np.array_equal(pos_mod.threshold_apsp_pos(g, d).reported, want)
        assert np.array_equal(threshold_apsp_neg(g, d).reported, want)
    for d in (3.0, 2.5, True, "3"):
        for call in (lambda: threshold(g, d, RunConfig(mode="positive")),
                     lambda: threshold(g, d, RunConfig(mode="general")),
                     lambda: pos_mod.threshold_apsp_pos(g, d),
                     lambda: threshold_apsp_neg(g, d)):
            with pytest.raises(ValueError, match="must be an integer"):
                call()
