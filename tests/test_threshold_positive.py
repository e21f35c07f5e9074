import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (at_float_budgets, f_set_based, lower_strassen_cutoff,
                     sc_positive_graph)
from tapsp import matrices, threshold_positive
from tapsp.config import KERNELS
from tapsp.graphs import gen_random, make_graph, to_matrix
from tapsp.matrices import INF, dist_product_naive
from tapsp.oracle import brute_threshold, floyd_warshall
from tapsp.threshold_positive import (f_set, level_plan, level_step,
                                      primal_distances, threshold_apsp_pos)


def _oracle(g, d):
    return brute_threshold(floyd_warshall(to_matrix(g)), d)


def test_f_set_worked_example():
    want = set(range(17)) | set(range(22, 29)) | set(range(48, 53)) | {100}
    assert f_set(100, 4) == want


def test_level_plan_worked_example():
    assert level_plan(100, 4) == ((100, 100), (48, 52), (22, 28), (9, 16),
                                  (2, 10), (1, 7), (1, 6), (1, 5))


def test_f_set_small_closure():
    # k <= M+1 is the primal regime: the whole prefix
    assert f_set(3, 4) == {0, 1, 2, 3}
    assert f_set(0, 1) == {0}


def test_f_set_contains_plan_levels():
    for (d, m) in ((100, 4), (37, 2), (513, 8), (19, 1)):
        fs = f_set(d, m)
        for (lo, hi) in level_plan(d, m):
            for i in range(max(lo, m + 2), hi + 1):
                assert i in fs, (d, m, i)


def test_level_plan_interval_width_bound():
    for m in (1, 2, 4, 8):
        for d in (m + 2, 17, 100, 999, 10 ** 4):
            levels = level_plan(d, m)
            for (lo, hi) in levels[1:]:
                assert hi - lo <= 2 * m + 3
            assert levels[-1][1] <= m + 1


def test_level_plan_at_every_base_in_the_float_window():
    # based anywhere from M + 1 to the widest float window W, the plan's
    # intervals lie in F(d) with that base, are at most 2M + 3 wide, span
    # exactly the expansion intervals of the targets (indices > base) of
    # the level above, and stop at the first top <= base. Their tops are
    # those of the plan based at M + 1, cut there: the base moves only the
    # bottoms
    for n in (8, 64, 1024):
        for m in (1, 2, 4, 8):
            for base in range(m + 1, matrices.widest_float_window(n) + 1):
                for d in {0, base, base + 1, base + m + 2, 2 * base + 1, 3 * base + m,
                          100, 513}:
                    fs = f_set_based(d, m, base)
                    if base == m + 1:
                        assert fs == f_set(d, m), (d, m)
                    levels = level_plan(d, m, base)
                    tops = [hi for _, hi in levels]
                    assert min(tops[:-1], default=base + 1) > base >= tops[-1]
                    assert tops == [hi for _, hi in level_plan(d, m)][:len(tops)]
                    for lo, hi in levels:
                        assert hi - lo <= 2 * m + 3, (n, m, base, d)
                        assert set(range(lo, hi + 1)) <= fs, (n, m, base, d)
                    for (lo, hi), below in zip(levels, levels[1:]):
                        targets = range(max(lo, base + 1), hi + 1)
                        assert below == (min((k - m) // 2 for k in targets),
                                         max(-((-(k + m)) // 2) for k in targets))
    with pytest.raises(ValueError):
        level_plan(10, 4, 4)


def test_level_plan_targets_lie_in_convolution_range():
    # every non-primal index of a level is a sum of two indices of the next
    for m in (1, 2, 4, 8):
        for d in range(m + 2, 10 ** 4 + 1):
            levels = level_plan(d, m)
            for (lo, hi), (src_lo, src_hi) in zip(levels, levels[1:]):
                assert 2 * src_lo <= max(lo, m + 2) <= hi <= 2 * src_hi, (d, m)


def test_primal_distances_unit_path():
    g = make_graph(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    primal = primal_distances(g)
    assert np.array_equal(primal <= 0, np.eye(4, dtype=bool))
    assert (primal <= 1)[0, 1] and not (primal <= 1)[0, 2]
    assert (primal <= 2)[0, 2] and not (primal <= 2)[0, 3]


def test_primal_distances_rejects_nonpositive_weight():
    g = make_graph(2, [(1, 2, 0)])
    with pytest.raises(ValueError):
        primal_distances(g)


def test_threshold_rejects_weights_below_one_at_every_d():
    # before the negative-d and reachability shortcuts too (n M = 6)
    g = make_graph(3, [(1, 2, -2), (2, 3, 1)])
    for d in (-1, 3, g.n * g.M + 1):
        with pytest.raises(ValueError, match="non-positive weight -2"):
            threshold_apsp_pos(g, d)


def test_primal_matches_oracle_threshold():
    for seed in range(6):
        g = sc_positive_graph(12, 0.3, 5, seed)
        primal = primal_distances(g)
        for k in range(0, g.M + 2):
            assert np.array_equal(primal <= k, _oracle(g, k)), (seed, k)


def _digit_bits(n):
    return (4 * n - 1).bit_length()


def _cut_corner(g):
    """g without the out-arcs of vertex n and the in-arcs of vertex 1, so
    its distance matrix has an INF row and column."""
    arcs = [(u, v, w) for (u, v, w) in g.edges if u != g.n and v != 1]
    return make_graph(g.n, arcs, M=g.M)


def test_primal_route_rule_at_the_float_budget(monkeypatch):
    # the default cap is max(M + 1, W), W = FLOAT_EXP_BUDGET // (2 s) the
    # widest float window at n: while M + 1 <= W the primal is window
    # squares at W, one more unit of M takes the closure at M + 1. Either
    # way it is the oracle's distances capped at that cap. Under the
    # documented budget, at n = 64 (s = 8) W = 63, at n = 65 and 128
    # (s = 9) W = 56. A unit path whose last vertex lies at the cap needs
    # every one of the ceil(log2(min(cap, n - 1))) squares.
    closures = []
    real = threshold_positive.minplus_closure

    def counted(w, cap):
        closures.append(cap)
        return real(w, cap)

    monkeypatch.setattr(threshold_positive, "minplus_closure", counted)
    for budget in at_float_budgets(monkeypatch):
        for n in (1, 2, 3, 17, 64, 65, 128):
            s = _digit_bits(n)
            widest = budget // (2 * s)
            assert matrices.widest_float_window(n) == widest
            assert matrices.float_window_admits(n, widest)
            assert not matrices.float_window_admits(n, widest + 1)
            for m_bound in (1, 8, widest - 1, widest, widest + 1):
                graphs = [gen_random(n, min(1.0, 3 / n), 1, m_bound, seed=seed)
                          for seed in range(2)]
                graphs += [_cut_corner(g) for g in graphs]
                graphs.append(make_graph(n, [(i, i + 1, 1) for i in range(1, n)],
                                         M=m_bound))
                for g in graphs:
                    float_route = g.M + 1 <= widest
                    cap = max(g.M + 1, widest)
                    assert threshold_positive.primal_cap(g) == cap
                    before = len(closures)
                    got = primal_distances(g)
                    assert closures[before:] == ([] if float_route else [g.M + 1]), (
                        budget, n, g.M)
                    dist = floyd_warshall(to_matrix(g))
                    want = np.where(dist <= cap, dist, INF)
                    assert got.dtype == np.int64
                    assert np.array_equal(got, want), (budget, n, g.M)
        if budget == 1020:
            assert matrices.widest_float_window(64) == 63
            assert matrices.widest_float_window(65) == 56
            assert matrices.widest_float_window(32) == 72
            assert matrices.widest_float_window(1024) == 42


def test_primal_at_an_explicit_cap_matches_the_oracle():
    # threshold_apsp_pos builds its own primal at max(M + 1, min(d, W))
    for seed in range(3):
        g = gen_random(40, 0.08, 1, 6, seed=seed)
        dist = floyd_warshall(to_matrix(g))
        for cap in (g.M + 1, 12, 30, threshold_positive.primal_cap(g)):
            got = primal_distances(g, cap)
            assert np.array_equal(got, np.where(dist <= cap, dist, INF)), (seed, cap)


def _old_level_step(dist, t_lo, t_hi):
    first = np.where(dist <= t_hi, np.maximum(dist, t_lo) - t_lo, INF)
    sq = dist_product_naive(first, first)
    return np.where(sq < INF, sq + 2 * t_lo, INF)


@given(st.integers(min_value=1, max_value=14),
       st.integers(min_value=1, max_value=40),
       st.floats(min_value=0.05, max_value=0.6),
       st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=2),
       st.booleans(),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=60, deadline=None)
def test_window_square_matches_the_first_index_square_property(
        n, m_bound, p, t_lo, cap_pick, past_edge, seed):
    # nested D: capped distances of a positive graph with an INF row and
    # column; the window width sits at the float route's edge or one past
    g = _cut_corner(gen_random(n, p, 1, m_bound, seed=seed))
    dist = floyd_warshall(to_matrix(g))
    cap = (m_bound + 1, 3 * m_bound, int(INF))[cap_pick]
    dist = np.where(dist <= cap, dist, INF)
    width = matrices.widest_float_window(n) + int(past_edge)
    t_hi = t_lo + width
    assert matrices.float_window_admits(n, width) == (not past_edge)
    products = []
    real = matrices.dist_product_fast

    def counted(*args, **kw):
        products.append(kw.get("kernel"))
        return real(*args, **kw)

    want = _old_level_step(dist, t_lo, t_hi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrices, "dist_product_fast", counted)
        got = level_step(dist, (t_lo, t_hi))
        assert products == (["numpy"] if past_edge else [])
        school = level_step(dist, (t_lo, t_hi), kernel="schoolbook")
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(school, want)


def test_level_step_equals_split_union():
    # one squaring step must agree with the explicit union over splits
    for seed in range(4):
        g = sc_positive_graph(10, 0.3, 3, seed + 2)
        dist = floyd_warshall(to_matrix(g))
        source = (2, 8)
        family = {i: brute_threshold(dist, i) for i in range(source[0], source[1] + 1)}
        got = level_step(dist, source)
        for k in range(9, 15):
            a_k = got <= k
            want = np.zeros_like(a_k)
            for i in range(source[0], source[1] + 1):
                j = k - i
                if source[0] <= j <= source[1]:
                    want = want | (family[i] @ family[j])
            assert np.array_equal(a_k, want), (seed, k)


def test_matches_oracle_various_thresholds():
    for seed in range(5):
        g = gen_random(13, 0.35, 1, 6, seed=seed)
        for d in (-1, 0, 1, 5, 7, 20, 79):
            rep = threshold_apsp_pos(g, d)
            assert np.array_equal(rep.reported, _oracle(g, d)), (seed, d)


def test_negative_threshold_is_empty():
    g = gen_random(6, 0.5, 1, 3, seed=1)
    rep = threshold_apsp_pos(g, -2)
    assert not rep.reported.any()
    assert rep.stats["edge_case"] == "negative_d"


def test_zero_threshold_is_diagonal():
    g = gen_random(9, 0.4, 1, 4, seed=3)
    rep = threshold_apsp_pos(g, 0)
    assert np.array_equal(rep.reported, np.eye(9, dtype=bool))


def test_kernel_independent(monkeypatch):
    # the primal cap at n = 11 is 85; d = 87 and 200 run levels (the
    # diameter is 88, n M = 264)
    strassen = lower_strassen_cutoff(monkeypatch, 4)
    g = sc_positive_graph(11, 0.05, 24, seed=6)
    for d in (4, 15, 33, 87, 200):
        a = threshold_apsp_pos(g, d, kernel="schoolbook")
        b = threshold_apsp_pos(g, d, kernel="strassen")
        assert np.array_equal(a.reported, b.reported)
    # the module constant reaches the ring products of the pipeline
    assert strassen["calls"] > 0


def test_all_kernels_give_identical_reports(monkeypatch):
    # the primal cap at n = 13 is 85; d = 90 and 110 run levels (the
    # diameters are 115, 97 and 86, n M = 260)
    strassen = lower_strassen_cutoff(monkeypatch, 4)
    for seed in range(3):
        g = sc_positive_graph(13, 0.05, 20, seed=seed + 20)
        for d in (3, 9, 26, 60, 90, 110):
            want = _oracle(g, d)
            for kernel in KERNELS:
                rep = threshold_apsp_pos(g, d, kernel=kernel)
                assert np.array_equal(rep.reported, want), (seed, d, kernel)
    assert strassen["calls"] > 0


@pytest.mark.parametrize("n, m_bound, seed", [(12, 10, 1), (20, 5, 2),
                                               (33, 3, 3), (12, 90, 4)])
def test_reports_around_the_primal_cap_on_every_kernel(n, m_bound, seed):
    # n M > cap, so d = cap + 1 runs levels: the plan's next interval tops
    # out at (cap + M + 2) // 2 <= cap, so the plan is one level step. At
    # n = 12 and M = 90 the float window (85) is below M + 1 and the cap
    # is M + 1 = 91
    g = gen_random(n, 3 / n, 1, m_bound, seed=seed)
    cap = threshold_positive.primal_cap(g)
    assert cap == max(m_bound + 1, matrices.widest_float_window(n)) < n * m_bound
    dist = floyd_warshall(to_matrix(g))
    for d in (m_bound + 1, cap, cap + 1, n * m_bound):
        for kernel in KERNELS:
            rep = threshold_apsp_pos(g, d, kernel=kernel)
            assert np.array_equal(rep.reported, dist <= d), (d, kernel)
            if d <= cap:
                assert rep.stats["levels"] == 0, (d, kernel)
            elif d == cap + 1:
                assert rep.stats["levels"] == 2, kernel


def test_shared_primal_family_gives_identical_reports():
    for seed in range(3):
        g = sc_positive_graph(12, 0.3, 4, seed=seed + 40)
        primal = primal_distances(g)
        before = primal.copy()
        for d in (-1, 0, 2, 5, 6, 17, 44):
            shared = threshold_apsp_pos(g, d, primal=primal)
            fresh = threshold_apsp_pos(g, d)
            assert np.array_equal(shared.reported, fresh.reported), (seed, d)
            assert shared.stats == fresh.stats
        # the primal matrix is only read
        assert np.array_equal(primal, before)


def test_level_walk_bounds_distances():
    # every intermediate matrix bounds the distances from above and is
    # exact at distances <= M + 1 and inside its level's interval, with
    # the plan based at M + 1 or at the primal cap
    for seed in range(6):
        g = sc_positive_graph(14, 0.2, 2 + seed % 4, seed=seed + 60)
        dist = floyd_warshall(to_matrix(g))
        primal = primal_distances(g)
        for d, base in itertools.product((g.M + 2, 17, 40, 3 * g.n * g.M),
                                         (g.M + 1, threshold_positive.primal_cap(g))):
            levels = level_plan(d, g.M, base)
            cur = primal
            for j in range(len(levels) - 2, -1, -1):
                cur = np.minimum(primal, level_step(cur, levels[j + 1]))
                lo, hi = levels[j]
                exact = (dist <= g.M + 1) | ((dist >= lo) & (dist <= hi))
                assert (cur >= dist).all(), (seed, d, j)
                assert np.array_equal(cur[exact], dist[exact]), (seed, d, j)
