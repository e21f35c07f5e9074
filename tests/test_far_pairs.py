import math

import numpy as np
import pytest

from helpers import (at_float_budgets, cycle_weights_about_the_window,
                     mixed_graph, sc_mixed_graph, two_scc_graph,
                     unreachable_corner_graph)
from tapsp import far_pairs, matrices
from tapsp.far_pairs import compute_delta_t, hitting_set, sssp_rows
from tapsp.graphs import gen_mixed_ncf, johnson_potentials, make_graph, to_matrix
from tapsp.matrices import COUNTERS, INF, is_finite
from tapsp.oracle import floyd_warshall, min_edge_counts
from tapsp.sampling import Rng


def test_hitting_set_size_formula():
    rng = Rng(1)
    n, t = 50, 3
    want = min(n, math.ceil(8 * n * math.log(n) / t))
    assert hitting_set(n, t, rng).size == want


def test_hitting_set_caps_at_n():
    assert hitting_set(20, 1, Rng(0)).size == 20
    # a single vertex has no paths with >= t edges, so the empty set hits them all
    assert hitting_set(1, 5, Rng(0)).size == 0


def test_hitting_set_rejects_bad_t():
    with pytest.raises(ValueError):
        hitting_set(10, 0, Rng(0))


def test_sssp_forward_matches_oracle():
    for seed in range(15):
        g = mixed_graph(13, 0.35, 4, seed)
        h = johnson_potentials(g)
        dist = floyd_warshall(to_matrix(g))
        for src, got in enumerate(sssp_rows(g, h, range(g.n))):
            assert np.array_equal(got, dist[src, :]), (seed, src)


def test_sssp_reverse_matches_oracle():
    for seed in range(15):
        g = mixed_graph(13, 0.35, 4, seed)
        h = johnson_potentials(g)
        dist = floyd_warshall(to_matrix(g))
        for src, got in enumerate(sssp_rows(g, h, range(g.n), reverse=True)):
            assert np.array_equal(got, dist[:, src]), (seed, src)


def test_sssp_rejects_potentials_that_leave_a_negative_arc():
    # zero potentials keep the arc 2 -> 3 at weight -1
    g = make_graph(3, [(1, 2, 2), (2, 3, -1)])
    for reverse in (False, True):
        with pytest.raises(ValueError, match="nonnegatively"):
            sssp_rows(g, np.zeros(3, dtype=np.int64), [0], reverse=reverse)
    assert sssp_rows(g, johnson_potentials(g), [0])[0].tolist() == [0, 2, 1]


@pytest.mark.parametrize("t", [1, 100], ids=["capped", "sampled"])
def test_delta_t_rejects_potentials_that_leave_a_negative_arc(t):
    # h[1] = -5 takes the arc 2 -> 3 to 1 - 5 = -4; t = 100 samples one
    # vertex of four, t = 1 all of them
    g = make_graph(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1)])
    with pytest.raises(ValueError, match="nonnegatively"):
        compute_delta_t(g, t, Rng(0), np.array([0, -5, 0, 0], dtype=np.int64))


def _count_closures(monkeypatch) -> list:
    """The caps of the minplus_closure calls compute_delta_t makes, counted
    through the name it calls."""
    closures = []
    real = far_pairs.minplus_closure

    def closure(w, cap):
        closures.append(cap)
        return real(w, cap)

    monkeypatch.setattr(far_pairs, "minplus_closure", closure)
    return closures


def test_delta_t_dominates_and_caps_exactly(monkeypatch):
    # with the sample capped to every vertex delta_t is plain exact: on
    # mixed graphs with and without a backbone, on two-SCC graphs, whose
    # unreachable pairs have no source or sink behind them, and with
    # weights large enough that reweighted distances pass the float
    # window, so the closure runs. Unreachable pairs must stay INF
    closures = _count_closures(monkeypatch)
    cases = [(mixed_graph(10, density, 3, seed), False)
             for seed in range(10) for density in (0.4, 0.15)]
    cases += [(gen_mixed_ncf(n, 3 / n, 4, seed, backbone=backbone), False)
              for seed, n in enumerate((5, 16, 33, 64)) for backbone in (True, False)]
    cases += [(two_scc_graph(n, 3 / n, 4, seed), False)
              for seed, n in enumerate((6, 17, 32, 64))]
    cases += [(gen_mixed_ncf(n, 2 / n, 1000, seed, backbone=True), True)
              for seed, n in enumerate((8, 24, 40))]
    unreachable = 0
    for i, (g, past_window) in enumerate(cases):
        dist = floyd_warshall(to_matrix(g))
        before = len(closures)
        far = compute_delta_t(g, 1, Rng(i), johnson_potentials(g))
        assert far.hitting.size == g.n
        assert np.array_equal(far.delta, dist), i
        if past_window:
            assert len(closures) == before + 1, i
        unreachable += int((~is_finite(dist)).sum())
    assert unreachable > 0


def test_capped_delta_t_past_the_window_runs_the_closure(monkeypatch):
    # a 16-cycle of arcs of weight c: distances reach 15 c, against the
    # window W (85 at n = 16 under the documented budget) and the cap
    # 2 (n - 1) c. At the lighter weight every distance is within W and
    # the squares alone answer; at the heavier one the farthest pairs pass
    # W and the closure runs once, at the cap. The squares run either way:
    # all ceil(log2 15) = 4 of them
    n = 16
    closures = _count_closures(monkeypatch)
    for budget in at_float_budgets(monkeypatch):
        big_w = matrices.widest_float_window(n)
        if budget == 1020:
            assert big_w == 85
        within, past = cycle_weights_about_the_window(n)
        assert (n - 1) * within <= big_w < (n - 1) * past
        for c, want in ((within, []), (past, [2 * (n - 1) * past])):
            g = make_graph(n, [(i, i % n + 1, c) for i in range(1, n + 1)], M=c)
            closures.clear()
            COUNTERS.reset()
            far = compute_delta_t(g, 1, Rng(0), johnson_potentials(g))
            assert far.hitting.size == n
            assert np.array_equal(far.delta, floyd_warshall(to_matrix(g))), (budget, c)
            assert closures == want, (budget, c)
            # each square and the closure add n**3 relaxations
            assert COUNTERS.minplus_relaxations // n ** 3 - len(want) == 4, (budget, c)


def test_capped_delta_t_with_unreachable_pairs_runs_the_closure(monkeypatch):
    # an INF row and column: at the general path's cap 2 (n - 1) M, past
    # the window (72 at n = 17), the squares leave INF entries and the
    # closure runs once; the INF entries left are exactly the unreachable
    # pairs
    closures = _count_closures(monkeypatch)
    for n, seed in ((17, 1), (32, 2)):
        g = unreachable_corner_graph(n, seed)
        cap = 2 * (n - 1) * g.M
        assert cap > matrices.widest_float_window(n)
        closures.clear()
        far = compute_delta_t(g, 1, Rng(seed), johnson_potentials(g))
        assert np.array_equal(far.delta, floyd_warshall(to_matrix(g))), n
        assert not is_finite(far.delta[-1, :-1]).any()
        assert closures == [cap]


def test_capped_delta_t_has_an_exact_zero_diagonal(monkeypatch):
    # prepare_general pins no diagonal on a capped run, so far.delta must
    # hold 0 there itself: on the window route (strongly connected, and
    # two-SCC at a cap within the window, 2 (n - 1) M = 14 at n = 8), and
    # on the closure route (a path whose cap 90 passes W = 85 at n = 16,
    # and two-SCC graphs past the window), with and without unreachable
    # pairs
    closures = _count_closures(monkeypatch)
    path = make_graph(16, [(i, i + 1, 2 if i % 2 else -1) for i in range(1, 16)],
                      M=3)
    cases = [(sc_mixed_graph(n, 3 / n, 4, seed), 0)
             for seed, n in enumerate((5, 16, 32, 64))]
    cases += [(two_scc_graph(8, 0.4, 1, seed), 0) for seed in range(3)]
    cases += [(path, 1), (two_scc_graph(32, 3 / 32, 4, 1), 1)]
    cases += [(make_graph(16, [(i, i % 16 + 1, 7) for i in range(1, 17)]), 1)]
    unreachable = 0
    for i, (g, want) in enumerate(cases):
        closures.clear()
        far = compute_delta_t(g, 1, Rng(i), johnson_potentials(g))
        assert far.hitting.size == g.n
        assert len(closures) == want, i
        assert (np.diag(far.delta) == 0).all(), i
        assert np.array_equal(far.delta, floyd_warshall(to_matrix(g))), i
        unreachable += int((~is_finite(far.delta)).sum())
    assert unreachable > 0


def test_delta_t_exact_on_long_pairs():
    # for pairs with many-edge shortest paths the sampled combine must
    # already be exact (the sample hits each such path w.h.p.; at this
    # size the bound caps to the full set, making it certain)
    for seed in range(8):
        g = sc_mixed_graph(14, 0.3, 3, seed)
        w = to_matrix(g)
        dist = floyd_warshall(w)
        counts = min_edge_counts(w, dist)
        t = 4
        far = compute_delta_t(g, t, Rng(seed + 7), johnson_potentials(g))
        long_pairs = counts >= t
        assert np.array_equal(far.delta[long_pairs], dist[long_pairs])
        fin = is_finite(far.delta)
        assert (far.delta[fin] >= dist[fin]).all()


def test_delta_t_single_vertex():
    g = make_graph(1, [])
    far = compute_delta_t(g, 1, Rng(0), johnson_potentials(g))
    assert far.delta.shape == (1, 1) and far.delta[0, 0] == 0


def test_delta_t_never_below_distance():
    for seed in range(10):
        g = mixed_graph(12, 0.3, 4, seed + 40)
        dist = floyd_warshall(to_matrix(g))
        far = compute_delta_t(g, 5, Rng(seed), johnson_potentials(g))
        fin = is_finite(far.delta)
        assert (dist[fin] <= far.delta[fin]).all()


def test_delta_t_sampled_combine_matches_distances_through_the_sample():
    # t past 8 ln n keeps the hitting set X below n, so the combine runs as
    # one product; it must equal min over x in X of dist(u, x) + dist(x, v),
    # INF where no x gives a finite sum (the sparse graphs have such pairs)
    unreachable = 0
    for seed, n in enumerate((32, 40, 48, 64)):
        for backbone in (True, False):
            g = gen_mixed_ncf(n, 3 / n, 4, seed, backbone=backbone)
            dist = floyd_warshall(to_matrix(g))
            far = compute_delta_t(g, 60, Rng(seed), johnson_potentials(g))
            xs = far.hitting
            assert 0 < xs.size < n
            left, right = dist[:, xs, None], dist[None, xs, :]
            fin = is_finite(left) & is_finite(right)
            want = np.where(fin, left + right, INF).min(axis=1)
            assert np.array_equal(far.delta, want), (n, backbone)
            unreachable += int((~is_finite(want)).sum())
    assert unreachable > 0
