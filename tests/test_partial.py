import math

import numpy as np
import pytest

from helpers import mixed_graph, sc_mixed_graph
from tapsp.graphs import make_graph, to_matrix
from tapsp.matrices import INF, is_finite
from tapsp.oracle import floyd_warshall, min_edge_counts
from tapsp.partial_distances import (build_partial, check_rpdm_property1,
                                     check_rpdm_property2)
from tapsp.sampling import Rng


def test_build_partial_validation():
    w = to_matrix(make_graph(2, [(1, 2, 1)]))
    with pytest.raises(ValueError):
        build_partial(w, 1, -0.1, 0.0, Rng(0))
    with pytest.raises(ValueError):
        build_partial(w, 1, 0.7, 0.7, Rng(0))
    with pytest.raises(ValueError):
        build_partial(w, 0, 0.0, 0.0, Rng(0))


def test_full_bridge_recovers_all_distances():
    # with beta = gamma = 0 at this size every sample caps to the full
    # vertex set, so the loop is plain repeated squaring
    for seed in range(8):
        g = mixed_graph(10, 0.4, 3, seed)
        w = to_matrix(g)
        dist = floyd_warshall(w)
        pdm = build_partial(w, g.M, 0.0, 0.0, Rng(seed))
        assert np.array_equal(pdm.P, dist)
        assert pdm.bridge.size == g.n


def test_partial_dominates_distances():
    for seed in range(6):
        for (beta, gamma) in ((0.3, 0.2), (0.5, 0.0), (0.2, 0.5)):
            g = mixed_graph(12, 0.35, 3, seed)
            w = to_matrix(g)
            dist = floyd_warshall(w)
            pdm = build_partial(w, g.M, beta, gamma, Rng(seed))
            fin = is_finite(pdm.P)
            assert (pdm.P[fin] >= dist[fin]).all()


def test_properties_hold_on_capped_runs():
    for seed in range(6):
        for (beta, gamma) in ((0.0, 0.0), (0.3, 0.2), (0.5, 0.3)):
            g = sc_mixed_graph(12, 0.3, 3, seed)
            w = to_matrix(g)
            dist = floyd_warshall(w)
            counts = min_edge_counts(w, dist)
            pdm = build_partial(w, g.M, beta, gamma, Rng(seed + 1))
            assert check_rpdm_property1(pdm, dist, counts) == []
            assert check_rpdm_property2(pdm, dist, counts, w) == []


def test_property1_checker_catches_corruption():
    g = sc_mixed_graph(10, 0.3, 2, seed=4)
    w = to_matrix(g)
    dist = floyd_warshall(w)
    counts = min_edge_counts(w, dist)
    pdm = build_partial(w, g.M, 0.0, 0.0, Rng(2))
    pdm.P = np.where(np.eye(g.n, dtype=bool), pdm.P, INF)
    assert check_rpdm_property1(pdm, dist, counts) != []


def test_property2_checker_window_sensitivity():
    # a pure path: knocking out two adjacent interior midpoints leaves a
    # 2-position stretch without qualifying vertices, which window=1
    # rejects and window=2 tolerates
    k = 7
    g = make_graph(k, [(i, i + 1, 1) for i in range(1, k)])
    w = to_matrix(g)
    dist = floyd_warshall(w)
    counts = min_edge_counts(w, dist)
    pdm = build_partial(w, 1, 0.0, 0.0, Rng(0))
    assert np.array_equal(pdm.P, dist)
    knocked = np.isin(np.arange(k), [3, 4])  # vertices 4 and 5
    pdm.P[0, :] = np.where(knocked, INF, pdm.P[0, :])
    bad1 = check_rpdm_property2(pdm, dist, counts, w, window=1)
    assert (1, k) in bad1
    bad2 = check_rpdm_property2(pdm, dist, counts, w, window=2)
    assert (1, k) not in bad2


def test_entry_magnitudes_stay_bounded():
    # products can stack two truncation radii, never more
    rows = []
    for seed in range(6):
        for (n, m, beta) in ((12, 3, 0.4), (16, 2, 0.25), (10, 5, 0.0)):
            g = mixed_graph(n, 0.4, m, seed + 10)
            w = to_matrix(g)
            pdm = build_partial(w, g.M, beta, 0.2, Rng(seed))
            fin = is_finite(pdm.P)
            if not fin.any():
                continue
            top = int(np.abs(pdm.P[fin]).max())
            cap = 6 * g.M * n ** (1.0 - beta) + 2
            assert top <= cap, (n, m, beta, top, cap)
            rows.append(top / (g.M * n ** (1.0 - beta)))
    assert rows and max(rows) <= 6.0 + 1e-9


def test_builder_deterministic():
    g = mixed_graph(14, 0.3, 3, seed=9)
    w = to_matrix(g)
    a = build_partial(w, g.M, 0.4, 0.2, Rng(77))
    b = build_partial(w, g.M, 0.4, 0.2, Rng(77))
    assert np.array_equal(a.P, b.P)
    assert np.array_equal(a.bridge, b.bridge)


def test_single_vertex_matrix():
    w = to_matrix(make_graph(1, []))
    pdm = build_partial(w, 1, 0.0, 0.0, Rng(0))
    assert pdm.P.shape == (1, 1) and pdm.P[0, 0] == 0
