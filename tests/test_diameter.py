import math

import numpy as np
import pytest

from helpers import mixed_graph, sc_mixed_graph, sc_positive_graph
from tapsp.config import KERNELS, RunConfig
from tapsp.diameter import diameter
from tapsp.graphs import NegativeCycleError, gen_random, make_graph, to_matrix
from tapsp.matrices import is_finite
from tapsp.oracle import floyd_warshall
from tapsp.sampling import Rng


def _oracle_diameter(g):
    dist = floyd_warshall(to_matrix(g))
    fin = is_finite(dist)
    if not fin.all():
        return math.inf, None
    value = int(dist.max())
    wit = sorted((int(u) + 1, int(v) + 1) for u, v in zip(*np.nonzero(dist == value)))
    return value, wit


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


def test_probe_trace_is_monotone():
    for seed in range(6):
        g = sc_mixed_graph(10, 0.35, 3, seed + 5)
        res = diameter(g)
        for (d, ok) in res.probes:
            assert ok == (d >= res.value)


def test_single_vertex():
    res = diameter(make_graph(1, []))
    assert res.value == 0
    assert res.witnesses == [(1, 1)]


def test_negative_cycle_propagates():
    g = make_graph(2, [(1, 2, -2), (2, 1, 1)])
    with pytest.raises(NegativeCycleError):
        diameter(g)


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


def test_deterministic():
    g = sc_mixed_graph(10, 0.35, 3, seed=31)
    a = diameter(g, rng=Rng(2))
    b = diameter(g, rng=Rng(2))
    assert a.value == b.value and a.witnesses == b.witnesses and a.probes == b.probes


def test_all_kernels_give_identical_diameters():
    graphs = [sc_positive_graph(10, 0.3, 4, seed=5), sc_mixed_graph(10, 0.3, 3, seed=6)]
    for g in graphs:
        want, wit = _oracle_diameter(g)
        results = [diameter(g, RunConfig(seed=3, kernel=k, strassen_cutoff=4))
                   for k in KERNELS]
        for kernel, res in zip(KERNELS, results):
            assert res.value == want, kernel
            assert sorted(res.witnesses) == wit, kernel
            assert res.probes == results[0].probes, kernel
