import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mixed_graph, squaring_apsp
from tapsp import graphs
from tapsp.graphs import (MAX_SPAN, Graph, GraphParseError, NegativeCycleError,
                          find_negative_cycle, gen_mixed_ncf, gen_random,
                          johnson_potentials, make_graph, parse_graph,
                          to_matrix, transitive_closure, write_graph)
from tapsp.matrices import INF
from tapsp.oracle import floyd_warshall


def test_parse_minimal():
    g = parse_graph("p sp 2 1\na 1 2 5\n")
    assert g.n == 2 and g.edges == ((1, 2, 5),) and g.M == 5


def test_parse_empty_graph():
    g = parse_graph("p sp 3 0\n")
    assert g.n == 3 and g.edges == ()
    w = to_matrix(g)
    off = ~np.eye(3, dtype=bool)
    assert (w[off] == INF).all() and (np.diag(w) == 0).all()


def test_parse_rejects_self_loop():
    with pytest.raises(GraphParseError) as exc:
        parse_graph("p sp 2 1\na 1 1 3\n")
    assert "2" in str(exc.value)  # line number in message


def test_parse_rejects_out_of_range_vertex():
    with pytest.raises(GraphParseError):
        parse_graph("p sp 2 1\na 1 7 3\n")


def test_parse_rejects_arc_count_mismatch():
    with pytest.raises(GraphParseError):
        parse_graph("p sp 2 2\na 1 2 3\n")


def test_parse_rejects_weight_beyond_cap():
    with pytest.raises(GraphParseError):
        parse_graph("p sp 2 1\na 1 2 9\n", max_weight=5)


def test_parse_ignores_comments():
    g = parse_graph("c hello\np sp 2 1\nc again\na 2 1 -3\n")
    assert g.edges == ((2, 1, -3),)


def test_round_trip():
    g = make_graph(4, [(1, 2, 3), (2, 3, -1), (4, 1, 2)])
    assert parse_graph(write_graph(g, comment="x")) == g


def test_graph_rejects_non_integer_sizes_and_weights():
    # int64 arc arrays would truncate these weights to 0 and to 1 and 2
    with pytest.raises(ValueError):
        make_graph(2, [(1, 2, 0.5), (2, 1, 0.5)])
    with pytest.raises(ValueError):
        make_graph(3, [(1, 2, 1.5), (2, 3, 2.7)])
    with pytest.raises(ValueError):
        Graph(n=2.5, edges=(), M=1)
    with pytest.raises(ValueError):
        Graph(n=2, edges=((1, 2.0, 1),), M=1)
    g = make_graph(np.int64(3), [(1, np.int64(2), np.int64(-2)), (2, 3, 1)])
    assert g.M == 2
    assert list(g.arcs[2]) == [-2, 1]


def test_duplicate_arcs_keep_minimum():
    g = make_graph(3, [(1, 2, 5), (1, 2, 2), (1, 2, 7)])
    assert g.edges == ((1, 2, 2),)


def test_to_matrix_three_cycle():
    g = make_graph(3, [(1, 2, 1), (2, 3, 1), (3, 1, 1)])
    want = np.array([[0, 1, INF], [INF, 0, 1], [1, INF, 0]], dtype=np.int64)
    assert np.array_equal(to_matrix(g), want)


def test_gen_random_complete_unit():
    g = gen_random(5, 1.0, 1, 1, seed=3)
    assert g.m == 20 and all(w == 1 for (_, _, w) in g.edges)


def test_gen_random_deterministic():
    a = gen_random(10, 0.3, -3, 3, seed=7)
    b = gen_random(10, 0.3, -3, 3, seed=7)
    assert a == b


def test_gen_random_no_neg_cycle_flag():
    g = gen_random(10, 0.3, -3, 3, seed=7, require_no_neg_cycle=True)
    assert find_negative_cycle(g) is None


def test_detect_negative_cycle_two_cycles():
    assert find_negative_cycle(make_graph(2, [(1, 2, -1), (2, 1, -1)])) is not None
    assert find_negative_cycle(make_graph(2, [(1, 2, -1), (2, 1, 1)])) is None


def test_find_negative_cycle_returns_real_cycle():
    g = mixed_graph(12, 0.3, 3, seed=5)
    extra = list(g.edges) + [(3, 7, -3), (7, 3, 1)]
    g2 = make_graph(12, extra, M=3)
    cyc = find_negative_cycle(g2)
    if cyc is None:
        pytest.skip("instance happened to stay cycle-free")
    wmap = {(u, v): w for (u, v, w) in g2.edges}
    total = sum(wmap[(cyc[i], cyc[(i + 1) % len(cyc)])] for i in range(len(cyc)))
    assert total < 0


def test_negative_cycle_enumeration_cross_check():
    # brute force over all simple cycles on tiny graphs
    import itertools

    gen = np.random.default_rng(11)
    for _ in range(40):
        n = int(gen.integers(2, 6))
        arcs = []
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                if u != v and gen.random() < 0.5:
                    arcs.append((u, v, int(gen.integers(-3, 4))))
        g = make_graph(n, arcs, M=3)
        wmap = {(u, v): w for (u, v, w) in g.edges}
        brute = False
        for size in range(2, n + 1):
            for combo in itertools.permutations(range(1, n + 1), size):
                if combo[0] != min(combo):
                    continue
                closed = list(combo) + [combo[0]]
                legs = list(zip(closed, closed[1:]))
                if all(e in wmap for e in legs):
                    if sum(wmap[e] for e in legs) < 0:
                        brute = True
                        break
            if brute:
                break
        assert (find_negative_cycle(g) is not None) == brute


def test_johnson_path_example():
    g = make_graph(3, [(1, 2, -2), (2, 3, -3)])
    h = johnson_potentials(g)
    assert list(h) == [0, -2, -5]
    for (u, v, w) in g.edges:
        assert w + h[u - 1] - h[v - 1] == 0


def test_johnson_nonnegative_everywhere():
    for seed in range(20):
        g = mixed_graph(14, 0.35, 4, seed)
        h = johnson_potentials(g)
        for (u, v, w) in g.edges:
            assert w + h[u - 1] - h[v - 1] >= 0


def test_arcs_are_the_edges_as_read_only_arrays():
    g = make_graph(4, [(3, 1, -2), (1, 2, 5), (2, 4, 1)])
    u, v, w = g.arcs
    assert list(zip(u + 1, v + 1, w)) == list(g.edges)
    assert u.dtype == v.dtype == w.dtype == np.int64
    assert g.arcs is g.arcs
    with pytest.raises(ValueError):
        w[0] = 0
    u, v, w = make_graph(3, []).arcs
    assert u.size == v.size == w.size == 0


def test_jacobi_bellman_ford_matches_the_sequential_pass():
    # same potentials without a negative cycle; with one, the same witness
    gen = np.random.default_rng(12)
    for seed in range(40):
        g = mixed_graph(int(gen.integers(1, 40)), float(gen.uniform(0.02, 0.5)),
                        int(gen.integers(1, 6)), seed)
        h, pred, relaxable = graphs._bellman_ford(g)
        want = graphs._bellman_ford_sequential(g)
        assert want[2] is None and pred is None and relaxable is None
        assert np.array_equal(h, want[0]), seed
    for seed in range(40):
        n = int(gen.integers(2, 12))
        g = gen_random(n, 0.4, -3, 3, seed=seed)
        want = graphs._bellman_ford_sequential(g)
        got = graphs._bellman_ford(g)
        assert (got[2] is None) == (want[2] is None), seed
        if want[2] is None:
            assert np.array_equal(got[0], want[0]), seed
        else:
            assert got[2] == want[2]
            assert np.array_equal(got[1], want[1]), seed


def test_in_place_bellman_ford_rounds_match_the_sequential_pass():
    # mixed graphs up to n = 64 with and without a backbone, then each
    # with a planted cycle of 0-arcs and one -1 arc: its rounds never
    # settle, so the n-round fallback traces it
    gen = np.random.default_rng(23)
    for seed in range(30):
        n = int(gen.integers(2, 65))
        g = gen_mixed_ncf(n, float(gen.uniform(0.02, 0.3)),
                          int(gen.integers(1, 9)), seed, backbone=bool(seed % 2))
        h, pred, relaxable = graphs._bellman_ford(g)
        want = graphs._bellman_ford_sequential(g)
        assert (pred, relaxable, want[2]) == (None, None, None)
        assert np.array_equal(h, want[0]), seed
        cyc = (gen.permutation(n)[:int(gen.integers(2, n + 1))] + 1).tolist()
        plant = [(a, b, -1 if i == 0 else 0)
                 for i, (a, b) in enumerate(zip(cyc, cyc[1:] + cyc[:1]))]
        neg = make_graph(n, list(g.edges) + plant, M=g.M)
        got = graphs._bellman_ford(neg)
        want = graphs._bellman_ford_sequential(neg)
        assert want[2] is not None and got[2] == want[2], seed
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert find_negative_cycle(neg) == graphs._trace_cycle(want[1], want[2])


def test_johnson_raises_on_negative_cycle():
    g = make_graph(2, [(1, 2, -2), (2, 1, 1)])
    with pytest.raises(NegativeCycleError):
        johnson_potentials(g)


def test_transitive_closure_path():
    g = make_graph(3, [(1, 2, 1), (2, 3, 1)])
    want = np.array([[1, 1, 1], [0, 1, 1], [0, 0, 1]], dtype=bool)
    assert np.array_equal(transitive_closure(g), want)


def test_transitive_closure_empty():
    g = make_graph(4, [])
    assert np.array_equal(transitive_closure(g), np.eye(4, dtype=bool))


def test_transitive_closure_matches_dfs():
    # the large dense cases make the float32 squares count many walks
    gen = np.random.default_rng(13)
    sizes = [(int(gen.integers(2, 10)), 0.25) for _ in range(15)]
    for n, p in sizes + [(33, 0.05), (64, 0.02), (120, 0.5)]:
        arcs = [(u, v, 1) for u in range(1, n + 1) for v in range(1, n + 1)
                if u != v and gen.random() < p]
        g = make_graph(n, arcs)
        adj = [[] for _ in range(n)]
        for (u, v, _) in g.edges:
            adj[u - 1].append(v - 1)
        want = np.eye(n, dtype=bool)
        for s in range(n):
            stack = [s]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if not want[s, y]:
                        want[s, y] = True
                        stack.append(y)
        assert np.array_equal(transitive_closure(g), want)


def test_matrix_power_matches_floyd_warshall():
    for seed in range(10):
        g = mixed_graph(9, 0.4, 3, seed)
        w = to_matrix(g)
        assert np.array_equal(squaring_apsp(w), floyd_warshall(w))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(n=2, edges=((1, 1, 0),), M=1)
    with pytest.raises(ValueError):
        Graph(n=2, edges=((1, 2, 9),), M=3)
    with pytest.raises(ValueError):
        Graph(n=2, edges=((1, 3, 1),), M=1)
    with pytest.raises(ValueError):
        Graph(n=2, edges=((1, 2, 1), (1, 2, 2)), M=3)


def test_make_graph_infers_bound():
    g = make_graph(3, [(1, 2, -4), (2, 3, 2)])
    assert g.M == 4
    assert make_graph(2, []).M == 1


def test_weights_past_the_headroom_are_rejected():
    # n*M may reach MAX_SPAN and no further
    assert make_graph(2, [(1, 2, MAX_SPAN // 2)]).M == MAX_SPAN // 2
    for w in (MAX_SPAN // 2 + 1, -(MAX_SPAN // 2 + 1), 2**60, 2**63):
        with pytest.raises(ValueError, match="exceeds the limit"):
            make_graph(2, [(1, 2, w)])
    with pytest.raises(ValueError, match="exceeds the limit"):
        Graph(n=3, edges=(), M=MAX_SPAN // 3 + 1)
    with pytest.raises(ValueError, match="exceeds the limit"):
        parse_graph(f"p sp 3 1\na 1 2 {2**63}\n")


def test_numpy_and_bool_values_cannot_pass_the_checks():
    # 3 * 2^62 wraps past 2^63 in int64; accepted, the graph's threshold
    # counts came out wrong
    for w in (np.int64(2**62), np.int64(-2**63)):
        with pytest.raises(ValueError):
            make_graph(3, [(1, 2, w), (2, 3, 1), (3, 1, 1)])
    with pytest.raises(ValueError, match="exceeds the limit"):
        Graph(n=np.int64(3), edges=(), M=np.int64(2**62))
    # write_graph would print "True", which parse_graph rejects
    for arc in ((1, 2, True), (True, 2, 1)):
        with pytest.raises(ValueError, match="non-integer"):
            make_graph(2, [arc, (2, 1, 1)])
    with pytest.raises(ValueError, match="must be integers"):
        Graph(n=2, edges=(), M=True)


@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_round_trip_random(n, seed):
    # the text format carries no weight cap, so restate it when parsing
    g = gen_random(n, 0.4, -2, 5, seed=seed)
    assert parse_graph(write_graph(g), max_weight=g.M) == g
