import re
import time
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (arcs_of, at_float_budgets, float_level_m,
                     level_step_square, lower_strassen_cutoff,
                     minplus_reference, nested_coeffs,
                     nonneg_distances_reference, poly_square_direct,
                     rand_dist_matrix, unreachable_corner_graph)
from tapsp import matrices, threshold_positive
from tapsp.config import KERNELS
from tapsp.far_pairs import sssp_rows
from tapsp.graphs import (MAX_SPAN, gen_mixed_ncf, gen_random,
                          johnson_potentials, make_graph, to_matrix,
                          transitive_closure)
from tapsp.matrices import (INF, EntryBoundError, counting, dist_product_fast,
                            dist_product_naive, full_inf, is_finite,
                            minplus_closure, minplus_identity, ring_matmul,
                            scale_div_ceil, truncate)
from tapsp.oracle import floyd_warshall
from tapsp.threshold_positive import threshold_apsp_pos


def test_minplus_worked_example():
    # hand-checkable 2x2: the (0,0) entry goes through the diagonal,
    # min(0+0, 3+4) = 0
    a = np.array([[0, 3], [INF, 0]], dtype=np.int64)
    b = np.array([[0, INF], [4, 0]], dtype=np.int64)
    want = np.array([[0, 3], [4, 0]], dtype=np.int64)
    assert np.array_equal(dist_product_naive(a, b), want)
    assert np.array_equal(dist_product_fast(a, b, bound=4), want)


def test_minplus_path_example():
    # 1 -> 2 -> 3 with weights 3 and 4: two hops cost 7
    w = np.array([[0, 3, INF], [INF, 0, 4], [INF, INF, 0]], dtype=np.int64)
    sq = dist_product_naive(w, w)
    assert sq[0, 2] == 7


def test_fast_scalar_case():
    a = np.array([[2]], dtype=np.int64)
    b = np.array([[-1]], dtype=np.int64)
    assert dist_product_fast(a, b, bound=2)[0, 0] == 1


def test_ring_matmul_square_example(monkeypatch):
    lower_strassen_cutoff(monkeypatch, 2)
    a = np.array([[1, 2], [3, 4]], dtype=object)
    want = np.array([[7, 10], [15, 22]], dtype=object)
    assert np.array_equal(ring_matmul(a, a), want)
    assert np.array_equal(ring_matmul(a, a, kernel="strassen"), want)


def test_minplus_identity_neutral():
    gen = np.random.default_rng(0)
    a = rand_dist_matrix(gen, 7, 7, 9)
    eye = minplus_identity(7)
    assert np.array_equal(dist_product_naive(a, eye), a)
    assert np.array_equal(dist_product_naive(eye, a), a)


def test_naive_matches_pure_python_reference():
    gen = np.random.default_rng(1)
    for _ in range(25):
        a = rand_dist_matrix(gen, 5, 4, 8)
        b = rand_dist_matrix(gen, 4, 6, 8)
        assert np.array_equal(dist_product_naive(a, b), minplus_reference(a, b))


def test_fast_equals_naive_randomized():
    gen = np.random.default_rng(2)
    for trial in range(300):
        l, m, r = gen.integers(1, 13, size=3)
        bound = int(gen.integers(1, 17))
        a = rand_dist_matrix(gen, l, m, bound)
        b = rand_dist_matrix(gen, m, r, bound)
        fast = dist_product_fast(a, b, bound=bound)
        assert np.array_equal(fast, dist_product_naive(a, b)), trial


@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=150, deadline=None)
def test_fast_equals_naive_property(l, m, r, seed):
    gen = np.random.default_rng(seed)
    a = rand_dist_matrix(gen, l, m, 6, inf_frac=0.3)
    b = rand_dist_matrix(gen, m, r, 6, inf_frac=0.3)
    assert np.array_equal(dist_product_fast(a, b, bound=6),
                          dist_product_naive(a, b))


def test_fast_derives_bound_when_omitted():
    a = np.array([[2, -3], [INF, 5]], dtype=np.int64)
    assert np.array_equal(dist_product_fast(a, a), dist_product_naive(a, a))


def test_fast_rejects_entries_beyond_bound():
    a = np.array([[9]], dtype=np.int64)
    with pytest.raises(EntryBoundError):
        dist_product_fast(a, a, bound=5)


def test_fast_all_inf_inner_dimension():
    a = full_inf(3, 2)
    b = full_inf(2, 3)
    out = dist_product_fast(a, b, bound=1)
    assert not is_finite(out).any()


def test_fast_zero_inner_dimension():
    a = np.empty((3, 0), dtype=np.int64)
    b = np.empty((0, 2), dtype=np.int64)
    out = dist_product_fast(a, b, bound=1)
    assert out.shape == (3, 2) and not is_finite(out).any()


def test_ring_matmul_counts_multiplications():
    a = np.ones((3, 4), dtype=object)
    b = np.ones((4, 5), dtype=object)
    with counting() as counts:
        ring_matmul(a, b)
    assert counts["ring_mults"] == 3 * 4 * 5


def test_counts_exist_only_inside_a_counting_block():
    # a closed block's Counter keeps what it counted, and library calls
    # outside every block (a product, a closure, a whole threshold call)
    # reach no Counter
    a = np.zeros((3, 3), dtype=np.int64)
    g = gen_random(8, 0.4, 1, 3, seed=1)
    with counting() as counts:
        dist_product_naive(a, a)
    assert counts == Counter(minplus_relaxations=27)
    dist_product_naive(a, a)
    transitive_closure(g)
    threshold_apsp_pos(g, 6)
    assert counts == Counter(minplus_relaxations=27)
    assert matrices._COUNTS.get() is None


def test_a_nested_counting_block_counts_into_its_own_counter_only():
    a = np.zeros((3, 3), dtype=np.int64)
    ones = np.ones((2, 2), dtype=object)
    with counting() as outer:
        dist_product_naive(a, a)
        with counting() as inner:
            ring_matmul(ones, ones)
            transitive_closure(make_graph(4, [(1, 2, 1)], M=1))
        dist_product_naive(a, a)
    assert inner == Counter(ring_mults=8, bool_ops=2 * 16)
    assert outer == Counter(minplus_relaxations=2 * 27)


def test_strassen_equals_schoolbook(monkeypatch):
    strassen = lower_strassen_cutoff(monkeypatch, 2)
    gen = np.random.default_rng(3)
    for _ in range(60):
        n = int(gen.integers(1, 13))
        m = int(gen.integers(1, 13))
        r = int(gen.integers(1, 13))
        a = gen.integers(-50, 50, size=(n, m)).astype(object)
        b = gen.integers(-50, 50, size=(m, r)).astype(object)
        school = ring_matmul(a, b, kernel="schoolbook")
        stras = ring_matmul(a, b, kernel="strassen")
        assert np.array_equal(school, stras)
    assert strassen["calls"] > 0


def test_strassen_handles_big_integers(monkeypatch):
    strassen = lower_strassen_cutoff(monkeypatch, 2)
    gen = np.random.default_rng(4)
    a = np.array([[int(x) << 200 for x in row]
                  for row in gen.integers(1, 9, size=(5, 5))], dtype=object)
    school = ring_matmul(a, a, kernel="schoolbook")
    stras = ring_matmul(a, a, kernel="strassen")
    assert np.array_equal(school, stras)
    assert strassen["calls"] > 0


def test_strassen_thin_product_counts_schoolbook_mults():
    # a side at or below the cutoff ends the recursion, so a thin product
    # is one schoolbook product rather than a padded square
    gen = np.random.default_rng(6)
    a = gen.integers(-9, 9, size=(3, 100)).astype(object)
    b = gen.integers(-9, 9, size=(100, 5)).astype(object)
    with counting() as counts:
        got = ring_matmul(a, b, kernel="strassen")
    assert counts["ring_mults"] == 3 * 100 * 5
    assert np.array_equal(got, ring_matmul(a, b, kernel="schoolbook"))


def test_fast_product_through_strassen_kernel(monkeypatch):
    strassen = lower_strassen_cutoff(monkeypatch, 4)
    gen = np.random.default_rng(5)
    a = rand_dist_matrix(gen, 9, 9, 7)
    fast = dist_product_fast(a, a, bound=7, kernel="strassen")
    assert np.array_equal(fast, dist_product_naive(a, a))
    assert strassen["calls"] > 0


def test_truncate_drops_large_magnitudes():
    a = np.array([[5, -5, 6, -6, INF]], dtype=np.int64)
    got = truncate(a, 5)
    want = np.array([[5, -5, INF, INF, INF]], dtype=np.int64)
    assert np.array_equal(got, want)


def test_scale_div_ceil_rounds_toward_plus_infinity():
    a = np.array([[5, -5, 4, -4, 0, INF]], dtype=np.int64)
    got = scale_div_ceil(a, 2)
    want = np.array([[3, -2, 2, -2, 0, INF]], dtype=np.int64)
    assert np.array_equal(got, want)


@given(st.integers(min_value=-100, max_value=100),
       st.integers(min_value=1, max_value=9))
def test_scale_div_ceil_matches_math_ceil(x, k):
    got = scale_div_ceil(np.array([[x]], dtype=np.int64), k)[0, 0]
    assert got == -((-x) // k)
    assert k * got >= x > k * (got - 1)


@given(arrays(np.int8, (4, 4), elements=st.integers(min_value=-7, max_value=7)),
       arrays(np.int8, (4, 4), elements=st.integers(min_value=-7, max_value=7)))
@settings(max_examples=100, deadline=None)
def test_fast_equals_naive_dense_small(a8, b8):
    a = a8.astype(np.int64)
    b = b8.astype(np.int64)
    assert np.array_equal(dist_product_fast(a, b, bound=7),
                          dist_product_naive(a, b))


def _dtype_edge_input(bound):
    """Entries at +-bound, an INF row in a and an INF column in b, so the
    double sentinel 2*(3*bound + 1) is formed."""
    a = np.array([[bound, -bound], [INF, INF], [-bound, INF]], dtype=np.int64)
    b = np.array([[-bound, INF, bound], [bound, INF, INF]], dtype=np.int64)
    return a, b, bound


# the last bound whose double sentinel fits int16, int32, and the first past it
INT16_EDGE = (5460, 5461)
INT32_EDGE = (357913940, 357913941)


def _minplus_edge_inputs(gen):
    """Operand pairs with INF rows and columns, negative entries, entries
    exactly at +-bound, bound 0, a zero inner dimension and the bounds
    where the numpy kernel's relaxation dtype widens from int16."""
    for _ in range(40):
        l, m, r = (int(x) for x in gen.integers(1, 11, size=3))
        bound = int(gen.integers(0, 9))
        a = rand_dist_matrix(gen, l, m, bound, inf_frac=0.3)
        b = rand_dist_matrix(gen, m, r, bound, inf_frac=0.3)
        a[int(gen.integers(l)), :] = INF
        b[:, int(gen.integers(r))] = INF
        a[:, int(gen.integers(m))] = INF
        b[int(gen.integers(m)), 0] = -bound
        a[0, int(gen.integers(m))] = bound
        a[-1, -1] = -bound
        yield a, b, bound
    yield np.zeros((3, 4), dtype=np.int64), full_inf(4, 2), 0
    yield np.array([[0, INF]], dtype=np.int64), np.zeros((2, 3), dtype=np.int64), 0
    yield np.empty((3, 0), dtype=np.int64), np.empty((0, 2), dtype=np.int64), 1
    yield full_inf(2, 3), full_inf(3, 2), 5
    for bound in INT16_EDGE:
        yield _dtype_edge_input(bound)


def test_fast_kernels_agree_on_edge_inputs(monkeypatch):
    strassen = lower_strassen_cutoff(monkeypatch, 2)
    gen = np.random.default_rng(8)
    for a, b, bound in _minplus_edge_inputs(gen):
        want = dist_product_naive(a, b)
        school = dist_product_fast(a, b, bound=bound, kernel="schoolbook")
        assert np.array_equal(school, want), (a, b, bound)
        for kernel in KERNELS:
            got = dist_product_fast(a, b, bound=bound, kernel=kernel)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (kernel, a, b, bound)
            assert np.array_equal(dist_product_fast(a, b, kernel=kernel), want)
    assert strassen["calls"] > 0
    # the encoded kernels refuse the int32 edge: their power table would
    # hold 4*bound + 2 bigints of up to 4*bound*log2(m + 1) bits
    for bound in INT32_EDGE:
        a, b, _ = _dtype_edge_input(bound)
        got = dist_product_fast(a, b, bound=bound, kernel="numpy")
        assert np.array_equal(got, dist_product_naive(a, b)), bound


def test_encoded_kernels_refuse_an_oversized_power_table():
    a = np.array([[10 ** 8, 0], [INF, -10 ** 8]], dtype=np.int64)
    for kernel in ("schoolbook", "strassen"):
        start = time.monotonic()
        with pytest.raises(ValueError, match="power table"):
            dist_product_fast(a, a, bound=10 ** 8, kernel=kernel)
        assert time.monotonic() - start < 1.0, kernel
    got = dist_product_fast(a, a, bound=10 ** 8, kernel="numpy")
    assert np.array_equal(got, dist_product_naive(a, a))


def test_encoded_budget_counts_the_product_entries(monkeypatch):
    # at bound 1 and inner dimension 1 the power table holds 12.5 bits and
    # each result entry 4: a 200 x 1 by 1 x 200 product needs 160,812 bits
    # in all, a 2 x 1 by 1 x 2 product 36.5
    monkeypatch.setattr(matrices, "MAX_ENCODED_BITS", 1000)
    gen = np.random.default_rng(3)
    wide_a = rand_dist_matrix(gen, 200, 1, 1)
    wide_b = rand_dist_matrix(gen, 1, 200, 1)
    a, b = wide_a[:2], wide_b[:, :2]
    for kernel in ("schoolbook", "strassen"):
        with pytest.raises(ValueError, match="power table"):
            dist_product_fast(wide_a, wide_b, bound=1, kernel=kernel)
        got = dist_product_fast(a, b, bound=1, kernel=kernel)
        assert np.array_equal(got, dist_product_naive(a, b)), kernel


def test_numpy_kernel_exact_at_the_largest_pipeline_bound():
    # target_distances multiplies at bound 2K <= 4 n M, and graphs keep
    # n M <= MAX_SPAN: sentinel sums stay int64, finite results below INF
    bound = 4 * MAX_SPAN
    a = np.array([[bound, INF], [INF, -bound]], dtype=np.int64)
    got = dist_product_fast(a, a, bound=bound, kernel="numpy")
    want = np.array([[2 * bound, INF], [INF, -2 * bound]], dtype=np.int64)
    assert np.array_equal(got, want)
    assert is_finite(got[0, 0])


def _fallback_calls(monkeypatch) -> list:
    """Route matrices._minplus_blocked through a wrapper that logs each
    call, so a test can tell which route the numpy kernel took."""
    calls = []
    real = matrices._minplus_blocked

    def logged(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(matrices, "_minplus_blocked", logged)
    return calls


def _spread_operands(gen, m, lo_a, range_a, lo_b, range_b):
    """4 x m and m x 4 operands with finite ranges exactly [lo, lo + range]:
    row 0 and column 0 hold only the least entries and row 3 and column 3
    only the largest (so the m terms of result [0, 0] tie at exponent sum
    0, and those of result [3, 3] at the widest one), row 1 and column 1
    are INF, row 2 and column 2 are random."""
    a = lo_a + gen.integers(0, range_a + 1, size=(4, m))
    b = lo_b + gen.integers(0, range_b + 1, size=(m, 4))
    a[0], b[:, 0] = lo_a, lo_b
    a[1], b[:, 1] = INF, INF
    a[3], b[:, 3] = lo_a + range_a, lo_b + range_b
    return a, b


def test_float_route_exact_when_all_terms_tie(monkeypatch):
    # m terms of the least exponent sum to m 2**(-e* s), and m = 2**(s - 2)
    # is the largest m at each s: 1, 64, 256 and 1024 sit on that edge.
    # The ring kernels decode the same operands, whose top digit counts m
    # terms, one below the radix z = m + 1. At cutoff 2 "strassen" splits
    # every 4 x m x 4 product with m >= 3 once, into seven 2 x m/2 x 2 ones.
    fallbacks = _fallback_calls(monkeypatch)
    strassen = lower_strassen_cutoff(monkeypatch, 2)
    gen = np.random.default_rng(21)
    for m in (1, 2, 3, 63, 64, 65, 255, 256, 257, 1024):
        s = (4 * m - 1).bit_length()
        half = matrices.FLOAT_EXP_BUDGET // (2 * s)
        for lo_a, lo_b in ((0, 0), (-7, 3)):
            a, b = _spread_operands(gen, m, lo_a, half, lo_b, half)
            want = dist_product_naive(a, b)
            for kernel in KERNELS:
                before = strassen["calls"]
                got = dist_product_fast(a, b, kernel=kernel)
                assert np.array_equal(got, want), (m, lo_a, kernel)
                split = 7 if kernel == "strassen" and m >= 3 else 0
                assert strassen["calls"] - before == split, (m, kernel)
            assert want[3, 3] == lo_a + lo_b + 2 * half
    assert fallbacks == []


def test_float_route_rule_at_the_budget(monkeypatch):
    # (range_a + range_b) * s == FLOAT_EXP_BUDGET takes the float route, and
    # result [3, 3] sums m terms of 2**-1020; one more unit of range falls
    # back, and both routes are exact
    fallbacks = _fallback_calls(monkeypatch)
    gen = np.random.default_rng(22)
    for m in (1, 2, 3, 8, 16, 200):
        s = (4 * m - 1).bit_length()
        assert matrices.FLOAT_EXP_BUDGET % s == 0, m
        total = matrices.FLOAT_EXP_BUDGET // s
        for range_a, lo_a, lo_b in ((total // 2, 0, 0), (total, -50, 9),
                                    (0, 4, -total)):
            range_b = total - range_a
            for extra, routed in ((0, 0), (1, 1)):
                a, b = _spread_operands(gen, m, lo_a, range_a, lo_b,
                                        range_b + extra)
                before = len(fallbacks)
                got = dist_product_fast(a, b)
                assert len(fallbacks) - before == routed, (m, range_a, extra)
                assert np.array_equal(got, dist_product_naive(a, b)), (m, extra)


def test_float_route_edge_operands(monkeypatch):
    fallbacks = _fallback_calls(monkeypatch)
    gen = np.random.default_rng(23)
    a = rand_dist_matrix(gen, 6, 6, 9, inf_frac=0.3)
    a[2, :] = INF
    a[:, 4] = INF
    neg = np.where(is_finite(a), a - 40, INF)
    empty_rows = np.empty((0, 6), dtype=np.int64)
    empty_cols = np.empty((6, 0), dtype=np.int64)
    cases = [(a, a), (neg, neg), (neg, a), (a, full_inf(6, 3)),
             (full_inf(2, 6), a), (full_inf(6, 6), full_inf(6, 6)),
             (empty_rows, a), (a, empty_cols), (a[:, :1], a[:1, :])]
    for x, y in cases:
        want = dist_product_naive(x, y)
        for bound in (None, 60):
            got = dist_product_fast(x, y, bound=bound)
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want), (x, y, bound)
    assert fallbacks == []


def test_level_steps_take_the_float_route(monkeypatch):
    # level-step operands lie in [0, 2M + 2]: at n = 64, s = 8, and under
    # the documented budget the rule admits every M up to 30, the largest
    # M below taken here. Levels run past the primal cap (63 at n = 64
    # for both M under that budget)
    fallbacks = _fallback_calls(monkeypatch)
    n = 64
    for budget in at_float_budgets(monkeypatch):
        if budget == 1020:
            assert (matrices.widest_float_window(n), float_level_m(n)) == (63, 30)
        for m_bound, seed in ((8, 1), (float_level_m(n), 2)):
            g = gen_random(n, 3 / n, 1, m_bound, seed=seed)
            cap = threshold_positive.primal_cap(g)
            assert cap == matrices.widest_float_window(n)
            dist = floyd_warshall(to_matrix(g))
            for d in (cap + 1, 2 * cap, cap + 10 * m_bound, n * m_bound):
                report = threshold_apsp_pos(g, d)
                assert report.stats["levels"] > 0
                assert np.array_equal(report.reported, dist <= d), (budget, m_bound, d)
    assert fallbacks == []


@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=-10 ** 9, max_value=10 ** 9),
       st.integers(min_value=0, max_value=40),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=150, deadline=None)
def test_float_route_matches_naive_property(l, m, r, offset, width, inf_frac,
                                            seed):
    # widths up to 40 at m <= 12 (s <= 6) stay inside the float budget,
    # so the fallback must not run
    gen = np.random.default_rng(seed)
    a = offset + gen.integers(0, width + 1, size=(l, m))
    b = -offset + gen.integers(0, width + 1, size=(m, r))
    a[gen.random((l, m)) < inf_frac] = INF
    b[gen.random((m, r)) < inf_frac] = INF
    with mock.patch.object(matrices, "_minplus_blocked",
                           side_effect=AssertionError("fell back")):
        got = dist_product_fast(a, b)
        square = dist_product_fast(a[:, :l], a[:, :l]) if l <= m else None
    assert np.array_equal(got, dist_product_naive(a, b))
    if square is not None:
        assert np.array_equal(square, dist_product_naive(a[:, :l], a[:, :l]))


def _reweighted(g):
    """g's weight matrix reweighted by its Johnson potentials, the potentials
    and the closure cap 2 (n - 1) M every reweighted distance stays within."""
    h = johnson_potentials(g)
    w = to_matrix(g)
    wp = np.where(is_finite(w), w + h[:, None] - h[None, :], INF)
    return wp, h, 2 * (g.n - 1) * g.M


def _shift_back(dp, h):
    return np.where(is_finite(dp), dp - h[:, None] + h[None, :], INF)


def test_minplus_closure_exact_against_floyd_warshall_and_dijkstra():
    for n in (1, 2, 3, 17, 64):
        for seed in range(3):
            g = unreachable_corner_graph(n, seed + 20 * n)
            wp, h, cap = _reweighted(g)
            got = minplus_closure(wp, cap)
            assert np.array_equal(got, floyd_warshall(wp)), (n, seed)
            dist = _shift_back(got, h)
            assert np.array_equal(dist, floyd_warshall(to_matrix(g))), (n, seed)
            rows = np.array(sssp_rows(g, h, range(n)))
            assert np.array_equal(dist, rows), (n, seed)
            if n > 1:
                assert not is_finite(got[-1, :-1]).any()
                assert not is_finite(got[1:, 0]).any()
    for n in (1, 2, 5):
        w = to_matrix(make_graph(n, []))
        assert np.array_equal(minplus_closure(w, 0), w)


def test_minplus_closure_truncates_at_cap():
    for n, seed in ((3, 1), (17, 2), (64, 3)):
        g = gen_random(n, min(1.0, 3 / n), 1, 8, seed=seed)
        w = to_matrix(g)
        dist = floyd_warshall(w)
        for cap in (0, 1, 8, 9, 20, 8 * n):
            want = np.where(dist <= cap, dist, INF)
            assert np.array_equal(minplus_closure(w, cap), want), (n, cap)


def test_minplus_closure_rejects_negative_entries():
    w = np.array([[0, -1], [INF, 0]], dtype=np.int64)
    with pytest.raises(ValueError):
        minplus_closure(w, 5)


def test_minplus_closure_past_the_int32_sentinel_sum():
    # a cap whose doubled sentinel 2 (cap + 1) leaves int32, with distances
    # that int32 could not hold either
    big = MAX_SPAN // 3
    g = make_graph(3, [(1, 2, big), (2, 3, big), (3, 1, -big)], M=big)
    wp, h, cap = _reweighted(g)
    assert 2 * (cap + 1) > np.iinfo(np.int32).max
    got = _shift_back(minplus_closure(wp, cap), h)
    assert np.array_equal(got, floyd_warshall(to_matrix(g)))
    assert got[0, 2] == 2 * big and got[2, 1] == 0


def test_minplus_closure_at_the_int16_sentinel_sum():
    # caps 16382 and 16383 put the doubled sentinel 2 (cap + 1) at 32766
    # and 32768, either side of the int16 limit; vertex 5 has no out-arc,
    # so its pivot sums two sentinels for every pair it cannot close
    for cap in (16382, 16383):
        half = cap // 2
        arcs = [(1, 2, half), (2, 3, cap - half), (3, 4, 1), (4, 1, cap),
                (1, 5, cap + 1), (2, 5, 1)]
        graphs = [make_graph(5, arcs, M=cap + 1)]
        graphs += [gen_random(17, 3 / 17, 1, cap // 4, seed=seed)
                   for seed in range(3)]
        for g in graphs:
            w = to_matrix(g)
            dist = floyd_warshall(w)
            want = np.where(dist <= cap, dist, INF)
            assert np.array_equal(minplus_closure(w, cap), want), (cap, g.n)
        got = minplus_closure(to_matrix(graphs[0]), cap)
        assert got[0, 2] == cap and got[0, 4] == half + 1
        assert not is_finite(got[0, 3]) and not is_finite(got[4, :4]).any()
    assert 2 * (16382 + 1) == np.iinfo(np.int16).max - 1


@given(st.integers(min_value=1, max_value=12),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=80, deadline=None)
def test_reweighted_closure_matches_the_oracle_property(n, p, m_bound, seed):
    g = gen_mixed_ncf(n, p, m_bound, seed)
    wp, h, cap = _reweighted(g)
    got = minplus_closure(wp, cap)
    assert np.array_equal(got, floyd_warshall(wp))
    assert np.array_equal(_shift_back(got, h), floyd_warshall(to_matrix(g)))


def _count_matrices_calls(monkeypatch, *names) -> dict:
    """Count the calls made to each named matrices function."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(matrices, name)

        def wrapper(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(matrices, name, wrapper)
    return calls


def _squares_run(counts: Counter, n: int, closures: int) -> int:
    """The squares nonneg_distances ran on an n x n matrix in the
    counting() block that yielded counts: each adds n**3
    minplus_relaxations, as does each of the closures."""
    return counts["minplus_relaxations"] // n ** 3 - closures


def _capped_oracle(w, cap):
    dist = floyd_warshall(w)
    return np.where(dist <= cap, dist, INF)


def test_nonneg_distances_square_count_follows_the_hop_bound(monkeypatch):
    # a zero-weight path of n - 1 = 16 arcs: at window 1 its ends are
    # within it, but 16 arcs apart, so all ceil(log2 16) = 4 squares must
    # run. A square count taken from the window (min(win, n - 1) = 1 hop:
    # none) misses them, and so does stopping one square early (8 arcs)
    n = 17
    w = full_inf(n, n)
    np.fill_diagonal(w, 0)
    w[np.arange(n - 1), np.arange(1, n)] = 0
    w[0, n - 1] = 2
    calls = _count_matrices_calls(monkeypatch, "minplus_closure")
    with counting() as counts:
        got = matrices.nonneg_distances(n, arcs_of(w), 1, n - 1)
    assert np.array_equal(got, _capped_oracle(w, 1))
    assert got[0, n - 1] == 0
    assert calls == {"minplus_closure": 0}
    assert _squares_run(counts, n, calls["minplus_closure"]) == 4
    assert not is_finite(matrices.nonneg_distances(n, arcs_of(w), 1, 1)[0, n - 1])


def test_nonneg_distances_run_every_square_on_a_settled_matrix(monkeypatch):
    # on a complete unit-weight matrix the first square changes nothing,
    # yet all ceil(log2(n - 1)) squares run, at the widest window and
    # within it: the square count follows n and the hop bound alone
    calls = _count_matrices_calls(monkeypatch, "minplus_closure")
    for n in (3, 16, 64):
        w = np.ones((n, n), dtype=np.int64)
        np.fill_diagonal(w, 0)
        for win in (matrices.widest_float_window(n), 2):
            with counting() as counts:
                got = matrices.nonneg_distances(n, arcs_of(w), win, n - 1)
            assert np.array_equal(got, w)
            assert calls["minplus_closure"] == 0
            assert _squares_run(counts, n, 0) == (n - 2).bit_length(), (n, win)


def test_nonneg_distances_with_unreachable_pairs(monkeypatch):
    # an INF row and column: the squares leave them INF at every window,
    # the widest included, and never call the closure (the capped far
    # path, compute_delta_t, decides that); pairs past a small window
    # read INF as well
    calls = _count_matrices_calls(monkeypatch, "minplus_closure")
    for n, seed in ((17, 1), (32, 2)):
        g = unreachable_corner_graph(n, seed)
        wp, h, cap = _reweighted(g)
        big_w = matrices.widest_float_window(n)
        assert cap > big_w
        for win in (0, 3, 20, big_w):
            got = matrices.nonneg_distances(n, arcs_of(wp), win, n - 1)
            assert np.array_equal(got, _capped_oracle(wp, win)), (n, win)
            assert not is_finite(got[-1, :-1]).any()
        assert calls["minplus_closure"] == 0


def test_nonneg_distances_reject_a_window_past_the_float_window():
    # the exactness proof needs win <= W: one integer comparison raises
    # before anything is encoded, so no wider window is silently wrong
    for n in (2, 16, 64):
        big_w = matrices.widest_float_window(n)
        arcs = arcs_of(to_matrix(gen_random(n, 0.5, 1, 4, seed=n)))
        assert matrices.nonneg_distances(n, arcs, big_w, n - 1).shape == (n, n)
        with pytest.raises(ValueError, match="widest float window"):
            matrices.nonneg_distances(n, arcs, big_w + 1, n - 1)


@given(st.integers(min_value=1, max_value=24),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=120),
       st.integers(min_value=0, max_value=200),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=120, deadline=None)
def test_nonneg_distances_match_floyd_warshall_property(n, p, top, cap, seed):
    # nonnegative entries up to top, zeros included, caps on either side
    # of the window (85 at n = 16), asked at win = min(cap, W)
    gen = np.random.default_rng(seed)
    w = np.where(gen.random((n, n)) < p, gen.integers(0, top + 1, (n, n)), INF)
    np.fill_diagonal(w, 0)
    win = min(cap, matrices.widest_float_window(n))
    got = matrices.nonneg_distances(n, arcs_of(w), win, n - 1)
    assert np.array_equal(got, _capped_oracle(w, win))


@given(st.sampled_from((15, 16, 17, 32, 33, 64, 65)),
       st.sampled_from(("weights", "zeros", "ties")),
       st.floats(min_value=0.0, max_value=1.0),
       st.sampled_from(("W-1", "W", "W+1", "far")),
       st.sampled_from((0, 1, None)),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=80, deadline=None)
def test_nonneg_distances_match_the_window_square_loop_property(
        n, kind, p, cap_at, hops, seed):
    # n either side of each digit-width change (s = 6 bits up to n = 16,
    # 7 up to 32, 8 up to 64, 9 at 65); caps either side of the window W
    # and at the far path's 2 (n - 1) M, asked at win = min(cap, W);
    # "zeros" draws weights 0 and 1, and "ties" puts every arc at the top
    # of the window; hops 0 and 1 run no square, None is n - 1
    top = 8
    big_w = matrices.widest_float_window(n)
    cap = {"W-1": big_w - 1, "W": big_w, "W+1": big_w + 1,
           "far": 2 * (n - 1) * top}[cap_at]
    win = min(cap, big_w)
    gen = np.random.default_rng(seed)
    weights = {"weights": gen.integers(0, top + 1, (n, n)),
               "zeros": gen.integers(0, 2, (n, n)),
               "ties": np.full((n, n), win)}[kind]
    w = np.where(gen.random((n, n)) < p, weights, INF)
    np.fill_diagonal(w, 0)
    hops = n - 1 if hops is None else hops
    got = matrices.nonneg_distances(n, arcs_of(w), win, hops)
    assert np.array_equal(got, nonneg_distances_reference(w, win, hops))


def test_nonneg_distances_tables_are_read_only_and_built_once():
    # two read-only tables per (s, win), indexed by the biased exponent
    # field b of an encoded entry: b = 1023 - x s holds 2.0**(-x s), which
    # reads as the digit x; past win, and at b = 0 (the entry 0.0), they
    # hold 0.0 and INF
    n, win = 16, 20
    s = matrices._digit_bits(n)
    w = to_matrix(gen_random(n, 0.2, 1, 8, seed=3))
    matrices._chain_tables.cache_clear()
    for _ in range(3):
        got = matrices.nonneg_distances(n, arcs_of(w), win, n - 1)
        assert np.array_equal(got, _capped_oracle(w, win))
    info = matrices._chain_tables.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    square, decode = matrices._chain_tables(s, win)
    assert square.shape == decode.shape == (s + 1022,)
    x = np.arange(win + 2)
    b = 1023 - x * s
    assert np.array_equal(square[b[:-1]], np.ldexp(1.0, -s * x[:-1]))
    assert np.array_equal(decode[b[:-1]], x[:-1])
    assert square[b[-1]] == square[0] == 0.0
    assert decode[b[-1]] == decode[0] == INF
    # window_square reads its decode table per (s, offset) the same way
    matrices._digit_table.cache_clear()
    for _ in range(2):
        matrices.window_square(w, 3, 30)
    assert matrices._digit_table.cache_info().misses == 1
    for table in (square, decode, matrices._digit_table(s, 6)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1] = 0


def test_fast_kernels_reject_entries_beyond_bound():
    a = np.array([[1, INF], [-6, 2]], dtype=np.int64)
    b = np.array([[0, 1], [2, 3]], dtype=np.int64)
    for kernel in KERNELS:
        with pytest.raises(EntryBoundError):
            dist_product_fast(a, b, bound=5, kernel=kernel)
        with pytest.raises(EntryBoundError):
            dist_product_fast(b, a, bound=5, kernel=kernel)


def test_poly_square_matches_direct_convolution():
    # a level step is the square of the family's polynomial matrix
    gen = np.random.default_rng(7)
    for _ in range(60):
        n = int(gen.integers(1, 9))
        s = int(gen.integers(1, 7))
        coeffs = nested_coeffs(gen, n, s, 0.35)
        got = level_step_square(coeffs, int(gen.integers(2, 9)), "numpy")
        want = poly_square_direct(coeffs)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_poly_square_dense_coefficients_no_carry():
    # all-ones polynomials maximize digit counts; any radix carry in the
    # encoded kernels would corrupt neighbouring coefficients
    n, s = 6, 5
    coeffs = np.ones((n, n, s), dtype=bool)
    for kernel in KERNELS:
        got = level_step_square(coeffs, 2, kernel)
        assert got.shape == (n, n, 2 * s - 1)
        assert got.all(), kernel


def test_poly_matrix_validation(monkeypatch):
    # a level whose targets past the primal cap (63 at n = 64) leave
    # [2 lo, 2 hi] of the level below, above its top and below its bottom;
    # the level under it is sound, so the walk gets there. M = 8 keeps
    # d <= n M, below the reachability shortcut
    g = make_graph(64, [(i, i + 1, 1) for i in range(1, 64)], M=8)
    for levels in (((130, 130), (60, 64), (20, 40)),
                   ((100, 100), (52, 64), (20, 40))):
        monkeypatch.setattr(threshold_positive, "level_plan",
                            lambda d, m, base, levels=levels: levels)
        with pytest.raises(ValueError, match=re.escape(f"targets {levels[0]} outside")):
            threshold_apsp_pos(g, levels[0][0])


def test_poly_square_kernels_match_direct_convolution(monkeypatch):
    # the all-ones family has the densest coefficients, the all-zeros one none
    strassen = lower_strassen_cutoff(monkeypatch, 4)
    gen = np.random.default_rng(9)
    cases = [np.ones((6, 6, 5), dtype=bool), np.zeros((4, 4, 3), dtype=bool)]
    for _ in range(40):
        n = int(gen.integers(1, 21))
        s = int(gen.integers(1, 20))
        cases.append(nested_coeffs(gen, n, s, float(gen.uniform(0.02, 0.6))))
    for coeffs in cases:
        want = poly_square_direct(coeffs)
        t_lo = int(gen.integers(2, 9))
        for kernel in KERNELS:
            got = level_step_square(coeffs, t_lo, kernel)
            assert np.array_equal(got, want), (kernel, coeffs.shape, t_lo)
    assert strassen["calls"] > 0


def test_numpy_kernel_counts_work():
    gen = np.random.default_rng(10)
    a = rand_dist_matrix(gen, 3, 4, 5)
    b = rand_dist_matrix(gen, 4, 6, 5)
    with counting() as counts:
        dist_product_fast(a, b, bound=5, kernel="numpy")
    assert counts == Counter(ring_mults=0, minplus_relaxations=3 * 4 * 6,
                             bool_ops=0)
