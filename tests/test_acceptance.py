"""Acceptance gate: one test per numbered criterion, run in order.

`pytest tests/test_acceptance.py -v` prints one PASS/FAIL line per
criterion (the test names carry the numbers); add -s to also see the
measured quantities each criterion reports: instance counts, first-run
success rates, the structural constant, wall times.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

from helpers import (level_step_square, mixed_graph, nested_coeffs,
                     poly_square_direct, rand_dist_matrix, sc_mixed_graph,
                     sc_positive_graph, schedule_levels, strip_wall_column)
from tapsp import matrices
from tapsp.config import RunConfig
from tapsp.diameter import diameter
from tapsp.graphs import (Graph, gen_random, johnson_potentials, make_graph,
                          to_matrix, write_graph)
from tapsp.matrices import (INF, dist_product_fast, dist_product_naive,
                            is_finite, ring_matmul)
from tapsp.oracle import brute_threshold, floyd_warshall, min_edge_counts
from tapsp.partial_distances import (check_rpdm_property1,
                                     check_rpdm_property2)
from tapsp.sampling import Rng
from tapsp.threshold_general import (classify_threshold, prepare_general,
                                     target_distances, threshold_apsp_neg)
from tapsp.threshold_positive import f_set, level_plan, threshold_apsp_pos


def _verdict(num: int, detail: str) -> None:
    print(f"[criterion {num}] PASS  {detail}")


def _percentile_ds(dist: np.ndarray) -> list:
    fin = is_finite(dist)
    np.fill_diagonal(fin, False)
    vals = np.sort(dist[fin])
    if vals.size == 0:
        return []
    out = []
    for q in (25, 50, 75, 100):
        idx = max(0, math.ceil(q / 100 * vals.size) - 1)
        out.append(int(vals[idx]))
    return out


def _drop_in_arcs(g: Graph, target: int = 1) -> Graph:
    """Make vertex `target` unreachable, so the instance is not SC."""
    return make_graph(g.n, [(u, v, w) for (u, v, w) in g.edges if v != target],
                      M=g.M)


def test_criterion_1_positive_exactness():
    start = time.monotonic()
    instances = 0
    checks = 0
    for n in (8, 16, 32, 64):
        for m_bound in (1, 2, 4, 8):
            for density in (0.1, 0.3, 0.7):
                for seed in range(11):
                    g = gen_random(n, density, 1, m_bound, seed=seed)
                    dist = floyd_warshall(to_matrix(g))
                    ds = {0, 1, m_bound + 1, n * m_bound + 1}
                    ds.update(_percentile_ds(dist))
                    for d in sorted(ds):
                        rep = threshold_apsp_pos(g, d)
                        assert np.array_equal(rep.reported,
                                              brute_threshold(dist, d)), \
                            f"mismatch n={n} M={m_bound} p={density} " \
                            f"seed={seed} d={d}"
                        checks += 1
                    if seed == 0:
                        again = threshold_apsp_pos(g, max(ds))
                        assert np.array_equal(again.reported,
                                              threshold_apsp_pos(g, max(ds)).reported)
                    instances += 1
    wall = time.monotonic() - start
    assert instances >= 500
    assert wall < 600.0, f"criterion 1 took {wall:.0f}s, budget is 600s"
    _verdict(1, f"{instances} instances, {checks} threshold checks, "
                f"all exact, {wall:.1f}s")


def test_criterion_2_general_verify_retry():
    start = time.monotonic()
    seeds_per_n = {8: 27, 16: 27, 24: 22, 48: 10}
    instances = 0
    calls = 0
    first_run = 0
    nontrivial_calls = 0
    nontrivial_first = 0
    for n, seed_count in seeds_per_n.items():
        for m_bound in (1, 2, 4):
            for density in (0.25, 0.45):
                for seed in range(seed_count):
                    g = mixed_graph(n, density, m_bound, seed=3000 + seed)
                    dist = floyd_warshall(to_matrix(g))
                    ds = {-2 * m_bound, -1, 0, 1, n * m_bound + 1}
                    ds.update(_percentile_ds(dist))
                    cfg = RunConfig(verify=True, verify_bound=64,
                                    seed=7 * instances + 1)
                    for d in sorted(ds):
                        rep = threshold_apsp_neg(g, d, config=cfg)
                        assert np.array_equal(rep.reported,
                                              brute_threshold(dist, d)), \
                            f"mismatch n={n} M={m_bound} seed={seed} d={d}"
                        calls += 1
                        ok_first = rep.stats["attempts"] == 1
                        first_run += ok_first
                        if rep.stats.get("edge_case") is None:
                            nontrivial_calls += 1
                            nontrivial_first += ok_first
                    instances += 1
    wall = time.monotonic() - start
    rate = first_run / calls
    nt_rate = nontrivial_first / max(1, nontrivial_calls)
    assert instances >= 500
    assert nt_rate >= 0.95, f"first-run success rate {nt_rate:.3f} below 0.95"
    _verdict(2, f"{instances} instances, {calls} verified calls, all match; "
                f"first-run success {rate:.4f} overall, {nt_rate:.4f} on the "
                f"{nontrivial_calls} non-shortcut calls, {wall:.1f}s")


def _check_diameter(g: Graph, cfg: RunConfig) -> bool:
    """Returns True when the instance was not strongly connected."""
    res = diameter(g, config=cfg)
    dist = floyd_warshall(to_matrix(g))
    fin = is_finite(dist)
    if fin.all():
        want = int(dist.max())
        assert res.value == want
        arg = sorted((int(u) + 1, int(v) + 1)
                     for u, v in zip(*np.nonzero(dist == want)))
        assert sorted(res.witnesses) == arg
        return False
    assert res.value == math.inf
    assert res.probes == []
    missing = sorted((int(u) + 1, int(v) + 1)
                     for u, v in zip(*np.nonzero(~fin)))
    assert sorted(res.witnesses) == missing
    return True


def test_criterion_3_diameter_equivalence():
    start = time.monotonic()
    totals = {"positive": 0, "general": 0}
    infinite = {"positive": 0, "general": 0}
    for i in range(200):
        n = 5 + i % 10
        m_bound = 1 + i % 5
        density = 0.25 + 0.15 * (i % 3)
        g = sc_positive_graph(n, density, m_bound, seed=1000 + i)
        if i % 10 == 0:
            g = _drop_in_arcs(g)
        cfg = RunConfig(mode="positive", seed=i)
        infinite["positive"] += _check_diameter(g, cfg)
        totals["positive"] += 1
    for i in range(200):
        n = 5 + i % 10
        m_bound = 1 + i % 4
        density = 0.25 + 0.15 * (i % 3)
        g = sc_mixed_graph(n, density, m_bound, seed=2000 + i)
        if i % 10 == 0:
            g = _drop_in_arcs(g)
        cfg = RunConfig(mode="general", seed=i)
        infinite["general"] += _check_diameter(g, cfg)
        totals["general"] += 1
    wall = time.monotonic() - start
    for mode in ("positive", "general"):
        assert totals[mode] >= 200
        assert infinite[mode] >= 20
    _verdict(3, f"{totals['positive']}+{totals['general']} instances, "
                f"{infinite['positive']}+{infinite['general']} infinite, "
                f"all equal to the oracle, {wall:.1f}s")


def test_criterion_4_worked_example():
    want_f = set(range(17)) | set(range(22, 29)) | set(range(48, 53)) | {100}
    assert f_set(100, 4) == want_f
    want_levels = ((100, 100), (48, 52), (22, 28), (9, 16), (2, 10),
                   (1, 7), (1, 6), (1, 5))
    assert level_plan(100, 4) == want_levels
    _verdict(4, "f_set(100,4) and level_plan(100,4) match bit-exact")


def test_criterion_5_kernel_equivalence(monkeypatch):
    start = time.monotonic()
    kernels = ("numpy", "schoolbook")
    minplus_trials = 10_000
    level_trials = 10_000
    for kernel in kernels:
        # the same trials for every kernel
        gen = np.random.default_rng(11)
        for _ in range(minplus_trials):
            l = int(gen.integers(1, 33))
            m = int(gen.integers(1, 33))
            r = int(gen.integers(1, 33))
            a = rand_dist_matrix(gen, l, m, bound=16, inf_frac=0.25)
            b = rand_dist_matrix(gen, m, r, bound=16, inf_frac=0.25)
            assert np.array_equal(dist_product_fast(a, b, kernel=kernel),
                                  dist_product_naive(a, b)), kernel

        # a level step against the split union of its nested family
        for t in range(level_trials):
            if t % 100 == 99:
                n, s = int(gen.integers(9, 17)), int(gen.integers(1, 9))
            else:
                n, s = int(gen.integers(1, 9)), int(gen.integers(1, 7))
            coeffs = nested_coeffs(gen, n, s, 0.6)
            t_lo = int(gen.integers(2, 9))
            got = level_step_square(coeffs, t_lo, kernel)
            assert np.array_equal(got, poly_square_direct(coeffs)), kernel

    strassen_trials = 1_000
    for t in range(strassen_trials):
        hi = 17 if t < 800 else 33
        l = int(gen.integers(1, hi))
        m = int(gen.integers(1, hi))
        r = int(gen.integers(1, hi))
        a = gen.integers(-10 ** 6, 10 ** 6, size=(l, m)).astype(object)
        b = gen.integers(-10 ** 6, 10 ** 6, size=(m, r)).astype(object)
        if t % 50 == 0:
            a = a * (1 << 120)
            b = b * (1 << 131)
        monkeypatch.setattr(matrices, "STRASSEN_CUTOFF", (2, 4, 8)[t % 3])
        school = ring_matmul(a, b, kernel="schoolbook")
        stras = ring_matmul(a, b, kernel="strassen")
        assert np.array_equal(school, stras)

    wall = time.monotonic() - start
    _verdict(5, f"{minplus_trials} min-plus and {level_trials} level-step "
                f"trials per kernel ({', '.join(kernels)}), {strassen_trials} "
                f"Strassen trials, zero mismatches, {wall:.1f}s")


def test_criterion_6_component_lemmas():
    start = time.monotonic()
    instances = 100
    window_pairs_seen = 0
    levels_checked = 0
    for i in range(instances):
        n = 8 + i % 7
        m_bound = 1 + i % 3
        density = 0.35 + 0.1 * (i % 2)
        g = mixed_graph(n, density, m_bound, seed=7000 + i)
        w = to_matrix(g)
        dist = floyd_warshall(w)
        counts = min_edge_counts(w, dist)
        cfg = RunConfig(seed=i)
        h = johnson_potentials(g)
        run = prepare_general(g, cfg, Rng(9000 + i), h)
        for (u, v, wt) in g.edges:
            assert wt + int(h[u - 1]) - int(h[v - 1]) >= 0

        fin = is_finite(dist)
        # at these sizes the hitting set is capped and prepare_general
        # builds no levels; build them from its streams to check the lemmas
        levels = schedule_levels(g, cfg, Rng(9000 + i))
        levels_checked += len(levels)
        for lev, pdm, est in levels:
            assert check_rpdm_property1(pdm, dist, counts) == []
            assert check_rpdm_property2(pdm, dist, counts, w) == []
            band = fin & (counts >= lev.t / 2.0) & (counts < lev.t)
            if not band.any():
                continue
            got = est.delta[band]
            want = dist[band]
            assert (got < INF).all()
            assert (got >= want).all()
            assert (got <= want + 2 * lev.k).all()

        ds = run.delta_star
        k_margin = run.schedule.K
        assert (ds[fin] >= dist[fin]).all()
        assert (ds[fin] <= dist[fin] + k_margin).all()
        assert (ds[~fin] >= INF).all()

        for d in _percentile_ds(dist)[:3]:
            rep = classify_threshold(run, d, cfg)
            assert np.array_equal(rep.reported, brute_threshold(dist, d))
            win = (ds > d) & (ds <= d + k_margin)
            # a capped run runs no window square: far.delta holds the
            # window pairs exactly
            assert rep.window_exact is None
            assert (run.far.delta[win] < INF).all()
            assert np.array_equal(run.far.delta[win], dist[win])
            window_pairs_seen += int(win.sum())
            near = fin & (dist > d) & (dist <= d + k_margin)
            for lev, pdm, _ in levels:
                t = target_distances(pdm, d, k_margin)
                assert (t[fin] >= dist[fin]).all()
                band = near & (counts >= lev.t / 2.0) & (counts < lev.t)
                assert np.array_equal(t[band], dist[band])
    assert levels_checked > 0
    wall = time.monotonic() - start
    _verdict(6, f"{instances} capped-sample instances, properties 1+2, "
                f"additive and target_distances band bounds on "
                f"{levels_checked} levels, window bounds hold, {window_pairs_seen} "
                f"uncertainty pairs resolved exactly, Johnson reweighting "
                f"nonnegative, {wall:.1f}s")


def _plan_member_count(levels, d: int, m_bound: int) -> int:
    """|F(d,M)| from level_plan(d, M): merged interval lengths plus the
    primal block."""
    if d <= m_bound + 1:
        return d + 1
    spans = sorted(levels)
    spans.append((0, m_bound + 1))
    spans.sort()
    total = 0
    cur_lo, cur_hi = spans[0]
    for lo, hi in spans[1:]:
        if lo > cur_hi + 1:
            total += cur_hi - cur_lo + 1
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    total += cur_hi - cur_lo + 1
    return total


def test_criterion_7_structural_index_sets():
    start = time.monotonic()
    # spot-check that the plan's merged intervals are exactly the
    # recursive closure, so the exhaustive sweep below can use plan sizes
    for m_bound in range(1, 9):
        for d in range(0, 301):
            levels = level_plan(d, m_bound)
            members = set(range(min(d, m_bound + 1) + 1))
            for lo, hi in levels:
                members.update(range(lo, hi + 1))
            assert members == f_set(d, m_bound), (d, m_bound)
            assert len(members) == _plan_member_count(levels, d, m_bound)

    worst_ratio = 0.0
    worst_at = None
    checked = 0
    for m_bound in range(1, 9):
        for d in range(0, 10_001):
            levels = level_plan(d, m_bound)
            for j in range(len(levels) - 1):
                lo, hi = levels[j]
                nlo, nhi = levels[j + 1]
                assert hi - lo + 1 <= 2 * m_bound + 3
                k_min = max(lo, m_bound + 2)
                # the split index range [floor((k-M)/2), ceil((k+M)/2)] is
                # monotone in k, so its extremes over k in [k_min, hi]
                # bound every interior k as well; d <= 1000 is also swept
                # index by index below
                assert (k_min - m_bound) // 2 >= nlo
                assert (hi + m_bound + 1) // 2 <= nhi
                if d <= 1000:
                    for k in range(k_min, hi + 1):
                        i_lo = (k - m_bound) // 2
                        i_hi = (k + m_bound + 1) // 2
                        assert i_lo >= nlo and i_hi <= nhi
            ratio = _plan_member_count(levels, d, m_bound) / (m_bound * math.log2(d + 2))
            if ratio > worst_ratio:
                worst_ratio, worst_at = ratio, (d, m_bound)
            checked += 1
    wall = time.monotonic() - start
    # merged intervals are <= 2M+3 wide over ~log2 d levels, so the ratio
    # stays a small constant; measured maximum is near 2
    assert worst_ratio <= 4.0
    _verdict(7, f"{checked} (d, M) plans, split indices contained, "
                f"|F(d,M)| <= C * M * log2(d+2) with measured C = "
                f"{worst_ratio:.3f} at (d, M) = {worst_at}, {wall:.1f}s")


def _run_cli(args: list, cwd: str) -> bytes:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TAPSP_")}
    proc = subprocess.run([sys.executable, "-m", "tapsp.cli"] + args,
                          capture_output=True, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_8_cli_determinism(tmp_path):
    start = time.monotonic()
    pos = tmp_path / "pos.gr"
    pos.write_text(write_graph(sc_positive_graph(12, 0.4, 4, seed=1)))
    mix = tmp_path / "mix.gr"
    mix.write_text(write_graph(sc_mixed_graph(12, 0.4, 3, seed=2)))
    cwd = str(tmp_path)

    fixed = [
        ["gen", "-n", "12", "-p", "0.4", "--wmin", "1", "--wmax", "5",
         "--seed", "3"],
        ["oracle", str(pos), "-d", "6", "--pairs", "--json"],
        ["oracle", str(mix)],
    ]
    for args in fixed:
        assert _run_cli(args, cwd) == _run_cli(args, cwd)

    threaded = [
        ["threshold", str(pos), "-d", "9", "--pairs", "--json", "--seed", "5"],
        ["threshold", str(mix), "-d", "4", "--trace", "--json", "--seed", "5"],
        ["diameter", str(mix), "--trace", "--json", "--seed", "5"],
    ]
    for args in threaded:
        outs = [_run_cli(args + ["--threads", t], cwd)
                for t in ("1", "4", "1", "4")]
        assert outs[0] == outs[1] == outs[2] == outs[3]

    bench = ["bench", "--ns", "8,16", "--ms", "2", "--densities", "0.5",
             "--algos", "oracle,naive_product,threshold", "--seed", "2"]
    # wall_s is a measured time; every other column must be byte-stable
    rows = [strip_wall_column(_run_cli(bench + ["--threads", t], cwd).decode())
            for t in ("1", "4", "1", "4")]
    assert rows[0] == rows[1] == rows[2] == rows[3]

    wall = time.monotonic() - start
    _verdict(8, f"gen/threshold/diameter/oracle byte-identical across reruns "
                f"and thread counts, bench stable outside wall_s, {wall:.1f}s")
