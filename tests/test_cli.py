import argparse
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import strip_wall_column
from tapsp.cli import _add_common, _config, build_parser, main
from tapsp.config import ENV_FIELDS, ENV_PREFIX, KERNELS, RunConfig, config_from_env
from tapsp.graphs import (gen_mixed_ncf, gen_random, make_graph, parse_graph,
                          to_matrix, write_graph)
from tapsp.matrices import is_finite
from tapsp.oracle import floyd_warshall

# the package re-exports the function under the module's name
dia_mod = importlib.import_module("tapsp.diameter")
tg_mod = importlib.import_module("tapsp.threshold_general")


def _gen_file(tmp_path, name, n, p, wmin, wmax, seed, no_neg_cycle=False):
    path = tmp_path / name
    argv = ["gen", "-n", str(n), "-p", str(p), "--wmin", str(wmin),
            "--wmax", str(wmax), "--seed", str(seed), "-o", str(path)]
    if no_neg_cycle:
        argv.append("--no-neg-cycle")
    assert main(argv) == 0
    return path


def _json_out(capsys):
    out = capsys.readouterr().out
    return json.loads(out), out


def test_gen_is_deterministic(tmp_path):
    a = _gen_file(tmp_path, "a.gr", 10, 0.4, 1, 5, seed=7)
    b = _gen_file(tmp_path, "b.gr", 10, 0.4, 1, 5, seed=7)
    assert a.read_bytes() == b.read_bytes()


def test_gen_complete_unit_digraph(tmp_path):
    path = _gen_file(tmp_path, "k5.gr", 5, 1.0, 1, 1, seed=0)
    lines = path.read_text().splitlines()
    arcs = [ln for ln in lines if ln.startswith("a ")]
    assert len(arcs) == 5 * 4


def test_threshold_diagonal_at_zero(tmp_path, capsys):
    path = _gen_file(tmp_path, "g.gr", 8, 0.4, 1, 4, seed=1)
    assert main(["threshold", str(path), "-d", "0", "--json"]) == 0
    payload, _ = _json_out(capsys)
    assert payload["count"] == 8
    assert payload["mode"] == "positive"


def test_threshold_negative_d_positive_graph(tmp_path, capsys):
    path = _gen_file(tmp_path, "g.gr", 8, 0.4, 1, 4, seed=1)
    assert main(["threshold", str(path), "-d", "-1", "--json"]) == 0
    payload, _ = _json_out(capsys)
    assert payload["count"] == 0


def test_threshold_large_d_counts_reachable_pairs(tmp_path, capsys):
    path = _gen_file(tmp_path, "g.gr", 9, 0.3, 1, 3, seed=4)
    g = parse_graph(path.read_text())
    reachable = int(is_finite(floyd_warshall(to_matrix(g))).sum())
    d = g.n * g.M + 1
    assert main(["threshold", str(path), "-d", str(d), "--json"]) == 0
    payload, _ = _json_out(capsys)
    assert payload["count"] == reachable


@pytest.mark.parametrize("d", [str(1 << 60), str(10 ** 30)])
def test_huge_d_counts_only_reachable_pairs(tmp_path, capsys, d):
    # 1 -> 2 -> 3: six pairs are reachable; INF itself is no distance
    path = tmp_path / "p.gr"
    path.write_text(write_graph(make_graph(3, [(1, 2, 1), (2, 3, 1)])))
    for mode in ("positive", "general"):
        assert main(["threshold", str(path), "-d", d, "--mode", mode,
                     "--json"]) == 0
        payload, _ = _json_out(capsys)
        assert payload["count"] == 6, mode
        assert payload["stats"]["edge_case"] == "closure", mode
    assert main(["oracle", str(path), "-d", d, "--json"]) == 0
    payload, _ = _json_out(capsys)
    assert payload["count"] == 6


def test_threshold_json_and_text_agree(tmp_path, capsys):
    path = _gen_file(tmp_path, "g.gr", 8, 0.4, 1, 4, seed=2)
    assert main(["threshold", str(path), "-d", "5", "--json"]) == 0
    payload, _ = _json_out(capsys)
    assert main(["threshold", str(path), "-d", "5"]) == 0
    text = capsys.readouterr().out
    count_line = [ln for ln in text.splitlines() if ln.startswith("count:")][0]
    assert int(count_line.split()[1]) == payload["count"]


def test_threshold_pairs_listing_is_one_based(tmp_path, capsys):
    g = make_graph(3, [(1, 2, 2), (2, 3, 2)])
    path = tmp_path / "p.gr"
    path.write_text(write_graph(g))
    assert main(["threshold", str(path), "-d", "2", "--pairs", "--json"]) == 0
    payload, _ = _json_out(capsys)
    pairs = {tuple(p) for p in payload["pairs"]}
    assert pairs == {(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)}


def test_threshold_general_mode_forced(tmp_path, capsys):
    path = _gen_file(tmp_path, "g.gr", 8, 0.4, 1, 4, seed=2)
    assert main(["threshold", str(path), "-d", "5", "--mode", "general",
                 "--json"]) == 0
    forced, _ = _json_out(capsys)
    assert forced["mode"] == "general"
    assert main(["threshold", str(path), "-d", "5", "--json"]) == 0
    auto, _ = _json_out(capsys)
    assert forced["count"] == auto["count"]


def test_threshold_verify_passes(tmp_path, capsys):
    path = _gen_file(tmp_path, "g.gr", 8, 0.5, -2, 3, seed=5, no_neg_cycle=True)
    assert main(["threshold", str(path), "-d", "2", "--verify", "--json"]) == 0
    payload, _ = _json_out(capsys)
    assert payload["mode"] == "general"
    assert payload["stats"]["attempts"] >= 1


def test_verify_mismatch_exits_2(tmp_path, monkeypatch, capsys):
    # a positive graph: the check is threshold()'s own, not the general path's
    path = _gen_file(tmp_path, "g.gr", 6, 0.6, 1, 3, seed=1)
    monkeypatch.setattr(tg_mod, "brute_threshold",
                        lambda dist, d: np.zeros(dist.shape, dtype=bool))
    assert main(["threshold", str(path), "-d", "3", "--verify"]) == 2
    err = capsys.readouterr().err
    assert "verify mismatch" in err


def test_diameter_verify_mismatch_exits_2(tmp_path, monkeypatch, capsys):
    path = _gen_file(tmp_path, "g.gr", 6, 1.0, 1, 3, seed=3)
    oracle = dia_mod.floyd_warshall
    monkeypatch.setattr(dia_mod, "floyd_warshall", lambda w: oracle(w) + 1)
    assert main(["diameter", str(path)]) == 0
    capsys.readouterr()
    assert main(["diameter", str(path), "--verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tapsp: verify mismatch: diameter ")


def test_byte_identical_output_across_runs_and_threads(tmp_path, capsys):
    from helpers import sc_mixed_graph
    path = tmp_path / "g.gr"
    path.write_text(write_graph(sc_mixed_graph(10, 0.4, 3, seed=9)))
    outs = []
    for threads in ("1", "4", "1"):
        assert main(["threshold", str(path), "-d", "3", "--seed", "11",
                     "--threads", threads, "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


def test_output_independent_of_blas_threads(tmp_path):
    # bounded products are BLAS matrix products, exact in any summation
    # order, so the BLAS thread count may change timing but never output.
    # d = 60 lies past the primal cap at n = 128 (56), so levels run, and
    # their windows (width <= 2M + 3 = 51) stay on the float route
    path = tmp_path / "g.gr"
    path.write_text(write_graph(gen_random(128, 0.05, 1, 24, seed=35)))
    commands = (["threshold", str(path), "-d", "60", "--json", "--pairs"],
                ["diameter", str(path), "--json"])
    outs = {}
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if not k.startswith("TAPSP_")}
        env["OPENBLAS_NUM_THREADS"] = threads
        outs[threads] = [
            subprocess.run([sys.executable, "-m", "tapsp.cli"] + args,
                           capture_output=True, env=env, check=True).stdout
            for args in commands]
    assert outs["1"] == outs["2"]
    report, diam = (json.loads(out) for out in outs["1"])
    assert report["stats"]["levels"] > 0 and 0 < report["count"] < 128 * 128
    assert diam["diameter"] != "inf" and diam["probes"] > 0


def test_diameter_text_and_verify(tmp_path, capsys):
    path = _gen_file(tmp_path, "g.gr", 6, 1.0, 1, 3, seed=3)
    assert main(["diameter", str(path), "--verify", "--json"]) == 0
    payload, _ = _json_out(capsys)
    g_dist = floyd_warshall(to_matrix(parse_graph(path.read_text())))
    assert payload["diameter"] == str(int(g_dist.max()))
    assert payload["probes"] >= 1


def test_diameter_disconnected_prints_inf(tmp_path, capsys):
    g = make_graph(3, [(1, 2, 1)])
    path = tmp_path / "d.gr"
    path.write_text(write_graph(g))
    assert main(["diameter", str(path), "--json"]) == 0
    payload, _ = _json_out(capsys)
    assert payload["diameter"] == "inf"
    assert payload["probes"] == 0


def test_diameter_trace_lines(tmp_path, capsys):
    path = _gen_file(tmp_path, "g.gr", 6, 1.0, 1, 3, seed=3)
    assert main(["diameter", str(path), "--trace"]) == 0
    out = capsys.readouterr().out
    assert "search range:" in out
    assert "probe: d=" in out


def test_diameter_capped_general_trace_and_json(tmp_path, capsys):
    # the hitting set is every vertex at n = 12, so the answer comes from
    # the exact distance matrix: no search range to narrow, no probes
    from helpers import sc_mixed_graph
    g = sc_mixed_graph(12, 0.4, 3, seed=2)
    dist = floyd_warshall(to_matrix(g))
    value = int(dist.max())
    witnesses = [[int(u) + 1, int(v) + 1] for u, v in np.argwhere(dist == value)]
    path = tmp_path / "mix.gr"
    path.write_text(write_graph(g))
    assert main(["diameter", str(path), "--trace"]) == 0
    assert capsys.readouterr().out.splitlines() == (
        [f"n: {g.n}", f"M: {g.M}", f"diameter: {value}"]
        + [f"witness: {u} {v}" for u, v in witnesses]
        + [f"search range: [{value}, {value}]"])
    assert main(["diameter", str(path), "--json"]) == 0
    payload, _ = _json_out(capsys)
    assert payload["diameter"] == str(value)
    assert payload["witnesses"] == witnesses
    assert payload["probes"] == 0


def test_oracle_matrix_and_threshold(tmp_path, capsys):
    g = make_graph(3, [(1, 2, 2), (2, 3, -1)])
    path = tmp_path / "o.gr"
    path.write_text(write_graph(g))
    assert main(["oracle", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["0", "2", "1"]
    assert rows[1].split() == ["inf", "0", "-1"]
    assert main(["oracle", str(path), "-d", "1", "--json"]) == 0
    payload, _ = _json_out(capsys)
    assert payload["count"] == 5


def test_bench_csv_shape_and_op_determinism(capsys):
    argv = ["bench", "--ns", "4,8", "--ms", "2", "--densities", "0.5",
            "--algos", "oracle,naive_product", "--seed", "0"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out

    def strip_wall(csv_text):
        rows = []
        for line in csv_text.splitlines():
            cols = line.split(",")
            rows.append(cols[:5] + cols[6:])
        return rows

    a, b = strip_wall(first), strip_wall(second)
    assert a == b
    assert a[0] == ["n", "M", "density", "algo", "seed",
                    "ring_mults", "minplus_relaxations", "bool_ops"]
    assert len(a) == 1 + 2 * 2
    naive_rows = [r for r in a[1:] if r[3] == "naive_product"]
    for row in naive_rows:
        n = int(row[0])
        assert int(row[6]) == n ** 3


def test_bench_threshold_op_counts_default_kernel(capsys):
    # numpy relaxes every product directly; the encoded kernels count ring
    # multiplications instead. The default d = n M / 4 (128 and 256) lies
    # past the primal cap (102 at n = 8, 85 at n = 16), so levels run
    argv = ["bench", "--ns", "8,16", "--ms", "64", "--densities", "0.5",
            "--algos", "threshold", "--seed", "1"]
    runs = []
    for _ in range(2):
        assert main(argv) == 0
        runs.append([ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]])
    assert len(runs[0]) == 2
    for first, second in zip(*runs):
        assert first[:5] + first[6:] == second[:5] + second[6:]
        ring_mults, relaxations = int(first[6]), int(first[7])
        assert ring_mults == 0 and relaxations > 0, first
    assert main(argv + ["--kernel", "schoolbook"]) == 0
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 2
    for row in rows:
        assert int(row[6]) > 0, row


def test_bench_positive_row_counts_primal_squarings(capsys):
    # d up to the primal cap (85 at n = 16) reads the primal distances
    # alone, built at max(M + 1, d): ceil(log2(min(that, n - 1))) float
    # window squares of n**3 relaxations each, whatever the kernel. At d = 3
    # that is 2 squares, at d = 20 (past M + 1, within the cap and n M) 4
    for d, squares in ((3, 2), (20, 4)):
        argv = ["bench", "--ns", "16", "--ms", "2", "--densities", "0.5",
                "--algos", "threshold", "-d", str(d), "--seed", "1"]
        for kernel in KERNELS:
            assert main(argv + ["--kernel", kernel]) == 0
            rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
            assert len(rows) == 1
            assert int(rows[0][7]) == squares * 16 ** 3, (d, kernel)
            assert int(rows[0][6]) == int(rows[0][8]) == 0, (d, kernel)


def test_output_identical_across_kernels(tmp_path, capsys):
    from helpers import sc_mixed_graph, sc_positive_graph
    # the positive graph's d = 100 and its diameter (139) lie past the
    # primal cap at n = 12 (85), so level steps run on each kernel
    pos = tmp_path / "pos.gr"
    pos.write_text(write_graph(sc_positive_graph(12, 0.05, 24, seed=1)))
    mix = tmp_path / "mix.gr"
    mix.write_text(write_graph(sc_mixed_graph(12, 0.4, 3, seed=2)))
    commands = [
        ["threshold", str(pos), "-d", "100", "--pairs", "--json", "--seed", "5"],
        ["threshold", str(mix), "-d", "4", "--pairs", "--trace", "--seed", "5"],
        ["diameter", str(pos), "--trace", "--json", "--seed", "5"],
        ["diameter", str(mix), "--trace", "--seed", "5"],
        ["oracle", str(mix), "-d", "3", "--pairs"],
    ]
    for args in commands:
        outs = []
        for kernel in ("numpy", "schoolbook", "strassen"):
            assert main(args + ["--kernel", kernel]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2], args
    assert main(commands[0]) == 0
    assert json.loads(capsys.readouterr().out)["stats"]["levels"] > 0


def test_verify_above_bound_says_so_on_every_path(tmp_path, capsys):
    n = 129
    path = tmp_path / "ring.gr"
    path.write_text(write_graph(make_graph(n, [(u, u % n + 1, 1)
                                               for u in range(1, n + 1)])))
    commands = [
        ["threshold", str(path), "-d", "40"],
        ["threshold", str(path), "-d", "40", "--mode", "general"],
        ["diameter", str(path)],
        ["diameter", str(path), "--mode", "general"],
    ]
    for args in commands:
        assert main(args) == 0
        plain = capsys.readouterr()
        assert main(args + ["--verify"]) == 0
        checked = capsys.readouterr()
        assert plain.err == ""
        assert checked.err == f"verify skipped: n={n} above bound 128\n", args
        assert checked.out == plain.out, args


@pytest.mark.parametrize("weight", [2**60, 2**63])
def test_weight_past_the_headroom_exits_3(tmp_path, capsys, weight):
    path = tmp_path / "big.gr"
    path.write_text(f"p sp 3 3\na 1 2 {weight}\na 2 3 1\na 3 1 1\n")
    for args in (["oracle", str(path)], ["threshold", str(path), "-d", "5"],
                 ["diameter", str(path)]):
        assert main(args) == 3, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tapsp: error: n*M = "), args


def test_graph_too_large_to_allocate_exits_3(tmp_path, capsys):
    # the parser accepts a billion vertices with no arc, and each command
    # then asks numpy for an n x n matrix (an identity of 6.94 EiB, a
    # reachability matrix of 3.47 EiB), larger than any address space, so
    # the request fails at once. It is an input error, not a crash.
    # --mode general is left out: its O(n) arrays of 8 GB each are
    # allocated one by one and can exhaust the machine first
    path = tmp_path / "huge.gr"
    path.write_text("p sp 1000000000 0\n")
    for args in (["threshold", str(path), "-d", "1"], ["diameter", str(path)]):
        assert main(args) == 3, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tapsp: error: "), args
        assert captured.err.count("\n") == 1, args


def test_weights_within_the_headroom_run(tmp_path, capsys):
    path = tmp_path / "small.gr"
    path.write_text("p sp 3 3\na 1 2 8\na 2 3 1\na 3 1 1\n")
    assert main(["oracle", str(path)]) == 0
    assert capsys.readouterr().out == "0 8 9\n2 0 1\n1 9 0\n"
    assert main(["threshold", str(path), "-d", "8", "--verify"]) == 0
    assert "count: 7\n" in capsys.readouterr().out
    assert main(["diameter", str(path), "--verify"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        "diameter: 9", "witness: 1 3", "witness: 3 2"]


def test_bench_general_rows_below_wmin_one(capsys):
    argv = ["bench", "--ns", "16,32", "--ms", "2", "--densities", "0.2",
            "--algos", "threshold,diameter", "--wmin", "-2", "--seed", "3"]
    assert main(argv) == 0
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[0], r[3]) for r in rows] == [
        ("16", "threshold"), ("16", "diameter"),
        ("32", "threshold"), ("32", "diameter")]


def test_bench_capped_general_row_counts_window_squares(capsys):
    # a capped general threshold call is at most ceil(log2(n - 1)) = 4
    # window squares of the reweighted matrix, n**3 relaxations each,
    # whatever the kernel, and no product. Here some pair has no shortest
    # path of fewer than 9 arcs, so all four squares run; every pair is
    # reachable within the window, so no closure follows
    argv = ["bench", "--ns", "16", "--ms", "2", "--densities", "0.2",
            "--algos", "threshold", "--wmin", "-2", "--seed", "3"]
    for kernel in KERNELS:
        assert main(argv + ["--kernel", kernel]) == 0
        rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 1
        assert int(rows[0][7]) == 4 * 16 ** 3, kernel
        assert int(rows[0][6]) == int(rows[0][8]) == 0, kernel


def _bench_rows(argv, capsys) -> list:
    # every column but wall_s
    assert main(argv) == 0
    return strip_wall_column(capsys.readouterr().out)[1:]


@pytest.mark.parametrize("wmin", [[], ["--wmin", "-2"]])
def test_bench_verify_leaves_the_counts_alone(capsys, wmin):
    # the oracle counts no operations, so --verify moves only wall_s
    argv = ["bench", "--ns", "8,32", "--ms", "3", "--densities", "0.3",
            "--algos", "threshold,diameter", "--seed", "2"] + wmin
    rows = _bench_rows(argv, capsys)
    assert len(rows) == 4
    assert _bench_rows(argv + ["--verify"], capsys) == rows


def test_bench_verify_above_bound_says_so_once_per_n(capsys):
    # 129 is above the bound: one stderr line for its threshold and
    # diameter rows together, none for n = 8 or for an oracle-only grid
    argv = ["bench", "--ns", "8,129", "--ms", "2", "--densities", "0.05",
            "--algos", "oracle,threshold,diameter", "--seed", "1"]
    rows = _bench_rows(argv, capsys)
    assert main(argv + ["--verify"]) == 0
    checked = capsys.readouterr()
    assert checked.err == "verify skipped: n=129 above bound 128\n"
    lines = checked.out.splitlines()[1:]
    assert [c[:5] + c[6:] for c in (ln.split(",") for ln in lines)] == rows
    assert main(argv[:-3] + ["oracle", "--seed", "1", "--verify"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("algo,module,name,corrupt", [
    ("threshold", tg_mod, "brute_threshold", np.logical_not),
    ("diameter", dia_mod, "floyd_warshall", lambda dist: dist + 1)])
def test_bench_verify_checks_positive_and_diameter_rows(monkeypatch, capsys, algo,
                                                        module, name, corrupt):
    oracle = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: corrupt(oracle(*args)))
    argv = ["bench", "--ns", "8", "--ms", "3", "--densities", "0.5",
            "--algos", algo, "--seed", "2"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--verify"]) == 2
    assert "verify mismatch" in capsys.readouterr().err


def test_encoded_power_table_past_the_limit_exits_3(tmp_path, capsys):
    path = tmp_path / "wide.gr"
    path.write_text("p sp 3 2\na 1 2 1000000\na 2 3 1\n")
    args = ["threshold", str(path), "-d", "1000002"]
    for kernel in ("schoolbook", "strassen"):
        assert main(args + ["--kernel", kernel]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "power table" in captured.err, kernel
    assert main(args + ["--kernel", "numpy", "--verify", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "count: 6\n" in out and "stat levels: 2\n" in out


def test_bench_unknown_algo_exits_3(capsys):
    assert main(["bench", "--algos", "bogus"]) == 3
    assert "unknown algo" in capsys.readouterr().err


def test_missing_file_exits_3(capsys):
    assert main(["threshold", "/no/such/file.gr", "-d", "1"]) == 3


def test_malformed_graph_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.gr"
    path.write_text("garbage here\n")
    assert main(["threshold", str(path), "-d", "1"]) == 3


def test_negative_cycle_exits_4(tmp_path, capsys):
    g = make_graph(2, [(1, 2, -2), (2, 1, 1)])
    path = tmp_path / "neg.gr"
    path.write_text(write_graph(g))
    assert main(["threshold", str(path), "-d", "0"]) == 4
    assert "negative cycle" in capsys.readouterr().err
    assert main(["diameter", str(path)]) == 4


def test_negative_cycle_stderr_names_the_error_once(tmp_path, capsys):
    path = tmp_path / "neg.gr"
    path.write_text(write_graph(make_graph(2, [(1, 2, -2), (2, 1, 1)])))
    for argv, line in ((["threshold", str(path), "-d", "0"],
                        "tapsp: negative cycle: 1 -> 2\n"),
                       (["diameter", str(path)], "tapsp: negative cycle: 1 -> 2\n"),
                       (["oracle", str(path)], "tapsp: negative cycle reachable\n")):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", line), argv[0]


def test_negative_cycle_beside_an_unreachable_pair_exits_4(tmp_path, capsys):
    # distances are undefined once a negative cycle exists, so the answer
    # is exit 4 whether or not --verify runs the oracle
    path = tmp_path / "neg.gr"
    path.write_text(write_graph(make_graph(3, [(1, 2, -2), (2, 1, 1)])))
    for argv in (["diameter", str(path)], ["diameter", str(path), "--verify"],
                 ["threshold", str(path), "-d", "1"],
                 ["threshold", str(path), "-d", "1", "--verify"]):
        assert main(argv) == 4, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "tapsp: negative cycle: 1 -> 2\n"), argv


@st.composite
def _cli_graphs(draw):
    n = draw(st.integers(1, 8))
    m_bound = draw(st.integers(1, 4))
    density = draw(st.sampled_from((0.2, 0.5, 0.9)))
    seed = draw(st.integers(0, 10 ** 6))
    if draw(st.booleans()):
        g = gen_random(n, density, 1, m_bound, seed)
    else:
        g = gen_mixed_ncf(n, density, m_bound, seed, backbone=draw(st.booleans()))
    span = g.n * g.M
    return g, draw(st.integers(-span - 2, span + 2))


def _run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(_cli_graphs())
def test_cli_json_matches_the_oracle(case):
    # tempfile, not tmp_path: Hypothesis rejects function-scoped fixtures
    g, d = case
    dist = floyd_warshall(to_matrix(g))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.gr")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(write_graph(g))
        thr = json.loads(_run_cli(["threshold", path, "-d", str(d), "--json",
                                   "--pairs"]))
        ora = json.loads(_run_cli(["oracle", path, "-d", str(d), "--json",
                                   "--pairs"]))
        text = _run_cli(["threshold", path, "-d", str(d), "--pairs"])
        dia = json.loads(_run_cli(["diameter", path, "--json"]))
    assert thr["count"] == len(thr["pairs"])
    assert thr["pairs"] == ora["pairs"]
    listed = [[int(tok) for tok in ln.split()[1:]]
              for ln in text.splitlines() if ln.startswith("pair: ")]
    assert listed == thr["pairs"]
    fin = is_finite(dist)
    if fin.all():
        want = int(dist.max())
        wit = np.argwhere(dist == want) + 1
        assert dia["diameter"] == str(want)
    else:
        wit = np.argwhere(~fin) + 1
        assert dia["diameter"] == "inf"
    assert dia["witnesses"] == wit.tolist()


def test_positive_mode_on_mixed_graph_exits_3(tmp_path, capsys):
    g = make_graph(2, [(1, 2, -1)])
    path = tmp_path / "m.gr"
    path.write_text(write_graph(g))
    assert main(["threshold", str(path), "-d", "0", "--mode", "positive"]) == 3


def test_tapsp_settings_parse_and_flags_win(monkeypatch):
    for name, raw in (("SEED", "5"), ("KERNEL", "schoolbook"), ("MODE", "general"),
                      ("OMEGA", "2.5"), ("VERIFY", "Yes")):
        monkeypatch.setenv("TAPSP_" + name, raw)
    from_env = RunConfig(seed=5, kernel="schoolbook", mode="general", omega=2.5,
                         verify=True)
    assert config_from_env() == from_env
    parser = build_parser()
    assert _config(parser.parse_args(["diameter", "g.gr"])) == from_env
    args = parser.parse_args(["diameter", "g.gr", "--seed", "7", "--kernel", "numpy",
                              "--mode", "auto", "--omega", "3", "--json", "--trace"])
    assert _config(args) == RunConfig(seed=7, kernel="numpy", mode="auto", omega=3.0,
                                      verify=True)
    assert args.output == "json" and args.trace
    for raw in ("0", "false", "No", " off "):
        monkeypatch.setenv("TAPSP_VERIFY", raw)
        assert not config_from_env().verify


def test_every_common_flag_sets_a_field_or_is_the_clis_own(monkeypatch):
    for name in ENV_FIELDS:
        monkeypatch.delenv(ENV_PREFIX + name.upper(), raising=False)
    parser = argparse.ArgumentParser()
    _add_common(parser)
    dests = set(vars(parser.parse_args([])))
    names = {f.name for f in fields(RunConfig)}
    assert dests - names == {"output", "trace", "threads"}
    # every field but verify_bound is set by a flag or a TAPSP_ variable
    assert names - dests - set(ENV_FIELDS) == {"verify_bound"}
    args = parser.parse_args(["--omega", "2.5", "--seed", "7", "--kernel", "strassen",
                              "--mode", "general", "--verify", "--force-beta", "0.5",
                              "--json", "--trace", "--threads", "2"])
    cfg, default = _config(args), RunConfig()
    assert {n for n in names if getattr(cfg, n) != getattr(default, n)} == dests & names


@pytest.mark.parametrize("name,raw,message", [
    ("SEED", "x", "invalid literal for int()"),
    ("OMEGA", "fast", "could not convert string to float"),
    ("OMEGA", "9", "omega must lie in [2, 3]"),
    ("OMEGA", "nan", "omega must lie in [2, 3]"),
    ("KERNEL", "gpu", "kernel must be one of"),
    ("MODE", "exact", "mode must be one of"),
    ("VERIFY", "ture", "bad boolean 'ture'"),
])
def test_bad_tapsp_setting_exits_3(tmp_path, monkeypatch, capsys, name, raw, message):
    path = tmp_path / "g.gr"
    path.write_text(write_graph(make_graph(2, [(1, 2, 1)])))
    monkeypatch.setenv("TAPSP_" + name, raw)
    # a bad variable is an error even where a flag overrides it
    assert main(["threshold", str(path), "-d", "1", "--seed", "1", "--kernel",
                 "numpy", "--mode", "auto", "--omega", "2"]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("arcs,flags,message", [
    ([(1, 2, 1), (2, 3, 2)], ["--omega", "7"], "omega must lie in [2, 3]"),
    ([(1, 2, 1), (2, 3, 2)], ["--omega", "nan"], "omega must lie in [2, 3]"),
    ([(1, 2, 1), (2, 3, 2)], ["--force-beta", "2"], "forced beta must lie in [0, 1]"),
    ([(1, 2, 1), (2, 3, 2)], ["--force-beta", "-0.5"], "forced beta must lie in [0, 1]"),
    # a forced beta skips compute_beta, the schedule's own omega check
    ([(1, 2, -1), (2, 3, 2), (3, 1, 1)], ["--force-beta", "0.5", "--omega", "7"],
     "omega must lie in [2, 3]"),
])
def test_out_of_range_setting_exits_3(tmp_path, capsys, arcs, flags, message):
    # the positive path builds no schedule, so only RunConfig can refuse
    path = tmp_path / "g.gr"
    path.write_text(write_graph(make_graph(3, arcs)))
    for cmd in (["threshold", str(path), "-d", "3"], ["diameter", str(path)]):
        assert main(cmd + flags) == 3
        assert message in capsys.readouterr().err


def test_threads_zero_exits_3(tmp_path, capsys):
    path = tmp_path / "g.gr"
    path.write_text(write_graph(make_graph(2, [(1, 2, 1)])))
    assert main(["threshold", str(path), "-d", "1", "--threads", "0"]) == 3
    assert capsys.readouterr().err == "tapsp: error: threads must be >= 1\n"


def test_usage_error_exits_3(tmp_path, capsys):
    path = tmp_path / "x.gr"
    path.write_text(write_graph(make_graph(2, [(1, 2, 1)])))
    with pytest.raises(SystemExit) as exc:
        main(["threshold", str(path)])
    assert exc.value.code == 3
    # an unknown flag is a usage error too
    with pytest.raises(SystemExit) as exc:
        main(["threshold", str(path), "-d", "1", "--force-levels", "2"])
    assert exc.value.code == 3


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "tapsp" in capsys.readouterr().out
