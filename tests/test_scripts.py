"""Smoke runs of the study scripts, so an API change that breaks one fails
here instead of at its next use."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["success_rate.py", "--trials", "1", "--ns", "16"],
    ["rpdm_stress.py", "--trials", "1", "-n", "24"],
    ["bench_sweep.py", "--ns", "8,16", "--algos", "oracle,threshold"],
    ["code_lines.py"],
])
def test_script_runs(argv):
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0])] + argv[1:],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_on_canned_results():
    # five pairs: the change is faster on four and ties one; its rate is
    # higher on three; its memory is 10% worse, past a 5% bound. The
    # summary reads names, directions and bounds from the metric list, and
    # a metric missing from one side of a pair leaves that pair out
    bench_pairs = _bench_pairs()
    end_to_end = [{"name": "solve_s_p50", "better": "lower", "bound": 0.15},
                  {"name": "solves_per_s", "better": "higher", "bound": 0.15},
                  {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
                  {"name": "setup_s", "better": "lower", "bound": 0.25}]
    parent = [1.0, 1.2, 1.1, 0.9, 1.4]
    change = [0.8, 1.2, 0.95, 0.7, 1.0]
    rate_p, rate_c = [10, 10, 10, 10, 10], [11, 9, 12, 13, 10]
    pairs = [({"solve_s_p50": p, "solves_per_s": rp, "peak_rss_mb": 30.0},
              {"solve_s_p50": c, "solves_per_s": rc, "peak_rss_mb": 33.0})
             for p, c, rp, rc in zip(parent, change, rate_p, rate_c)]
    pairs[2][1].pop("peak_rss_mb")
    rows = {r["name"]: r for r in bench_pairs.summarize(end_to_end, pairs)}
    assert set(rows) == {"solve_s_p50", "solves_per_s", "peak_rss_mb"}
    solve = rows["solve_s_p50"]
    assert (solve["parent_q1"], solve["parent_median"], solve["parent_q3"]) == \
        pytest.approx((1.0, 1.1, 1.2))
    assert solve["change_median"] == pytest.approx(0.95)
    assert solve["rel"] == pytest.approx(0.95 / 1.1 - 1)
    assert (solve["won"], solve["pairs"]) == (4, 5)
    # the medians lie 0.15 apart, the parent's quartiles 0.2: not beyond
    assert not solve["beyond_spread"] and not solve["past_bound"]
    rate = rows["solves_per_s"]
    assert (rate["won"], rate["change_median"]) == (3, 11)
    assert rate["beyond_spread"] and not rate["past_bound"]
    rss = rows["peak_rss_mb"]
    assert (rss["won"], rss["pairs"]) == (0, 4)
    assert rss["past_bound"] and rss["rel"] == pytest.approx(0.1)
    text = bench_pairs.format_rows(list(rows.values()))
    assert "WORSE PAST BOUND" in text and "4/5" in text


def test_bench_pairs_reads_the_benchmarks_metrics():
    # the metric names and directions come from BENCHMARK.json, read only
    spec = json.loads(_bench_pairs().BENCHMARK.read_text())
    assert {m["name"] for m in spec["end_to_end"]} >= {"solve_s_p50", "setup_s"}
    assert all(m["better"] in ("lower", "higher") for m in spec["end_to_end"])
