"""Paired benchmark runs of two checkouts, summarised per end-to-end metric.

Each pair runs `python3 perfbench/run.py --trace 0` once in each checkout,
both with the same seed (--seed plus the pair's index). The side that runs
first alternates from pair to pair, so a slow stretch of a shared host
does not land on one side. Each run's last line of standard output is its
JSON result.

For each end-to-end metric that BENCHMARK.json declares (read only, from
the checkout holding this script), the script prints the parent's median
and quartiles, the change's median and its relative change, the pairs
the change won, whether the two medians lie further apart than the
parent's quartile spread, and whether the change is worse than the
metric's bound. A run that exits non-zero or reports "correct": false is
flagged, and the script then exits 1.

Example:
    python3 scripts/bench_pairs.py ../parent . --workload general-threshold \\
        --pairs 10 --seconds 30
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One benchmark run in checkout: (metric values by name, problem or
    None). The values are empty when the run gave no result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {}, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not result["correct"]:
        return values, f"correct: false, {result['failed']} of {result['attempted']} calls failed"
    return values, None


def summarize(end_to_end: list, pairs: list) -> list:
    """One row per end-to-end metric ({"name", "better", "bound"} each, as
    BENCHMARK.json declares them) over pairs of (parent, change) metric
    dicts. A pair is won when the change is strictly better; a metric
    missing from either side of a pair leaves that pair out."""
    rows = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not both:
            continue
        parent = [p for p, _ in both]
        q1, med, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                       if len(parent) > 1 else parent * 3)
        change = statistics.median(c for _, c in both)
        gain = med - change if lower else change - med
        rel = change / med - 1.0
        rows.append({
            "name": name,
            "parent_median": med,
            "parent_q1": q1,
            "parent_q3": q3,
            "change_median": change,
            "rel": rel,
            "won": sum(c < p if lower else c > p for p, c in both),
            "pairs": len(both),
            "beyond_spread": gain > q3 - q1,
            "past_bound": (rel if lower else -rel) > metric["bound"],
        })
    return rows


def format_rows(rows: list) -> str:
    out = [f"{'metric':<14}{'parent median [q1, q3]':>40}{'change':>12}"
           f"{'rel':>9}{'won':>8}  notes"]
    for r in rows:
        notes = ["beyond spread"] if r["beyond_spread"] else []
        if r["past_bound"]:
            notes.append("WORSE PAST BOUND")
        spread = f"{r['parent_median']:.6g} [{r['parent_q1']:.6g}, {r['parent_q3']:.6g}]"
        out.append(f"{r['name']:<14}{spread:>40}{r['change_median']:>12.6g}"
                   f"{r['rel']:>+9.1%}{r['won']:>5}/{r['pairs']:<2}  {', '.join(notes)}")
    return "\n".join(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    args = p.parse_args(argv)
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    dirs = {"parent": args.parent, "change": args.change}
    pairs, problems = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        got = {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            got[side], problem = run_once(dirs[side], args.workload, seed, args.seconds)
            if problem:
                problems.append(f"pair {i} ({side}, seed {seed}): {problem}")
            print(f"pair {i} {side:<6} seed {seed}: solve_s_p50 "
                  f"{got[side].get('solve_s_p50', 'none')}", file=sys.stderr, flush=True)
        pairs.append((got["parent"], got["change"]))
    print(f"workload {args.workload}: {args.pairs} pairs, {args.seconds:g} s per run, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}")
    print(format_rows(summarize(end_to_end, pairs)))
    for problem in problems:
        print(f"FLAGGED {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
