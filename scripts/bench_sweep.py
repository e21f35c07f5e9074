"""Operation-count scaling sweep over instance grids.

Drives the bench subcommand across a grid of n values and prints, per
algorithm, how each op counter grows from one n to the next. The naive
min-plus product counts n**3 relaxations, a ratio of 8 per doubling of
n. Oracle rows count 0 (Floyd-Warshall touches no counted kernel), so
they show no ratio and serve as the wall-time baseline. Threshold rows
at the default d = n M // 4 are the primal distances'
ceil(log2(min(cap, n - 1))) window squares of n**3 relaxations each, so
they grow 8 times the ratio of square counts: 10.0-10.7 per doubling
from n = 8 to 32 at M = 4 (tapsp.cli.cmd_bench says what each count
holds). Wall times are printed for context but vary run to run; the
counters are the stable signal.

Example:
    python3 scripts/bench_sweep.py --ns 8,16,32,64 --algos oracle,naive_product,threshold
"""

import argparse
import csv
import io
import subprocess
import sys


def run_bench(args) -> list:
    cmd = [sys.executable, "-m", "tapsp.cli", "bench",
           "--ns", args.ns, "--ms", args.ms, "--densities", args.densities,
           "--algos", args.algos, "--seed", str(args.seed)]
    if args.d is not None:
        cmd += ["-d", str(args.d)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    return list(csv.DictReader(io.StringIO(proc.stdout)))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ns", default="8,16,32,64")
    ap.add_argument("--ms", default="4")
    ap.add_argument("--densities", default="0.3")
    ap.add_argument("--algos", default="oracle,naive_product,threshold")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("-d", type=int, default=None,
                    help="threshold for the threshold algo")
    ap.add_argument("--csv", default=None, help="also write the raw rows here")
    args = ap.parse_args()

    rows = run_bench(args)
    if args.csv:
        with open(args.csv, "w", encoding="ascii", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=rows[0].keys())
            writer.writeheader()
            writer.writerows(rows)

    counters = ("ring_mults", "minplus_relaxations", "bool_ops")
    for algo in args.algos.split(","):
        for m_bound in args.ms.split(","):
            for density in args.densities.split(","):
                series = [r for r in rows
                          if r["algo"] == algo and r["M"] == m_bound
                          and r["density"] == density]
                if not series:
                    continue
                print(f"\n{algo}  M={m_bound}  density={density}")
                print(f"  {'n':>5} {'wall_s':>9} " +
                      " ".join(f"{c:>20}" for c in counters))
                prev = None
                for r in series:
                    line = f"  {r['n']:>5} {float(r['wall_s']):>9.4f} "
                    line += " ".join(f"{int(r[c]):>20}" for c in counters)
                    if prev is not None:
                        ratios = []
                        for c in counters:
                            a, b = int(prev[c]), int(r[c])
                            ratios.append(f"{b / a:.2f}x" if a else "-")
                        line += "   growth " + "/".join(ratios)
                    print(line)
                    prev = r


if __name__ == "__main__":
    main()
