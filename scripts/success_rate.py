"""First-run success rate of the randomized threshold path under genuine
sampling.

At desk scale every sample count in the pipeline caps at the full vertex
set, so the first attempt is exact by construction and the acceptance
suite records a trivial 100% rate. This study forces configurations
where at least one stage really samples: with --force-beta 0.1 at n = 64
the hitting set draws fewer vertices than n and is the only machinery
covering edge counts past the level bands, so its success is a genuine
coin flip (with a heavily loaded coin: the sample size carries an
8 ln n multiplier, so misses should stay invisible at any feasible
trial count; seeing 100% here is the expected outcome, and anything
else is worth investigating).

Instances are sparse strongly connected mixed-weight graphs, picked so
that long shortest paths (large edge counts) actually occur. Products
run on the default numpy kernel; kernel equivalence is covered by
tests.

Example:
    python3 scripts/success_rate.py --trials 40
"""

import argparse
import sys

import numpy as np

from tapsp.config import RunConfig
from tapsp.graphs import gen_mixed_ncf, johnson_potentials, to_matrix
from tapsp.matrices import is_finite
from tapsp.oracle import floyd_warshall
from tapsp.sampling import Rng
from tapsp.threshold_general import prepare_general, threshold_apsp_neg


def percentile_ds(dist: np.ndarray) -> list:
    fin = is_finite(dist)
    np.fill_diagonal(fin, False)
    vals = np.sort(dist[fin])
    if vals.size == 0:
        return [0]
    return sorted({int(vals[(q * vals.size - 1) // 100]) for q in (25, 50, 75)})


def run_config(n: int, m_bound: int, density: float, force_beta,
               trials: int) -> dict:
    cfg = RunConfig(verify=True, verify_bound=n, force_beta=force_beta)
    first_graph = gen_mixed_ncf(n, density, m_bound, seed=0, backbone=True)
    probe = prepare_general(first_graph, cfg, Rng(0),
                            johnson_potentials(first_graph))
    calls = 0
    first = 0
    attempts_total = 0
    for trial in range(trials):
        g = gen_mixed_ncf(n, density, m_bound, seed=trial, backbone=True)
        dist = floyd_warshall(to_matrix(g))
        for d in percentile_ds(dist):
            rep = threshold_apsp_neg(g, d, config=cfg.with_(seed=trial))
            calls += 1
            first += rep.stats["attempts"] == 1
            attempts_total += rep.stats["attempts"]
    return {
        "n": n,
        "beta": "auto" if force_beta is None else force_beta,
        "hitting": len(probe.far.hitting),
        "t_far": probe.schedule.t_far,
        "K": probe.schedule.K,
        "calls": calls,
        "rate": first / calls,
        "mean_attempts": attempts_total / calls,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=40, help="instances per config")
    ap.add_argument("--ns", default="32,64")
    ap.add_argument("--betas", default="auto,0.1",
                    help="comma list of forced betas; 'auto' = schedule default")
    ap.add_argument("-M", type=int, default=2)
    ap.add_argument("--density", type=float, default=0.05)
    args = ap.parse_args()

    betas = [None if tok == "auto" else float(tok)
             for tok in args.betas.split(",")]
    rows = []
    for n in (int(tok) for tok in args.ns.split(",")):
        for beta in betas:
            rows.append(run_config(n, args.M, args.density, beta, args.trials))
    print(f"{'n':>4} {'beta':>6} {'|X|':>5} {'t_far':>6} {'K':>5} "
          f"{'calls':>6} {'first-run rate':>15} {'mean attempts':>14}")
    for r in rows:
        genuinely = " (sampled)" if r["hitting"] < r["n"] else " (capped)"
        print(f"{r['n']:>4} {str(r['beta']):>6} {r['hitting']:>5} "
              f"{r['t_far']:>6} {r['K']:>5} {r['calls']:>6} "
              f"{r['rate']:>15.4f} {r['mean_attempts']:>14.3f}{genuinely}")
    if any(r["rate"] < 0.95 for r in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
