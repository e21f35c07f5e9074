"""Stress the partial-distance-matrix properties under genuine bridge
sampling.

The test suite checks properties 1 and 2 on instances small enough that
the bridge set never actually shrinks. Here the exponents are pinned to
beta = 0, gamma = 0.1 on n = 64, where the shrink phase genuinely
samples (the final bridge holds about 42 of the 64 vertices) and the
property-2 window (ceil(n^0.9) = 43) sits below the largest edge counts
of a sparse strongly connected instance, so both properties are live.

Per trial the script checks property 1 on every pair, property 2 on the
pairs with the largest min-edge counts (the quadratic DP is too slow for
all 4096), and records the largest finite |P| entry against two
reference lines: 3 M n^(1-beta), and the radius-derived ceiling
2 ceil(s_final M) < 6 M n^(1-beta) + 2 that the builder actually
guarantees. Products run on the default numpy kernel; kernel equivalence
is covered by tests.

Example:
    python3 scripts/rpdm_stress.py --trials 100
"""

import argparse
import math
import sys
from fractions import Fraction

import numpy as np

from tapsp.graphs import gen_mixed_ncf, to_matrix
from tapsp.matrices import INF
from tapsp.oracle import floyd_warshall, min_edge_counts
from tapsp.partial_distances import (build_partial, check_rpdm_property1,
                                     check_rpdm_property2)
from tapsp.sampling import Rng


def final_radius(n: int, beta: float, m_bound: int) -> int:
    log15 = math.log(1.5)
    l_total = math.ceil(math.log(2.0 * n ** (1.0 - beta)) / log15)
    return math.ceil(Fraction(3, 2) ** l_total * m_bound)


def top_count_pairs(counts: np.ndarray, dist: np.ndarray, k: int) -> list:
    n = counts.shape[0]
    flat = [(int(counts[u, v]), u, v) for u in range(n) for v in range(n)
            if counts[u, v] >= 1 and dist[u, v] < INF]
    flat.sort(reverse=True)
    return [(u, v) for (_, u, v) in flat[:k]]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("-n", type=int, default=64)
    ap.add_argument("-M", type=int, default=2)
    ap.add_argument("--density", type=float, default=0.002,
                    help="chord density; keep tiny or shortcuts kill the "
                         "long edge counts property 2 needs")
    ap.add_argument("--beta", type=float, default=0.0)
    ap.add_argument("--gamma", type=float, default=0.1)
    ap.add_argument("--pairs", type=int, default=40,
                    help="property-2 pairs per trial, largest edge counts first")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on any property violation")
    args = ap.parse_args()

    n, m_bound = args.n, args.M
    window = math.ceil(n ** (1.0 - args.beta - args.gamma))
    claim_3m = 3 * m_bound * n ** (1.0 - args.beta)
    ceiling = 2 * final_radius(n, args.beta, m_bound)
    print(f"n={n} M={m_bound} density={args.density} beta={args.beta} "
          f"gamma={args.gamma} window={window}")
    print(f"entry ceiling 2*ceil(s_final*M) = {ceiling}, "
          f"3*M*n^(1-beta) = {claim_3m:.0f}, "
          f"6*M*n^(1-beta)+2 = {6 * m_bound * n ** (1.0 - args.beta) + 2:.0f}")

    bad1 = bad2 = 0
    bridge_sizes = []
    entry_max = 0
    c_checked_max = 0
    live_trials = 0
    for trial in range(args.trials):
        g = gen_mixed_ncf(n, args.density, m_bound, seed=trial, backbone=True)
        w = to_matrix(g)
        dist = floyd_warshall(w)
        counts = min_edge_counts(w, dist)
        rng = Rng(10_000 + trial)
        pdm = build_partial(w, m_bound, args.beta, args.gamma, rng)
        bridge_sizes.append(len(pdm.bridge))
        fin = pdm.P < INF
        entry_max = max(entry_max, int(np.abs(pdm.P[fin]).max()))

        v1 = check_rpdm_property1(pdm, dist, counts)
        pairs = top_count_pairs(counts, dist, args.pairs)
        if pairs:
            c_top = int(counts[pairs[0]])
            c_checked_max = max(c_checked_max, c_top)
            # a pair can only violate the window when its path is longer
            # than the window, so count the trials where that holds
            live_trials += c_top >= window
        v2 = check_rpdm_property2(pdm, dist, counts, w, pairs=pairs)
        if v1:
            bad1 += 1
            print(f"trial {trial}: property 1 violated on {len(v1)} pairs")
        if v2:
            bad2 += 1
            print(f"trial {trial}: property 2 violated on {v2}")

    sizes = np.array(bridge_sizes)
    print(f"\n{args.trials} trials: property-1 violations {bad1}, "
          f"property-2 violations {bad2} "
          f"({args.pairs} pairs/trial, largest edge count checked "
          f"{c_checked_max}, window {window})")
    print(f"property-2 live in {live_trials}/{args.trials} trials "
          f"(a trial is live when some checked pair has edge count >= window)")
    print(f"final bridge size min/mean/max = {sizes.min()}/"
          f"{sizes.mean():.1f}/{sizes.max()} of {n}")
    print(f"largest finite |P| entry = {entry_max} "
          f"({entry_max / claim_3m:.2f} of 3*M*n^(1-beta), "
          f"ceiling ratio {entry_max / ceiling:.2f})")
    if args.strict and (bad1 or bad2):
        sys.exit(1)


if __name__ == "__main__":
    main()
