"""Command-line surface.

Subcommands: gen, threshold, diameter, oracle, bench. Each common flag
whose dest names a RunConfig field sets that field, over
config_from_env(), which reads TAPSP_OMEGA, TAPSP_SEED, TAPSP_KERNEL,
TAPSP_MODE and TAPSP_VERIFY; explicit flags win. The other three are
the CLI's own: --json and --trace choose what it prints, and --threads
is accepted and checked but sets nothing.

The commands only parse, call and print: threshold and diameter (and the
bench rows of the same names) call the library's threshold() and
diameter(), which choose the path and apply --verify themselves. The CLI
adds the stderr line that says a check was skipped above verify_bound.

Each of threshold, diameter and oracle states its answer once, in a
payload dict, and _print renders it: under --json the payload as one
line, otherwise its head fields as "key: value" lines, in order, then
tail lines listing entries of the payload (stats, pairs, witnesses,
matrix rows) and, for diameter under --trace, the search range and
probes.

Exit codes: 0 success, 2 verification mismatch, 3 input error (a graph
whose arrays cannot be allocated included), 4 negative cycle.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields

from . import __version__
from .config import KERNELS, MODES, RunConfig, config_from_env, pick_mode
from .diameter import diameter, threshold
from .graphs import (Graph, GraphParseError, NegativeCycleError, gen_mixed_ncf,
                     gen_random, one_based_pairs, parse_graph, to_matrix,
                     write_graph)
from .matrices import INF, counting, dist_product_naive
from .oracle import brute_threshold, floyd_warshall
from .threshold_general import VerifyMismatchError

BENCH_ALGOS = ("oracle", "naive_product", "threshold", "diameter")


class _Parser(argparse.ArgumentParser):
    # usage errors are input errors; argparse's default exit status 2 is
    # reserved for verification mismatches here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega", type=float, default=None,
                   help="matrix multiplication exponent used by the schedule")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--kernel", choices=KERNELS, default=None,
                   help="product kernel: numpy (default) or the encoded ring "
                        "products schoolbook/strassen; answers are identical")
    p.add_argument("--mode", choices=MODES, default=None,
                   help="auto picks the deterministic path when all weights are >= 1")
    p.add_argument("--verify", action="store_true", default=None,
                   help="cross-check against the brute-force oracle (small instances)")
    p.add_argument("--trace", action="store_true", default=None,
                   help="print extra run details")
    p.add_argument("--threads", type=int, default=None,
                   help="thread cap, accepted for sweeps; tapsp starts no threads "
                        "of its own (the BLAS library may), and output never "
                        "depends on either")
    p.add_argument("--json", dest="output", action="store_const", const="json",
                   default=None, help="JSON output")
    p.add_argument("--force-beta", type=float, default=None,
                   help="override the schedule beta (experiments)")


def _config(args) -> RunConfig:
    cfg = config_from_env()
    if args.threads is not None and args.threads < 1:
        raise ValueError("threads must be >= 1")
    return cfg.with_(**{f.name: getattr(args, f.name) for f in fields(RunConfig)
                        if getattr(args, f.name, None) is not None})


def _read_graph(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_graph(fh.read())


def _print(args, payload: dict, head, tail=()) -> None:
    """The payload as one JSON line under --json; otherwise a "k: v" line
    for each key in head, in order, then the tail lines."""
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
        return
    for k in head:
        print(f"{k}: {payload[k]}")
    for line in tail:
        print(line)


def _with_pairs(args, payload: dict, pair_list) -> list:
    """Under --pairs, payload["pairs"] and the "pair: u v" lines; else []."""
    if not args.pairs:
        return []
    payload["pairs"] = [list(p) for p in pair_list]
    return [f"pair: {u} {v}" for (u, v) in pair_list]


def cmd_gen(args) -> int:
    g = gen_random(args.n, args.p, args.wmin, args.wmax, seed=args.seed or 0,
                   require_no_neg_cycle=args.no_neg_cycle)
    comment = (f"gen n={args.n} p={args.p} wmin={args.wmin} wmax={args.wmax} "
               f"seed={args.seed or 0}")
    text = write_graph(g, comment=comment)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _say_verify_skipped(g: Graph, cfg: RunConfig) -> None:
    """Above verify_bound the library skips its oracle check; stderr says so."""
    if cfg.verify and not cfg.verify_due(g.n):
        print(f"verify skipped: n={g.n} above bound {cfg.verify_bound}",
              file=sys.stderr)


def cmd_threshold(args) -> int:
    cfg = _config(args)
    g = _read_graph(args.file)
    mode = pick_mode(g, cfg)
    rep = threshold(g, args.d, config=cfg)
    _say_verify_skipped(g, cfg)
    payload = {"command": "threshold", "mode": mode, "n": g.n, "M": g.M,
               "d": args.d, "count": rep.count, "stats": rep.stats}
    tail = ([f"stat {k}: {v}" for k, v in sorted(rep.stats.items())]
            if args.trace else [])
    tail += _with_pairs(args, payload, rep.pairs())
    _print(args, payload, ("mode", "n", "M", "d", "count"), tail)
    return 0


def cmd_diameter(args) -> int:
    cfg = _config(args)
    g = _read_graph(args.file)
    res = diameter(g, config=cfg)
    _say_verify_skipped(g, cfg)
    payload = {"command": "diameter", "n": g.n, "M": g.M,
               "diameter": "inf" if not res.finite else str(res.value),
               "witnesses": [list(p) for p in res.witnesses],
               "probes": len(res.probes)}
    tail = [f"witness: {u} {v}" for (u, v) in payload["witnesses"]]
    if args.trace:
        tail.append(f"search range: [{res.lo}, {res.hi}]")
        tail += [f"probe: d={d} all={ok}" for (d, ok) in res.probes]
    _print(args, payload, ("n", "M", "diameter"), tail)
    return 0


def cmd_oracle(args) -> int:
    _config(args)  # the oracle reads no setting, but a bad one still exits 3
    g = _read_graph(args.file)
    dist = floyd_warshall(to_matrix(g))
    payload = {"command": "oracle", "n": g.n, "M": g.M}
    if args.d is None:
        payload["matrix"] = [" ".join("inf" if x >= INF else str(x) for x in row)
                             for row in dist.tolist()]
        _print(args, payload, (), payload["matrix"])
        return 0
    rep = brute_threshold(dist, args.d)
    payload.update(d=args.d, count=int(rep.sum()))
    _print(args, payload, ("n", "M", "d", "count"),
           _with_pairs(args, payload, one_based_pairs(rep)))
    return 0


def _parse_grid(raw: str) -> list:
    try:
        return [int(tok) for tok in raw.split(",") if tok]
    except ValueError:
        raise ValueError(f"bad integer grid {raw!r}")


def cmd_bench(args) -> int:
    """CSV rows, one per (n, M, density, algo): the wall time and the
    op counts of the call, from a matrices.counting() block around it.

    Graphs come from gen_random with weights in [wmin, M] (wmin defaults
    to 1), or, with --wmin below 1, from gen_mixed_ncf:
    negative-cycle-free, weights in [-W, W] with W = max(M, -wmin).
    threshold rows take d from -d, by default n M // 4.

    What the counts mean:
    - Oracle rows count 0 by design: the oracle layer never touches the
      counted kernels, so its rows give the baseline. naive_product
      counts its n**3 relaxations.
    - A min-plus product (level steps included) counts its l m n
      relaxations under numpy, whichever route runs it, and bigint
      ring multiplications (ring_mults) under schoolbook and strassen.
    - The primal distances take no kernel. While the float route holds
      their window, they are ceil(log2(min(cap, n - 1))) window squares
      of n**3 relaxations each under every --kernel, cap being
      threshold_positive.primal_cap(g, d) = max(M + 1, min(d, W)) for a
      single threshold call. The default d = n M // 4 lies within the cap
      on small graphs, so such a positive row is those squares alone, no
      level: at M = 2, 2 * 8**3 = 1024 at n = 8 and 3 * 16**3 = 12288 at
      n = 16, and --kernel schoolbook prints the same. A d past the cap
      adds one product per level, counted as ring_mults under schoolbook
      and strassen. When W < M + 1 the primal distances are the
      Floyd-Warshall closure at M + 1, which takes no kernel either and
      counts n**3 relaxations, n * n per pivot.
    - bool_ops counts n * n per squaring of the reachability closure
      (graphs.transitive_closure), which the large-d shortcut of both
      paths runs, and diameter too, except on a capped general run: such
      diameter rows read reachability off the exact distances and count
      0 bool_ops.
    - General rows (--wmin below 1), while the hitting set covers every
      vertex, count only the far path's exact distances: n**3
      relaxations per window square (ceil(log2(n - 1)) of them), n**3
      more when the closure follows (as it does when some pair is
      unreachable), and 0 ring_mults under every --kernel, since no
      level is built and the window is read from exact distances. A
      capped diameter row counts the relaxations of the threshold row of
      the same graph, inf answers included. Once the hitting set X
      samples (--force-beta 0 at n >= 32, say), the levels' products
      count again, and so does the far-pair combine through X, one
      min-plus product of n |X| n relaxations under every --kernel.
    - --verify checks every threshold and diameter row, on both paths,
      through the same library calls as the subcommands. Rows above
      verify_bound run unchecked, and stderr says so once for each such
      n. The oracle counts nothing, so a verified row differs from an
      unverified one only in wall_s, unless a general row had to retry,
      which shows in its counts.
    """
    cfg = _config(args)
    ns = _parse_grid(args.ns)
    ms = _parse_grid(args.ms)
    densities = [float(tok) for tok in args.densities.split(",") if tok]
    algos = [tok for tok in args.algos.split(",") if tok]
    for algo in algos:
        if algo not in BENCH_ALGOS:
            raise ValueError(f"unknown algo {algo!r}; choose from {BENCH_ALGOS}")
    writer = sys.stdout
    writer.write("n,M,density,algo,seed,wall_s,ring_mults,minplus_relaxations,bool_ops\n")
    told = set()  # the n whose threshold or diameter rows have run
    for n in ns:
        for m_bound in ms:
            for density in densities:
                wmin = args.wmin if args.wmin is not None else 1
                g = (gen_random(n, density, wmin, m_bound, seed=cfg.seed) if wmin >= 1
                     else gen_mixed_ncf(n, density, max(m_bound, -wmin), cfg.seed))
                w = to_matrix(g)
                for algo in algos:
                    start = time.perf_counter()
                    with counting() as counts:
                        if algo == "oracle":
                            floyd_warshall(w)
                        elif algo == "naive_product":
                            dist_product_naive(w, w)
                        elif algo == "threshold":
                            d = args.d if args.d is not None else (n * m_bound) // 4
                            threshold(g, d, config=cfg)
                        else:
                            diameter(g, config=cfg)
                    wall = time.perf_counter() - start
                    writer.write(
                        f"{n},{m_bound},{density},{algo},{cfg.seed},{wall:.6f},"
                        f"{counts['ring_mults']},{counts['minplus_relaxations']},"
                        f"{counts['bool_ops']}\n")
                    if algo in ("threshold", "diameter") and n not in told:
                        told.add(n)
                        _say_verify_skipped(g, cfg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tapsp",
                     description="Threshold shortest-path reports and exact "
                                 "diameter for integer-weighted digraphs.")
    parser.add_argument("--version", action="version", version=f"tapsp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("-n", type=int, required=True)
    p_gen.add_argument("-p", type=float, required=True, help="arc density in [0,1]")
    p_gen.add_argument("--wmin", type=int, required=True)
    p_gen.add_argument("--wmax", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--no-neg-cycle", action="store_true",
                       help="resample until free of negative cycles")
    p_gen.add_argument("-o", "--out", default=None, help="output file (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_thr = sub.add_parser("threshold", help="report all pairs within distance d")
    p_thr.add_argument("file")
    p_thr.add_argument("-d", type=int, required=True)
    p_thr.add_argument("--pairs", action="store_true", help="list the pairs")
    _add_common(p_thr)
    p_thr.set_defaults(func=cmd_threshold)

    p_dia = sub.add_parser("diameter", help="exact diameter with witnesses")
    p_dia.add_argument("file")
    _add_common(p_dia)
    p_dia.set_defaults(func=cmd_diameter)

    p_ora = sub.add_parser("oracle", help="brute-force distances or threshold")
    p_ora.add_argument("file")
    p_ora.add_argument("-d", type=int, default=None)
    p_ora.add_argument("--pairs", action="store_true")
    _add_common(p_ora)
    p_ora.set_defaults(func=cmd_oracle)

    p_ben = sub.add_parser("bench", help="sweep instance grids, emit CSV")
    p_ben.add_argument("--ns", default="16,32,64", help="comma-separated n grid")
    p_ben.add_argument("--ms", default="4", help="comma-separated M grid")
    p_ben.add_argument("--densities", default="0.3")
    p_ben.add_argument("--algos", default="oracle",
                       help=f"comma-separated subset of {','.join(BENCH_ALGOS)}")
    p_ben.add_argument("--wmin", type=int, default=None,
                       help="lower weight bound (default 1); below 1, graphs come "
                            "from gen_mixed_ncf: negative-cycle-free, weights in "
                            "[-W, W] with W = max(M, -wmin)")
    p_ben.add_argument("-d", type=int, default=None,
                       help="threshold for the threshold algo (default n*M/4)")
    _add_common(p_ben)
    p_ben.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerifyMismatchError as exc:
        print(f"tapsp: verify mismatch: {exc}", file=sys.stderr)
        return 2
    except NegativeCycleError as exc:
        print(f"tapsp: {exc}", file=sys.stderr)
        return 4
    except (GraphParseError, OSError, ValueError, MemoryError) as exc:
        print(f"tapsp: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
