"""Layer boundaries traced in the package, and the per-layer metrics built from them.

Every count is computed at the boundary from the call's arguments or its
return value; nothing is read from the package's own counters.
"""

from __future__ import annotations

import math

import numpy as np

from tapsp import INF
from tracer import COUNT_SPAN


def _ring(a, out):
    x, y = a["a"], a["b"]
    return {"mults": int(x.shape[0]) * int(x.shape[1]) * int(y.shape[1])}


def _poly(a, out):
    n, _, s = a["p"].coeffs.shape
    return {"bits": s * math.log2(n * s + 1)}


def _minplus(a, out):
    x, y, bound = a["a"], a["b"], a["bound"]
    if bound is None:  # the product derives it the same way
        bound = max([int(np.abs(m[m < INF]).max()) for m in (x, y) if (m < INF).any()],
                    default=0)
    m = int(x.shape[1])
    return {"bound": int(bound), "bits": (4 * int(bound) + 1) * math.log2(m + 1)}


def _classify(a, out):
    return {"K": int(a["run"].schedule.K), "window": int(out.stats["window"])}


def _sample(size: int, n: int) -> dict:
    return {"sample": int(size), "n": int(n)}


def _hitting(a, out):
    return _sample(out.hitting.size, a["g"].n)


def _bridge(a, out):
    return _sample(out.bridge.size, a["w"].shape[0])


def _approx(a, out):
    return _sample(out.sample.size, a["pdm"].n)


# (module, function, counter). The probe entry points and the diameter
# search are wrapped to count probes and searches; the benchmark's own root
# call never goes through a wrapper.
BOUNDARIES = [
    ("matrices", "ring_matmul", _ring),
    ("matrices", "poly_square", _poly),
    ("matrices", "dist_product_fast", _minplus),
    ("matrices", "bool_product", None),
    ("threshold_positive", "primal_distances", None),
    ("threshold_positive", "level_step", None),
    ("threshold_general", "prepare_general", None),
    ("threshold_general", "classify_threshold", _classify),
    ("threshold_general", "target_distances", None),
    ("far_pairs", "compute_delta_t", _hitting),
    ("partial_distances", "build_partial", _bridge),
    ("approx", "additive_approximate", _approx),
    ("graphs", "find_negative_cycle", None),
    ("graphs", "transitive_closure", None),
    ("diameter", "_search", None),
    ("threshold_general", "threshold_apsp_neg", None),
    ("threshold_positive", "threshold_apsp_pos", None),
]

# Spans whose self time is reported under their own name.
SELF_TIMED = [
    "matrices.ring_matmul", "matrices.poly_square", "matrices.dist_product_fast",
    "threshold_positive.primal_distances", "threshold_positive.level_step",
    "threshold_general.prepare_general", "threshold_general.classify_threshold",
    "threshold_general.target_distances", "far_pairs.compute_delta_t",
    "partial_distances.build_partial", "approx.additive_approximate",
    "graphs.find_negative_cycle", "graphs.transitive_closure",
    "matrices.bool_product",
]

# name -> unit, in report order.
PER_LAYER_UNITS = {
    "matrices.ring_matmul_s": "s",
    "matrices.ring_mults": "count",
    "matrices.ring_operand_bits_max": "bits",
    "matrices.poly_square_s": "s",
    "matrices.poly_square_calls": "count",
    "matrices.dist_product_fast_s": "s",
    "matrices.dist_product_fast_calls": "count",
    "matrices.minplus_bound_max": "weight",
    "threshold_positive.primal_distances_s": "s",
    "threshold_positive.level_step_s": "s",
    "threshold_positive.levels": "count",
    "threshold_general.prepare_general_s": "s",
    "threshold_general.prepare_calls": "count",
    "threshold_general.classify_threshold_s": "s",
    "threshold_general.target_distances_s": "s",
    "threshold_general.window_pairs": "count",
    "threshold_general.K": "weight",
    "far_pairs.compute_delta_t_s": "s",
    "far_pairs.sssp_calls": "count",
    "far_pairs.hitting_frac": "ratio",
    "far_pairs.hitting_capped_frac": "ratio",
    "partial_distances.build_partial_s": "s",
    "partial_distances.bridge_frac": "ratio",
    "partial_distances.bridge_capped_frac": "ratio",
    "approx.additive_approximate_s": "s",
    "approx.sample_frac": "ratio",
    "approx.sample_capped_frac": "ratio",
    "graphs.find_negative_cycle_s": "s",
    "graphs.transitive_closure_s": "s",
    "matrices.bool_product_s": "s",
    "diameter.probes": "count",
    "diameter.searches": "count",
    "oracle.floyd_warshall_s": "s",
    "trace.solve_s": "s",
    "trace.other_self_s": "s",
    "trace.count_s": "s",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def per_layer(spans, solves: int, oracle_s: float, overhead: float) -> dict:
    """Per-solve layer metrics from the spans of `solves` traced solves.

    Times and counts are per solve (totals over the run divided by the
    number of solves), so the listed `_s` self times, `trace.other_self_s`
    and `trace.count_s` (the benchmark's own counting) add up to
    `trace.solve_s`; `trace.coverage_frac` is the listed layers' share of
    the solve time left after counting. Sample fractions are means over the calls
    that drew a sample; `_capped_frac` is the share of those calls whose
    sample was the whole vertex set.
    """
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return by_name.get(name, [])

    def per_solve(x):
        return x / solves

    def self_s(name):
        return per_solve(sum(s.self_s for s in calls(name)))

    def count_sum(name, key):
        return sum(s.counts.get(key, 0) for s in calls(name))

    def count_max(names, key):
        return max([s.counts.get(key, 0) for n in names for s in calls(n)], default=0)

    def sample_fracs(name):
        got = [s.counts for s in calls(name) if "sample" in s.counts]
        if not got:
            return 0.0, 0.0
        fracs = [c["sample"] / c["n"] for c in got]
        return sum(fracs) / len(fracs), sum(f >= 1.0 for f in fracs) / len(fracs)

    roots = calls("solve")
    solve_total = sum(s.end - s.start for s in roots)
    count_total = sum(s.self_s for s in calls(COUNT_SPAN))
    hit, hit_cap = sample_fracs("far_pairs.compute_delta_t")
    bridge, bridge_cap = sample_fracs("partial_distances.build_partial")
    appr, appr_cap = sample_fracs("approx.additive_approximate")
    out = {f"{name}_s": self_s(name) for name in SELF_TIMED}
    out.update({
        "matrices.ring_mults": per_solve(count_sum("matrices.ring_matmul", "mults")),
        "matrices.ring_operand_bits_max": count_max(
            ["matrices.poly_square", "matrices.dist_product_fast"], "bits"),
        "matrices.poly_square_calls": per_solve(len(calls("matrices.poly_square"))),
        "matrices.dist_product_fast_calls": per_solve(len(calls("matrices.dist_product_fast"))),
        "matrices.minplus_bound_max": count_max(["matrices.dist_product_fast"], "bound"),
        "threshold_positive.levels": per_solve(len(calls("threshold_positive.level_step"))),
        "threshold_general.prepare_calls": per_solve(len(calls("threshold_general.prepare_general"))),
        "threshold_general.window_pairs": per_solve(
            count_sum("threshold_general.classify_threshold", "window")),
        "threshold_general.K": count_max(["threshold_general.classify_threshold"], "K"),
        "far_pairs.sssp_calls": per_solve(2 * count_sum("far_pairs.compute_delta_t", "sample")),
        "far_pairs.hitting_frac": hit,
        "far_pairs.hitting_capped_frac": hit_cap,
        "partial_distances.bridge_frac": bridge,
        "partial_distances.bridge_capped_frac": bridge_cap,
        "approx.sample_frac": appr,
        "approx.sample_capped_frac": appr_cap,
        "diameter.probes": per_solve(len(calls("threshold_general.threshold_apsp_neg"))
                                     + len(calls("threshold_positive.threshold_apsp_pos"))),
        "diameter.searches": per_solve(len(calls("diameter._search"))),
        "oracle.floyd_warshall_s": oracle_s,
        "trace.solve_s": per_solve(solve_total),
        "trace.count_s": per_solve(count_total),
        "trace.overhead_frac": overhead,
    })
    layers_s = sum(out[f"{name}_s"] for name in SELF_TIMED)
    package_s = out["trace.solve_s"] - out["trace.count_s"]
    out["trace.other_self_s"] = package_s - layers_s
    out["trace.coverage_frac"] = layers_s / package_s if package_s else 0.0
    return {name: out[name] for name in PER_LAYER_UNITS}
