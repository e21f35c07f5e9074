"""Threshold all-pairs shortest paths and exact diameter for integer weights."""

from .config import RunConfig, config_from_env
from .diameter import DiameterResult, diameter, threshold
from .graphs import (Graph, GraphParseError, NegativeCycleError,
                     gen_mixed_ncf, gen_random, make_graph, parse_graph,
                     to_matrix, write_graph)
from .matrices import INF, EntryBoundError, dist_product_fast, dist_product_naive
from .oracle import brute_threshold, floyd_warshall, min_edge_counts
from .sampling import Rng, sample
from .threshold_general import (ThresholdReport, VerifyMismatchError,
                                threshold_apsp_neg)
from .threshold_positive import f_set, level_plan, threshold_apsp_pos

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "config_from_env",
    "DiameterResult",
    "diameter",
    "threshold",
    "Graph",
    "GraphParseError",
    "NegativeCycleError",
    "gen_mixed_ncf",
    "gen_random",
    "make_graph",
    "parse_graph",
    "to_matrix",
    "write_graph",
    "INF",
    "EntryBoundError",
    "dist_product_fast",
    "dist_product_naive",
    "brute_threshold",
    "floyd_warshall",
    "min_edge_counts",
    "Rng",
    "sample",
    "ThresholdReport",
    "VerifyMismatchError",
    "threshold_apsp_neg",
    "f_set",
    "level_plan",
    "threshold_apsp_pos",
    "__version__",
]
