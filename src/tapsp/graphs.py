"""Graph type, text format, generation, and potential-based reweighting.

Vertices are numbered 1..n. Arcs are directed with integer weights in
[-M, M]; self-loops are rejected and parallel arcs collapse to the
cheapest one. The text format follows the DIMACS shortest-path layout:

    c optional comment
    p sp <n> <m>
    a <u> <v> <w>
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .matrices import COUNTERS, INF, minplus_identity
from .sampling import Rng

# Largest accepted n * M. Apart from the masked INF + INF, the largest
# value a kernel forms is a sentinel sum in matrices._minplus_blocked,
# 2 * (3 * bound + 1); it also picks the relaxation dtype
# (matrices._narrowest_int: int16, int32 or int64, the narrowest that
# holds it). The largest bound is the window width hi - lo <= 2K <= 4 n M
# of threshold_general.target_distances (K <= 2 n M; build_partial uses
# radius <= 3 n M, the far-pair combine of a sampled hitting set
# (n - 1) M, the primal family M + 1, the level steps at most 2M + 2, the
# scaled estimates about 6 n). The numpy kernel's float route
# (matrices._minplus_float) forms entry - lo where lo is not 0, and
# decodes at offset lo_a + lo_b; matrices.nonneg_distances encodes at
# lo = 0 and decodes at offset 0. Under dist_product_fast, lo is an
# operand's least finite entry: entry - lo is at most INF + bound for an
# INF entry, and the offset at least -2 * bound. Under
# matrices.window_square, lo is the
# window's floor, and the lowest is target_distances'
# lo = ceil(d/2) - K >= -5 n M / 2 (d lies in [-n M, n M] there):
# entry - lo is largest for an INF entry, at most INF + 5 n M / 2, and
# the offset 2 lo is at least -5 n M. The largest value
# matrices.minplus_closure forms is 2 (2 (n - 1) M + 1), its double
# sentinel at the capped far path's cap 2 (n - 1) M. n M <= INF >> 5
# keeps 24 n M + 2 below INF, so no sum overflows int64 and no finite
# value reads as INF.
MAX_SPAN = int(INF) >> 5


class GraphParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NegativeCycleError(Exception):
    def __init__(self, message: str = "negative cycle", cycle=None):
        self.cycle = list(cycle) if cycle else None
        if self.cycle:
            message = f"{message}: {' -> '.join(map(str, self.cycle))}"
        super().__init__(message)


def _integer(x) -> bool:
    return isinstance(x, Integral) and not isinstance(x, bool)


def integer_threshold(d) -> int:
    """d as a Python int: the paper's threshold is an integer, so any
    integer d (Python or numpy, not bool) converts once, and any other d
    raises ValueError. The test is operator.index, as every threshold
    call pays it: an isinstance check against numbers.Integral took
    about 0.8 us a call under CPython 3.11 (timeit), some 50 times as
    long."""
    if not isinstance(d, bool):
        try:
            return operator.index(d)
        except TypeError:
            pass
    raise ValueError(f"threshold d = {d!r} must be an integer")


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple
    M: int

    def __post_init__(self):
        # a float would be truncated silently once the arcs become int64, a
        # bool written as True; the bounds compare Python ints, since numpy
        # integers wrap past 2^63
        if not all(_integer(x) for x in (self.n, self.M)):
            raise ValueError(f"n = {self.n!r} and M = {self.M!r} must be integers")
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if self.M < 1:
            raise ValueError("weight bound M must be a positive integer")
        span = int(self.n) * int(self.M)
        if span > MAX_SPAN:
            raise ValueError(f"n*M = {span} exceeds the limit {MAX_SPAN}")
        seen = set()
        for (u, v, w) in self.edges:
            if not all(_integer(x) for x in (u, v, w)):
                raise ValueError(f"arc ({u!r},{v!r},{w!r}) has a non-integer entry")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"arc ({u},{v}) out of range 1..{self.n}")
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if abs(int(w)) > self.M:
                raise ValueError(f"weight {w} exceeds bound {self.M}")
            if (u, v) in seen:
                raise ValueError(f"duplicate arc ({u},{v})")
            seen.add((u, v))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def arcs(self) -> tuple:
        """The edges as read-only int64 arrays (u, v, w), 0-based
        vertices, in edges order."""
        a = np.array(self.edges, dtype=np.int64).reshape(-1, 3).T.copy()
        a[:2] -= 1
        a.flags.writeable = False
        return a[0], a[1], a[2]

    def positive_weights(self) -> bool:
        return bool((self.arcs[2] >= 1).all())


def make_graph(n: int, arcs, M: int | None = None) -> Graph:
    """Build a Graph, collapsing duplicate arcs to their minimum weight."""
    best = {}
    for (u, v, w) in arcs:
        key = (u, v)
        if key not in best or w < best[key]:
            best[key] = w
    edges = tuple(sorted((u, v, w) for (u, v), w in best.items()))
    if M is None:
        M = max([1] + [abs(int(w)) for (_, _, w) in edges])
    return Graph(n=n, edges=edges, M=M)


def one_based_pairs(mask: np.ndarray) -> list:
    """The true entries of a Boolean matrix as 1-based (u, v) vertex
    pairs, in row-major order."""
    return [(u + 1, v + 1) for u, v in np.argwhere(mask).tolist()]


def to_matrix(g: Graph) -> np.ndarray:
    """Weight matrix with 0 diagonal and INF for absent arcs."""
    w = minplus_identity(g.n)
    u, v, wt = g.arcs
    w[u, v] = wt
    return w


def parse_graph(text: str, max_weight: int | None = None) -> Graph:
    """Parse the DIMACS-like format. Raises GraphParseError with the
    offending line number on malformed input."""
    n = None
    m = None
    arcs = []
    raw_arcs = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphParseError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] != "sp":
                raise GraphParseError("expected 'p sp <n> <m>'", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphParseError("non-integer problem sizes", lineno)
            if n < 1 or m < 0:
                raise GraphParseError("invalid sizes in problem line", lineno)
        elif parts[0] == "a":
            if n is None:
                raise GraphParseError("arc before problem line", lineno)
            if len(parts) != 4:
                raise GraphParseError("expected 'a <u> <v> <w>'", lineno)
            try:
                u, v, w = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphParseError("non-integer arc fields", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(f"vertex out of range in arc ({u},{v})", lineno)
            if u == v:
                raise GraphParseError(f"self-loop on vertex {u}", lineno)
            if max_weight is not None and abs(w) > max_weight:
                raise GraphParseError(
                    f"weight {w} exceeds declared bound {max_weight}", lineno)
            raw_arcs += 1
            arcs.append((u, v, w))
        else:
            raise GraphParseError(f"unknown record {parts[0]!r}", lineno)
    if n is None:
        raise GraphParseError("missing problem line")
    if raw_arcs != m:
        raise GraphParseError(f"problem line declares {m} arcs, found {raw_arcs}")
    return make_graph(n, arcs, M=max_weight)


def write_graph(g: Graph, comment: str | None = None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p sp {g.n} {g.m}")
    for (u, v, w) in g.edges:
        lines.append(f"a {u} {v} {w}")
    return "\n".join(lines) + "\n"


def gen_random(n: int, density: float, wmin: int, wmax: int, seed: int,
               require_no_neg_cycle: bool = False,
               max_attempts: int = 1000) -> Graph:
    """Erdos-Renyi style digraph with uniform integer weights.

    With require_no_neg_cycle, regenerates from derived seeds until the
    graph is free of negative cycles, giving up after max_attempts.
    """
    if not (0.0 <= density <= 1.0):
        raise ValueError("density must be in [0, 1]")
    if wmin > wmax:
        raise ValueError("wmin must not exceed wmax")
    bound = max(1, abs(wmin), abs(wmax))
    base = Rng(seed)
    for attempt in range(max_attempts):
        rng = base.derive(attempt)
        arcs = []
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                if u == v:
                    continue
                if rng.unit() < density:
                    arcs.append((u, v, rng.randint(wmin, wmax)))
        g = make_graph(n, arcs, M=bound)
        if not require_no_neg_cycle or find_negative_cycle(g) is None:
            return g
    raise ValueError(
        f"no negative-cycle-free graph found in {max_attempts} attempts")


def gen_mixed_ncf(n: int, density: float, M: int, seed: int,
                  backbone: bool = False) -> Graph:
    """Mixed-sign instance that is negative-cycle-free by construction.

    Rejection sampling (gen_random with require_no_neg_cycle) stops
    working beyond toy sizes: a dense mixed-weight digraph almost surely
    holds a negative cycle. Instead, draw a potential h[v] in [0, M] per
    vertex and a nonnegative reweighted cost wp in [0, M + h[u] - h[v]]
    per arc, then undo the reweighting: w = wp - h[u] + h[v]. Cycle
    weights telescope back to the nonnegative reweighted sums, so no
    negative cycle can appear, and |w| <= M by the choice of ranges.

    With backbone, the full cycle 1 -> 2 -> ... -> n -> 1 is always
    present, making the graph strongly connected.
    """
    if not (0.0 <= density <= 1.0):
        raise ValueError("density must be in [0, 1]")
    if M < 1:
        raise ValueError("need M >= 1")
    rng = Rng(seed)
    h = [rng.randint(0, M) for _ in range(n)]

    def weigh(u, v):
        wp = rng.randint(0, M + h[u - 1] - h[v - 1])
        return wp - h[u - 1] + h[v - 1]

    arcs = {}
    if backbone and n > 1:
        for u in range(1, n + 1):
            arcs[(u, u % n + 1)] = weigh(u, u % n + 1)
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u != v and (u, v) not in arcs and rng.unit() < density:
                arcs[(u, v)] = weigh(u, v)
    return make_graph(n, [(u, v, w) for (u, v), w in arcs.items()], M=M)


def _bellman_ford(g: Graph):
    """Super-source Bellman-Ford: h[v] = shortest distance from a virtual
    source with 0-arcs to every vertex. Returns (h, pred, relaxable);
    relaxable is an arc (u, v) that still relaxes, None when there is no
    negative cycle, and pred is then None too.

    Jacobi rounds relax every arc at once: after round r, h holds the
    least weight of a walk from the virtual source of at most r + 1 arcs.
    Without a negative cycle shortest paths are simple, of at most n arcs,
    so some round among the first n changes nothing and h is the distance
    vector, the one the sequential pass reaches too. A change in round n
    means a negative cycle; the sequential pass then traces it, so the
    witness does not depend on the round order. A round reads every
    candidate h[u] + w before it lowers h in place, so it is the Jacobi
    step, and it changes nothing exactly when no candidate is below its
    h[v].
    """
    u, v, w = g.arcs
    h = np.zeros(g.n, dtype=np.int64)
    for _ in range(g.n):
        cand = h[u] + w
        if not (cand < h[v]).any():
            return h, None, None
        np.minimum.at(h, v, cand)
    return _bellman_ford_sequential(g)


def _bellman_ford_sequential(g: Graph):
    """_bellman_ford arc by arc in edges order, with predecessors; on a
    negative cycle, relaxable is the first arc that still relaxes after
    n - 1 rounds."""
    n = g.n
    h = np.zeros(n, dtype=np.int64)
    pred = np.full(n, -1, dtype=np.int64)
    for _ in range(n - 1):
        changed = False
        for (u, v, w) in g.edges:
            cand = h[u - 1] + w
            if cand < h[v - 1]:
                h[v - 1] = cand
                pred[v - 1] = u - 1
                changed = True
        if not changed:
            break
    relaxable = None
    for (u, v, w) in g.edges:
        if h[u - 1] + w < h[v - 1]:
            relaxable = (u, v)
            break
    return h, pred, relaxable


def _trace_cycle(pred: np.ndarray, relaxable) -> list:
    """The negative cycle behind a Bellman-Ford's relaxable arc (u, v),
    as 1-based vertices; pred is that run's predecessor array."""
    u, v = relaxable
    pred[v - 1] = u - 1
    # the predecessor walk from v must revisit a vertex within n steps,
    # and the revisited stretch is a negative cycle
    seen = set()
    x = v - 1
    while x not in seen:
        seen.add(x)
        x = pred[x]
        if x < 0:
            raise RuntimeError("predecessor chain broke during cycle trace")
    cycle = [x]
    y = pred[x]
    while y != x:
        cycle.append(y)
        y = pred[y]
    cycle.reverse()
    return [c + 1 for c in cycle]


def find_negative_cycle(g: Graph):
    """A vertex list of some negative cycle, or None."""
    _, pred, relaxable = _bellman_ford(g)
    return None if relaxable is None else _trace_cycle(pred, relaxable)


def johnson_potentials(g: Graph) -> np.ndarray:
    """Potentials h with w(u,v) + h(u) - h(v) >= 0 for every arc; on a
    negative cycle, NegativeCycleError traced from the same Bellman-Ford."""
    h, pred, relaxable = _bellman_ford(g)
    if relaxable is not None:
        raise NegativeCycleError(cycle=_trace_cycle(pred, relaxable))
    return h


def transitive_closure(g: Graph) -> np.ndarray:
    """Boolean reachability matrix (diagonal true).

    Repeated squaring; the true diagonal makes each square contain the
    previous matrix, so ceil(log2 n) squarings reach paths of every length.
    numpy's Boolean matmul runs no BLAS, so each square is a float32 BLAS
    product of the 0/1 matrix clipped back to 1: every entry of the product
    counts walks through at most n middle vertices, an integer below 2**24,
    so float32 holds it exactly in any summation order.
    """
    n = g.n
    reach = np.eye(n, dtype=np.float32)
    u, v, _ = g.arcs
    reach[u, v] = 1.0
    steps = 1 if n <= 2 else int(np.ceil(np.log2(n)))
    for _ in range(steps):
        COUNTERS.bool_ops += n * n
        reach = np.minimum(reach @ reach, 1.0)
    return reach > 0
