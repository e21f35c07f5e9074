"""Host-speed calibration: a fixed piece of work timed next to every timed call.

On a shared host the same solve can run 30-40% slower for stretches of a
few seconds, and whole runs can land in a slow or a fast stretch. The
calibration does the same kinds of work as the package's hot paths
(Python-int matrix products through numpy object arrays, heap-based
Dijkstra in pure Python, small int64 numpy min-plus steps) on fixed
inputs that never change with the package. A wall time measured between
two calibrations is scaled by CAL_REF_S over their median, giving seconds at
reference speed: the time the call would have taken on a host that runs
the calibration in CAL_REF_S. Setup probes, which run in a process of
their own, are scaled by calibrations made in that process.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

import numpy as np

# Median calibration time on the 2-core x86-64 VM the bounds were set on
# (Python 3.11, numpy 2.4). It only sets the scale of the reported
# seconds; comparisons between commits do not depend on it.
CAL_REF_S = 0.0134

_rnd = random.Random(20021)
_BIG = np.array([[_rnd.getrandbits(400) for _ in range(12)] for _ in range(12)],
                dtype=object)
_ADJ = [[(_rnd.randrange(200), _rnd.randint(1, 9)) for _ in range(4)]
        for _ in range(200)]
_SMALL = np.array([[_rnd.randint(-9, 9) for _ in range(24)] for _ in range(24)],
                  dtype=np.int64)


def _dijkstra(src: int) -> list:
    dist = [1 << 60] * len(_ADJ)
    dist[src] = 0
    heap = [(0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _ADJ[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def calibrate() -> float:
    """Wall seconds the fixed calibration work takes right now."""
    t0 = time.perf_counter()
    for _ in range(3):
        np.dot(_BIG, _BIG)
    for src in range(16):
        _dijkstra(src)
    m = _SMALL
    for _ in range(100):
        m = np.minimum(m, (m[:, :, None] + _SMALL[None, :, :]).min(axis=1))
    return time.perf_counter() - t0


def scale(*cal_s: float) -> float:
    """Factor from wall seconds to seconds at reference speed, given the
    calibration times measured around the interval."""
    return CAL_REF_S / statistics.median(cal_s)
