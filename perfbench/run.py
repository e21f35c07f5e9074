#!/usr/bin/env python3
"""tapsp benchmark: closed-loop solves checked against the Floyd-Warshall oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process sends the next call only after the previous one
returns. Each call gets a fresh instance built from (seed, call index)
before the timer starts, and its answer is compared with the oracle
distances of that instance, computed outside the timed interval.

--trace 0 reports the end-to-end metrics from calls into the untouched
package. Every timed interval sits between two runs of a fixed calibration
(calibrate.py), and its times are reported in seconds at reference speed,
so that stretches in which the shared host runs slower do not move them;
the raw wall times are printed alongside. --trace 1 alternates untraced
and traced calls on the same instances and reports the per-layer metrics from the traced ones; it also
replays the first traced calls to check that counts and answers repeat.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import calibrate, scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 15
SETUP_CALIBRATIONS = 3
TAIL_P = 75
MIN_CALLS = 40  # from 40 calls on, ten samples lie above p75
REPLAYS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "solves_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: build the first instance, print 'ready', "
                        "then the calibration times, and exit")
    return p.parse_args(argv)


def _import_package():
    if not (SRC / "tapsp" / "__init__.py").is_file():
        sys.exit(f"error: package source not found at {SRC / 'tapsp'}")
    sys.path.insert(0, str(SRC))
    import tapsp
    if Path(tapsp.__file__).resolve().parent != SRC / "tapsp":
        sys.exit(f"error: imported tapsp from {tapsp.__file__}, not from {SRC}")
    from workloads import WORKLOADS
    return WORKLOADS


def _setup_probe(args) -> tuple:
    """Time from process start to the first call being ready, in a fresh
    interpreter that imports the package, builds the first instance and its
    oracle distances, and prints 'ready'. Returns (wall seconds, seconds at
    reference speed).

    The probe calibrates itself after 'ready': the host may run it on
    another core than this process, at another speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        cal = proc.stdout.read().split()
    if proc.returncode != 0 or line.strip() != b"ready" or len(cal) != SETUP_CALIBRATIONS:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed, elapsed * scale(*map(float, cal))


class Loop:
    """One client calling in a closed loop; tallies attempts and failures."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def call(self, case, tracer=None):
        """Time one call; return (seconds, answer or None if it failed)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = self.workload.solve(case)
            else:
                with tracer.solve(case.index):
                    out = self.workload.solve(case)
            err = None
        except Exception as exc:  # a raising call is a failed call, counted and reported
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if err is None:
            err = self.workload.check(case, out)
        if err is not None:
            self.fail(case, err)
            out = None
        return elapsed, out

    def fail(self, case, reason: str) -> None:
        self.failed += 1
        print(f"FAIL workload={self.workload.name} seed={self.seed} "
              f"call={case.index} d={case.d}: {reason}", flush=True)


def _tail(durations) -> float:
    """Nearest-rank p75. The loop makes at least MIN_CALLS calls, so at
    least ten samples lie above it, and the percentile is the same on every
    commit."""
    ordered = sorted(durations)
    return ordered[math.ceil(TAIL_P / 100 * len(ordered)) - 1]


def _time_metrics(setups, durations, good: int) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "solve_s_p50": statistics.median(durations),
        "solve_s_tail": _tail(durations),
        "solves_per_s": good / sum(durations),
    }


def run_end_to_end(args, workload) -> tuple:
    loop = Loop(workload, args.seed)
    wall, durations, calls, setups = [], [], [], []
    good = 0
    loop_s = 0.0  # wall time of the loop, setup probes excluded
    index = 0
    # a run ends on a whole cycle of d values, so that each d has the same
    # share of the samples whatever the call count
    while loop_s < args.seconds or index < MIN_CALLS or index % workload.cycle:
        # setup probes run one at a time between calls, spread over the
        # run, so one slow stretch of the host does not set the median
        if len(setups) < SETUP_PROBES and loop_s >= len(setups) * args.seconds / SETUP_PROBES:
            setups.append(_setup_probe(args))
        t0 = time.perf_counter()
        case = workload.make(args.seed, index)
        before = calibrate()
        elapsed, out = loop.call(case)
        after = calibrate()
        loop_s += time.perf_counter() - t0
        wall.append(elapsed)
        durations.append(elapsed * scale(before, after))
        calls.append({"call": index, "d": case.d, "wall_s": elapsed,
                      "cal_s": [before, after], "ok": out is not None})
        good += out is not None
        index += 1
    while len(setups) < SETUP_PROBES:
        setups.append(_setup_probe(args))
    OUT.mkdir(exist_ok=True)
    (OUT / f"calls-{workload.name}-seed{args.seed}.json").write_text(json.dumps(calls))
    metrics = _time_metrics([s for _, s in setups], durations, good)
    raw = _time_metrics([w for w, _ in setups], wall, good)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"workload {workload.name}: n={workload.n}, seed={args.seed}, "
          f"closed loop, 1 client, {len(durations)} solves in {loop_s:.1f} s")
    print(f"  failed_frac            {loop.failed / loop.attempted:.6g} ratio "
          f"({loop.failed} of {loop.attempted})")
    notes = {"setup_s": f"median of {SETUP_PROBES} fresh processes",
             "solve_s_tail": f"p{TAIL_P}, {len(durations)} samples"}
    for name, unit in END_TO_END_UNITS.items():
        note = f"  ({notes[name]})" if name in notes else ""
        wall_note = f"  [wall {raw[name]:.6g}]" if name in raw else ""
        print(f"  {name:<22} {metrics[name]:.6g} {unit}{wall_note}{note}")
    print("  times in seconds at reference speed (calibrate.py); [wall] is unscaled")
    return loop, metrics, END_TO_END_UNITS


def run_traced(args, workload) -> tuple:
    from layers import BOUNDARIES, PER_LAYER_UNITS, per_layer
    from tracer import Tracer

    loop = Loop(workload, args.seed)
    tracer = Tracer()
    plain_s = traced_s = oracle_s = 0.0
    cases, answers = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        case = workload.make(args.seed, len(cases))
        # alternate which call of the pair goes first, so warm-up effects
        # do not land on one side of the overhead ratio
        for traced_turn in ((False, True) if case.index % 2 else (True, False)):
            if traced_turn:
                with tracer.installed(BOUNDARIES):
                    elapsed, traced = loop.call(case, tracer)
                traced_s += elapsed
            else:
                elapsed, plain = loop.call(case)
                plain_s += elapsed
        oracle_s += case.oracle_s
        if plain is not None and traced is not None \
                and workload.key(plain) != workload.key(traced):
            loop.fail(case, "traced answer differs from untraced answer")
        cases.append(case)
        answers.append(traced)

    # determinism self-check: a second traced run of the same instances
    # must repeat every span count and every answer
    replay = Tracer()
    for case, first in zip(cases[:REPLAYS], answers):
        with replay.installed(BOUNDARIES):
            _, again = loop.call(case, replay)
        if first is None or again is None:
            continue
        if workload.key(first) != workload.key(again):
            loop.fail(case, "replayed answer differs")
        if tracer.signature(case.index) != replay.signature(case.index):
            loop.fail(case, "replayed span counts differ")

    solves = len(cases)
    metrics = per_layer(tracer.spans, solves, oracle_s / solves,
                        traced_s / plain_s - 1.0)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    print(f"workload {workload.name}: n={workload.n}, seed={args.seed}, "
          f"{solves} traced solves, {len(tracer.spans)} spans -> {trace_path.relative_to(ROOT)}")
    print(f"  missing boundaries: {', '.join(tracer.missing) or 'none'}")
    if tracer.count_errors:
        print(f"  counters that failed: {', '.join(sorted(tracer.count_errors))}")
    layer_sum = (metrics["trace.solve_s"] - metrics["trace.other_self_s"]
                 - metrics["trace.count_s"])
    print(f"  listed self times sum to {layer_sum:.6g} s of {metrics['trace.solve_s']:.6g} s "
          f"per solve, {metrics['trace.count_s']:.6g} s of it counting; listed layers cover "
          f"{metrics['trace.coverage_frac']:.4f} of the rest")
    for name, unit in PER_LAYER_UNITS.items():
        print(f"  {name:<40} {metrics[name]:.6g} {unit}")
    return loop, metrics, PER_LAYER_UNITS


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_package()
    workload = workloads.get(args.workload)
    if workload is None:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads)}")
    if args.setup_probe:
        workload.make(args.seed, 0)
        print("ready", flush=True)
        calibrate()  # warm-up
        print(*(calibrate() for _ in range(SETUP_CALIBRATIONS)))
        return 0
    runner = run_traced if args.trace else run_end_to_end
    loop, metrics, units = runner(args, workload)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
