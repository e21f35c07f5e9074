"""In-memory span recorder that wraps package functions at their module bindings.

The package is never edited: `install` replaces every `tapsp` module
attribute bound to a named function with a wrapper that records a span,
and `uninstall` puts the originals back. Spans nest on one stack (the
benchmark runs one client and starts no threads), so a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

COUNT_SPAN = "trace.count"  # time spent computing a boundary's counts


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    parent: int | None
    solve_id: int
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []  # boundaries not found in the package
        self.count_errors: set[str] = set()  # boundaries whose counter failed
        self._stack: list[Span] = []
        self._patches: list[tuple] = []
        self._solve_id: int | None = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self._solve_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    @contextmanager
    def solve(self, solve_id: int, name: str = "solve"):
        """Root span of one timed call; layer spans record only inside it."""
        self._solve_id = solve_id
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            self._solve_id = None

    def _wrap(self, name: str, fn, counter):
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._solve_id is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                # the count is the benchmark's own work: its span keeps that
                # time out of the self time of the layer that called `fn`
                count = self._open(COUNT_SPAN)
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counts = counter(bound.arguments, out)
                except (AttributeError, KeyError, TypeError, IndexError, ValueError):
                    self.count_errors.add(name)
                finally:
                    self._close(count)
            return out

        return wrapper

    def install(self, boundaries) -> None:
        """Wrap each (module, function, counter) at every tapsp binding of it."""
        for mod_name, fn_name, counter in boundaries:
            name = f"{mod_name}.{fn_name}"
            try:
                home = importlib.import_module(f"tapsp.{mod_name}")
            except ImportError:
                home = None
            orig = getattr(home, fn_name, None)
            if not callable(orig):
                if name not in self.missing:
                    self.missing.append(name)
                continue
            wrapper = self._wrap(name, orig, counter)
            for mod in [m for k, m in sys.modules.items()
                        if k == "tapsp" or k.startswith("tapsp.")]:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    @contextmanager
    def installed(self, boundaries):
        self.install(boundaries)
        try:
            yield self
        finally:
            self.uninstall()

    def signature(self, solve_id: int) -> list:
        """Span names and counts of one solve, in order: the deterministic part."""
        return [(s.name, sorted(s.counts.items()))
                for s in self.spans if s.solve_id == solve_id]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "solve": s.solve_id,
                    "self_s": s.self_s, "counts": s.counts}) + "\n")
