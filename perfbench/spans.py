"""Spans around public slimlat calls, and the tally of checked operations.

The benchmark times layers from outside the package: every call into a
layer goes through ``Tracer.call``, which records a span (name, start, end,
parent span, round) in memory.  The untraced runs use ``NULL_TRACER``, whose
``call`` is a plain call, so the two kinds of run execute the same calls and
differ only by the span bookkeeping, which ``overhead_s`` measures.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        yield

    def count(self, name, amount):
        pass


NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Tracing on: one span per call, plus named counters."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, round]
        self.counters: dict[str, int] = {}
        self.round = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.round]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def totals(self) -> dict[str, tuple[float, int]]:
        """Total seconds and number of spans per span name."""
        out: dict[str, tuple[float, int]] = {}
        for name, start, end, _, _ in self.spans:
            seconds, calls = out.get(name, (0.0, 0))
            out[name] = (seconds + end - start, calls + 1)
        return out

    def overhead_s(self, samples: int = 20000) -> float:
        """Cost of the recorded spans, from timing empty spans on a scratch tracer."""
        probe = Tracer()
        start = time.perf_counter()
        for _ in range(samples):
            probe.call("probe", int)
        per_span = (time.perf_counter() - start) / samples
        return per_span * len(self.spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "round"],
                       "spans": self.spans, "counters": self.counters}, handle)


class Tally:
    """Attempted and failed operations; every operation is checked against an
    answer computed by another route."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool, note: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{what}: {note}")
        return ok

    def expect(self, what: str, got, expected) -> bool:
        return self.record(what, got == expected, f"got {got!r}, expected {expected!r}")


def timed(tally: Tally, what: str, fn, expected) -> float:
    """Run one operation, check its result outside the timed region, and
    return its wall time.  An exception counts as a failed operation."""
    start = time.perf_counter()
    try:
        got = fn()
    except Exception as exc:  # a failing operation is data, not a crash
        elapsed = time.perf_counter() - start
        tally.record(what, False, f"{type(exc).__name__}: {exc}")
        return elapsed
    elapsed = time.perf_counter() - start
    tally.expect(what, got, expected)
    return elapsed
