"""Outside-in span recording around the public calls of each layer.

A traced sample wraps bound methods on the live instances of one run
(:meth:`Spans.wrap`); nothing under ``src/repro`` is edited and
``repro.obs`` stays off, because turning it on disengages both fast
paths and the traced run would then measure a different program.

A wrapped call costs two clock reads and one list append: it records
``(name, start, end)`` when it returns.  Parents are rebuilt afterwards
from how the intervals nest, which holds because every wrapped call of
one recorder runs on one thread (the simulation's, or the serving
loop's).  Spans stay in memory and are written at the end as Chrome
trace-event JSON.  A span's *self* time is its duration minus its
direct children's, so the self times of a run add up to its root span.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Any, Callable

__all__ = ["HOOK", "Span", "Spans", "percentile", "tail_percentile"]

#: One span: name, start and end (ns), index of its parent (-1: none).
Span = tuple[str, int, int, int]

#: The span the benchmark's own result hooks run in.
HOOK = "bench.hook"


class Spans:
    """Spans recorded at wrapped layer boundaries, plus named samples."""

    def __init__(self) -> None:
        self.records: list[tuple[str, int, int]] = []
        self.samples: dict[str, list[float]] = {}

    # -- recording ---------------------------------------------------------

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        on_result: Callable[[Any], None] | None = None,
    ) -> None:
        """Replace ``obj.attr`` (a bound method) with a recording wrapper.

        ``on_result`` sees each call's return value after the span has
        closed, inside a :data:`HOOK` span of its own, so the enclosing
        layer's self time does not include it.
        """
        inner = getattr(obj, attr)
        append = self.records.append
        clock = perf_counter_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                append((name, start, clock()))
            if on_result is not None:
                start = clock()
                on_result(result)
                append((HOOK, start, clock()))
            return result

        setattr(obj, attr, wrapper)

    def span(self, name: str, fn: Callable[[], Any]) -> Any:
        """Call ``fn()`` inside one span (the root of a run)."""
        start = perf_counter_ns()
        try:
            return fn()
        finally:
            self.records.append((name, start, perf_counter_ns()))

    # -- analysis ----------------------------------------------------------

    def tree(self) -> list[Span]:
        """The spans in start order, each with its parent's index."""
        ordered = sorted(self.records, key=lambda r: (r[1], -r[2]))
        out: list[Span] = []
        open_: list[int] = []
        for name, start, end in ordered:
            while open_ and out[open_[-1]][2] <= start:
                open_.pop()
            out.append((name, start, end, open_[-1] if open_ else -1))
            open_.append(len(out) - 1)
        return out

    @staticmethod
    def self_ns(tree: list[Span]) -> list[int]:
        """Each span's duration minus its direct children's durations."""
        own = [end - start for _, start, end, _ in tree]
        for _, start, end, parent in tree:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def table(self, tree: list[Span] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_ms`` (outermost
        spans only, so recursion is not double-counted) and ``self_ms``."""
        tree = self.tree() if tree is None else tree
        own = self.self_ns(tree)
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, parent) in enumerate(tree):
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["self_ms"] += own[idx] / 1e6
            if parent < 0 or tree[parent][0] != name:
                row["total_ms"] += (end - start) / 1e6
        return out

    def durations_us(self, name: str) -> list[float]:
        return [(end - start) / 1e3 for n, start, end in self.records if n == name]

    def chrome_trace(self) -> dict[str, Any]:
        """The spans as Chrome trace-event JSON (``ph: X`` complete events)."""
        tree = self.tree()
        origin = tree[0][1] if tree else 0
        own = self.self_ns(tree)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": idx, "parent": parent, "self_us": own[idx] / 1e3},
            }
            for idx, (name, start, end, parent) in enumerate(tree)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: Candidate tail percentiles, highest first.
_TAILS = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest of p99.99/p99.9/p99/p95/p90/p75/p50 that leaves at
    least ten samples beyond it, as ``(q, value)``; p50 below 20 samples."""
    n = len(values)
    for q in _TAILS:
        if n * (100.0 - q) / 100.0 >= 10.0:
            return q, percentile(values, q)
    return 50.0, percentile(values, 50.0)
