"""Counters, gauges and fixed-bucket histograms with Prometheus export.

A tiny instrumentation registry for the simulator's hot paths.  The
shapes follow the Prometheus client-library conventions — counters only
go up, histograms keep cumulative bucket counts plus ``_sum``/``_count``
— so :meth:`MetricsRegistry.render` emits valid text exposition format
that ``promtool`` or any Prometheus scraper would accept.

Like the tracer, the disabled path (:class:`NullMetricsRegistry`) hands
out shared null instruments whose mutators are empty methods: call
sites pre-create their instruments once at wiring time and pay one
no-op call per update when observability is off.

Under ``repro serve`` the service thread writes instruments while a
``/metrics`` scrape renders them from another thread.  Every ``render``
therefore first copies what it reads — ``dict(...)`` of the value maps,
``list(...)`` of a histogram's bucket counts, each one step under the
GIL since the keys are strings or tuples of strings — and formats only
the copies, so a scrape never iterates a dict that is growing and every
series it shows is read at one point in time.
"""

from __future__ import annotations

import bisect
import re
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "DEFAULT_BUCKETS_MS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default latency buckets, in sim milliseconds (queue waits, JCTs).
DEFAULT_BUCKETS_MS: tuple[float, ...] = (
    1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0, 30_000.0, 60_000.0,
)


def _label_key(labelnames: tuple[str, ...], labels: dict[str, str]) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(f"expected labels {labelnames}, got {tuple(labels)}")
    return tuple(str(labels[n]) for n in labelnames)


def _escape_label_value(value: str) -> str:
    """Prometheus text-format label-value escaping: backslash, double
    quote and newline must be escaped or the exposition is corrupt (a
    raw quote ends the value early, a raw newline ends the sample)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """HELP-line escaping: backslash and newline (quotes are legal)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_labels(labelnames: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    pairs = [f'{n}="{_escape_label_value(v)}"' for n, v in zip(labelnames, values)]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Instrument:
    """Shared plumbing: name, help text, label schema."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)


class Counter(_Instrument):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.labelnames, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(self.labelnames, labels), 0.0)

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {_escape_help(self.help)}", f"# TYPE {self.name} counter"]
        values = dict(self._values)
        if not values:
            lines.append(f"{self.name} 0")
            return lines
        for key in sorted(values):
            lines.append(f"{self.name}{_fmt_labels(self.labelnames, key)} {values[key]:g}")
        return lines


class Gauge(_Instrument):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[_label_key(self.labelnames, labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(self.labelnames, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(self.labelnames, labels), 0.0)

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {_escape_help(self.help)}", f"# TYPE {self.name} gauge"]
        values = dict(self._values)
        if not values:
            lines.append(f"{self.name} 0")
            return lines
        for key in sorted(values):
            lines.append(f"{self.name}{_fmt_labels(self.labelnames, key)} {values[key]:g}")
        return lines


class Histogram(_Instrument):
    """Fixed-boundary histogram with cumulative Prometheus buckets."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS_MS,
        labelnames: Iterable[str] = (),
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if len(set(bounds)) != len(bounds):
            raise ValueError("duplicate bucket boundaries")
        self.buckets = bounds
        # per label-key: per-bucket (non-cumulative) counts, +1 slot for +Inf
        self._counts: dict[tuple[str, ...], list[int]] = {}
        self._sums: dict[tuple[str, ...], float] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(self.labelnames, labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = [0] * (len(self.buckets) + 1)
            self._sums[key] = 0.0
        counts[bisect.bisect_left(self.buckets, value)] += 1
        self._sums[key] += value

    def count(self, **labels: str) -> int:
        key = _label_key(self.labelnames, labels)
        return sum(self._counts.get(key, ()))

    def sum(self, **labels: str) -> float:
        return self._sums.get(_label_key(self.labelnames, labels), 0.0)

    def bucket_counts(self, **labels: str) -> dict[float, int]:
        """Cumulative counts per upper bound (``inf`` key = total)."""
        key = _label_key(self.labelnames, labels)
        counts = self._counts.get(key, [0] * (len(self.buckets) + 1))
        out: dict[float, int] = {}
        running = 0
        for bound, c in zip(self.buckets, counts):
            running += c
            out[bound] = running
        out[float("inf")] = running + counts[-1]
        return out

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {_escape_help(self.help)}", f"# TYPE {self.name} histogram"]
        all_counts = dict(self._counts)
        sums = dict(self._sums)
        if all_counts:
            keys = sorted(all_counts)
        else:
            # An unobserved unlabelled histogram still exposes its
            # (empty) buckets; a labelled one has no series to show.
            keys = [()] if not self.labelnames else []
        for key in keys:
            counts = list(all_counts.get(key, [0] * (len(self.buckets) + 1)))
            running = 0
            for bound, c in zip(self.buckets, counts):
                running += c
                le = _fmt_labels(self.labelnames, key, extra=f'le="{bound:g}"')
                lines.append(f"{self.name}_bucket{le} {running}")
            le = _fmt_labels(self.labelnames, key, extra='le="+Inf"')
            lines.append(f"{self.name}_bucket{le} {running + counts[-1]}")
            lines.append(
                f"{self.name}_sum{_fmt_labels(self.labelnames, key)} {sums.get(key, 0.0):g}"
            )
            lines.append(
                f"{self.name}_count{_fmt_labels(self.labelnames, key)} {running + counts[-1]}"
            )
        return lines


class MetricsRegistry:
    """Get-or-create instrument registry with text exposition."""

    enabled: bool = True

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, cls: type, name: str, **kwargs: Any) -> Any:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}, not {cls.kind}"
                )
            return existing
        inst = cls(name, **kwargs)
        self._instruments[name] = inst
        return inst

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help=help, labelnames=labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help=help, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS_MS,
        labelnames: Iterable[str] = (),
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help=help, buckets=buckets, labelnames=labelnames)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> _Instrument | None:
        return self._instruments.get(name)

    def render(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        instruments = dict(self._instruments)
        lines: list[str] = []
        for name in sorted(instruments):
            lines.extend(instruments[name].render())
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.render())


class _NullCounter(Counter):
    def __init__(self) -> None:
        super().__init__("null_total")

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        pass


class _NullGauge(Gauge):
    def __init__(self) -> None:
        super().__init__("null")

    def set(self, value: float, **labels: str) -> None:
        pass

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        pass


class _NullHistogram(Histogram):
    def __init__(self) -> None:
        super().__init__("null", buckets=(1.0,))

    def observe(self, value: float, **labels: str) -> None:
        pass


class NullMetricsRegistry(MetricsRegistry):
    """Disabled registry: hands out shared no-op instruments."""

    enabled = False
    _COUNTER = _NullCounter()
    _GAUGE = _NullGauge()
    _HISTOGRAM = _NullHistogram()

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Counter:
        return self._COUNTER

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Gauge:
        return self._GAUGE

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS_MS,
        labelnames: Iterable[str] = (),
    ) -> Histogram:
        return self._HISTOGRAM

    def render(self) -> str:
        return ""
