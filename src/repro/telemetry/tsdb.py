"""Ring-buffer time-series store (InfluxDB stand-in) and its window search.

:class:`TimeSeriesDB` is a standalone per-series store: the CSV
round trip of :mod:`repro.telemetry.export` and the ``tsdb_window_query``
benchmark use it.  A simulation's telemetry lives in one
:class:`~repro.telemetry.matrix.MatrixTelemetry` ring instead, which
shares this module's window search (:class:`_Ring`).  The store is a
set of fixed-capacity ring buffers (one per series), and the hot query
— "the last *d* seconds of metric *m*" — is served without
materializing the ring:

* timestamps are appended monotonically (enforced by :meth:`write`), so
  window boundaries are found by binary search *inside* the ring — two
  ``searchsorted`` calls over the ring's two physical segments;
* the returned :class:`SeriesWindow` wraps **zero-copy read-only
  views** of the ring whenever the window is physically contiguous
  (always true before wraparound, and for most windows after); only a
  window that straddles the ring seam is assembled by copying — and
  then at most the requested window, never the whole ring;
* every series carries a **version counter** (one tick per append) and
  a one-entry query cache, so repeated queries of an unchanged window
  are served without touching the ring at all.

:meth:`query_many` / :meth:`last_windows` resolve a batch of metrics in
one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SeriesWindow", "TimeSeriesDB"]

#: Shared empty array used by every empty window (read-only).
_EMPTY = np.empty(0)
_EMPTY.flags.writeable = False


def _readonly(a: np.ndarray) -> np.ndarray:
    """Mark an array (or view) immutable; windows are shared telemetry."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SeriesWindow:
    """A queried chunk of one series: parallel time/value arrays.

    The arrays are read-only: a window is a *view* of shared telemetry
    (zero-copy where physically contiguous), and mutating it in place
    would corrupt every other consumer's reads (lint rule KK003).
    """

    times: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    def latest(self) -> float:
        """Most recent value in the window."""
        if len(self.values) == 0:
            raise ValueError("empty window has no latest value")
        return float(self.values[-1])

    def mean(self) -> float:
        return float(self.values.mean()) if len(self.values) else float("nan")


#: The one shared empty window (immutable, so sharing is safe).
_EMPTY_WINDOW = SeriesWindow(_EMPTY, _EMPTY)


class _Ring:
    """Time-ordered ring of timestamps with in-place window search.

    The shared base of :class:`_RingSeries` (one value array) and
    :class:`~repro.telemetry.matrix.MatrixTelemetry` (one column per
    device and metric): both append rows at ``head`` and hand out
    windows of a value array aligned with ``times``.  Appends must be
    time-monotonic (non-decreasing), which is what makes the binary
    search below sound.
    """

    __slots__ = ("times", "capacity", "head", "count", "version", "last_t")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.times = np.empty(capacity, dtype=np.float64)
        self.head = 0   # next write slot
        self.count = 0
        #: Bumped on every append; keys query caches and lets
        #: downstream caches (ranks, AR(1) stats) detect staleness.
        self.version = 0
        self.last_t = -np.inf

    def _advance(self, t: float) -> None:
        """Commit the row just written at ``head`` with timestamp ``t``."""
        self.head = (self.head + 1) % self.capacity
        if self.count < self.capacity:
            self.count += 1
        self.last_t = t
        self.version += 1

    def _logical_searchsorted(self, t: float, side: str) -> int:
        """``searchsorted`` over the time-ordered view, without building it.

        The ring holds at most two physically contiguous, individually
        sorted segments — ``times[head:]`` (older) then ``times[:head]``
        (newer) once full, or just ``times[:count]`` before that — and
        monotonic appends guarantee every older-segment timestamp is
        ``<=`` every newer-segment timestamp.
        """
        if self.count < self.capacity:
            return int(np.searchsorted(self.times[: self.count], t, side=side))
        older = self.times[self.head:]
        pos = int(np.searchsorted(older, t, side=side))
        if pos < len(older):
            return pos
        return len(older) + int(np.searchsorted(self.times[: self.head], t, side=side))

    def window_bounds(self, since: float | None, until: float | None) -> tuple[int, int]:
        """Logical row range ``[lo, hi)`` with ``since <= t <= until``."""
        lo = 0 if since is None else self._logical_searchsorted(since, "left")
        hi = self.count if until is None else self._logical_searchsorted(until, "right")
        return lo, hi

    def _slice(self, values: np.ndarray, lo: int, hi: int) -> SeriesWindow:
        """Logical rows ``[lo, hi)`` of ``values`` (aligned with
        ``times``) as a window: zero-copy read-only views unless the
        range straddles the ring seam, and then a copy of only
        ``hi - lo`` points, never the whole ring."""
        n = hi - lo
        if n <= 0:
            return _EMPTY_WINDOW
        if self.count < self.capacity:
            return SeriesWindow(_readonly(self.times[lo:hi]), _readonly(values[lo:hi]))
        start = self.head + lo
        end = start + n
        if start >= self.capacity:               # entirely in the newer segment
            start -= self.capacity
            end -= self.capacity
        elif end > self.capacity:                # straddles the seam: bounded copy
            wrap = end - self.capacity
            times = np.concatenate([self.times[start:], self.times[:wrap]])
            vals = np.concatenate([values[start:], values[:wrap]])
            return SeriesWindow(_readonly(times), _readonly(vals))
        return SeriesWindow(_readonly(self.times[start:end]), _readonly(values[start:end]))


class _RingSeries(_Ring):
    """Fixed-capacity ring buffer of (time, value) points."""

    __slots__ = ("values", "_cache_key", "_cache_window")

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self.values = np.empty(capacity, dtype=np.float64)
        self._cache_key: tuple[int, float | None, float | None] | None = None
        self._cache_window: SeriesWindow = _EMPTY_WINDOW

    def append(self, t: float, v: float) -> None:
        if t < self.last_t:
            raise ValueError(
                f"non-monotonic append: t={t!r} is before the series' last "
                f"timestamp {self.last_t!r}; out-of-order points would corrupt "
                "binary-searched window queries"
            )
        self.times[self.head] = t
        self.values[self.head] = v
        self._advance(t)

    # -- reference path ----------------------------------------------------

    def ordered(self) -> tuple[np.ndarray, np.ndarray]:
        """Time-ordered copies of the stored points (oldest first).

        The original copy-then-slice query path materialized this on
        every query; it is kept as the reference implementation for the
        equivalence property tests and the before/after benchmark.
        """
        if self.count < self.capacity:
            return self.times[: self.count].copy(), self.values[: self.count].copy()
        idx = np.concatenate([np.arange(self.head, self.capacity), np.arange(0, self.head)])
        return self.times[idx], self.values[idx]

    # -- in-ring fast path -------------------------------------------------

    def window(self, since: float | None, until: float | None) -> SeriesWindow:
        """Points with ``since <= t <= until`` — cached, zero-copy."""
        key = (self.version, since, until)
        if key == self._cache_key:
            return self._cache_window
        lo, hi = self.window_bounds(since, until)
        window = self._slice(self.values, lo, hi)
        self._cache_key = key
        self._cache_window = window
        return window


class TimeSeriesDB:
    """Metric store, one ring per named series, with windowed queries."""

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._series: dict[str, _RingSeries] = {}
        #: Optional owner-thread guard
        #: (:class:`repro.analysis.racedetect.ThreadAffinity`).  The
        #: store is lock-free by design — one writer, same-thread
        #: readers — and the guard makes that contract checkable: when
        #: installed (``--race-detect``), a touch from a foreign thread
        #: reports an ``owner_thread`` violation.
        self.guard = None

    def write(self, metric: str, t: float, value: float) -> None:
        """Append one point to ``metric`` (created on first write).

        Timestamps must be non-decreasing per series; an out-of-order
        point raises ``ValueError`` instead of silently corrupting the
        binary-searched query path.
        """
        if self.guard is not None:
            self.guard.check("write")
        series = self._series.get(metric)
        if series is None:
            series = self._series[metric] = _RingSeries(self._capacity)
        series.append(t, value)

    def write_many(self, t: float, values: dict[str, float]) -> None:
        """Append one point per metric at a shared timestamp."""
        for metric, v in values.items():
            self.write(metric, t, v)

    def metrics(self) -> list[str]:
        return sorted(self._series)

    def __contains__(self, metric: str) -> bool:
        return metric in self._series

    def version(self, metric: str) -> int:
        """Monotonic write counter for ``metric`` (0 if unseen).

        Anything caching derived state for a series (rank vectors,
        AR(1) sufficient statistics, ...) can key on this to detect
        staleness without comparing array contents.
        """
        series = self._series.get(metric)
        return 0 if series is None else series.version

    def query(self, metric: str, since: float | None = None, until: float | None = None) -> SeriesWindow:
        """Return points of ``metric`` with ``since <= t <= until``.

        An unknown metric yields an empty window.
        """
        if self.guard is not None:
            self.guard.check("query")
        series = self._series.get(metric)
        if series is None:
            return _EMPTY_WINDOW
        return series.window(since, until)

    def query_many(
        self,
        metrics: list[str] | tuple[str, ...],
        since: float | None = None,
        until: float | None = None,
    ) -> dict[str, SeriesWindow]:
        """One-pass batch of :meth:`query` over several metrics."""
        if self.guard is not None:
            self.guard.check("query_many")
        out: dict[str, SeriesWindow] = {}
        get = self._series.get
        for metric in metrics:
            series = get(metric)
            out[metric] = _EMPTY_WINDOW if series is None else series.window(since, until)
        return out

    def last_window(self, metric: str, window: float, now: float) -> SeriesWindow:
        """The last ``window`` time units of ``metric``, ending at ``now``.

        This is the query shape the PP scheduler issues every heartbeat
        (a five-second sliding window in the paper).
        """
        return self.query(metric, since=now - window, until=now)

    def last_windows(
        self, metrics: list[str] | tuple[str, ...], window: float, now: float
    ) -> dict[str, SeriesWindow]:
        """Batch :meth:`last_window` over several metrics."""
        return self.query_many(metrics, since=now - window, until=now)

    def latest(self, metric: str) -> tuple[float, float] | None:
        """Most recent (time, value) for ``metric``, or None if unseen."""
        series = self._series.get(metric)
        if series is None or series.count == 0:
            return None
        idx = (series.head - 1) % series.capacity
        return float(series.times[idx]), float(series.values[idx])
