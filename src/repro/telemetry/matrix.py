"""Cluster-wide matrix telemetry: one ring of ``(metrics, gpus)`` rows.

This is the one store behind Knots' monitoring plane (paper Sec. IV-A,
Fig. 5).  Every heartbeat writes all five NVML metrics of every device
at one shared timestamp, so the store is struct-of-arrays:

* one shared time ring ``times[rows]``, and
* one ``(rows, metrics, gpus)`` float64 block, one column per
  :class:`~repro.cluster.state.ClusterState` row; ``data[metric]`` is
  that metric's ``(rows, gpus)`` view of the block,

and a heartbeat is one row write from the hot row ``_cur``, which holds
the quantized ``ClusterState`` sample mirrors.  The NVML quantization
(percent scaling, byte-granular memory, milliwatt power, KB/s PCIe —
see :mod:`repro.telemetry.nvml`) is applied elementwise with the exact
same operations, so stored values are bit-identical to what
:class:`~repro.telemetry.nvml.NvmlSampler` reads from the GPU objects.

:meth:`MatrixTelemetry.append_span` logs an unchanged cluster at many
times at once — the idle fast-forward's observable tail — with one
requantization and at most two slice writes of the rows that survive in
the ring; :meth:`~MatrixTelemetry.append_from_state` is its one-row
case.  Either way the ring ends exactly as one append per time would
leave it.

Reads go through :meth:`MatrixTelemetry.query`: one binary search of
the shared time ring bounds every metric's window, each a zero-copy
read-only view of one column.  The search is the one
:class:`~repro.telemetry.tsdb.TimeSeriesDB`'s series use
(:class:`~repro.telemetry.tsdb._Ring`).

There are no direct writes: every row comes from the sample mirrors.
A test that needs a particular series sets each point as the device's
``last_sample`` and logs it with ``Knots.heartbeat``, as a simulation
does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.telemetry.nvml import METRICS
from repro.telemetry.tsdb import SeriesWindow, _Ring

__all__ = ["MatrixTelemetry"]

#: Extra ring rows beyond one query window: covers the sanitizer's
#: staleness slack and the fast-forward observable-tail replay.
_MARGIN_ROWS = 64


class MatrixTelemetry(_Ring):
    """Shared telemetry ring over every GPU of a cluster."""

    __slots__ = ("state", "block", "data", "_cur_row", "_cur", "guard")

    def __init__(self, state, heartbeat_ms: float, window_ms: float) -> None:
        rows = int(window_ms / heartbeat_ms) + 1 + _MARGIN_ROWS
        super().__init__(max(rows, 256))
        self.state = state
        n = len(state)
        #: Every stored heartbeat, ``(rows, metrics, gpus)``: a heartbeat
        #: is one ``block[row]`` write.
        self.block = np.empty((self.capacity, len(METRICS), n))
        self.data = {m: self.block[:, k] for k, m in enumerate(METRICS)}
        #: Quantized value of every device's *current* sample, kept hot
        #: across appends so a sparse heartbeat only requantizes the
        #: devices whose samples moved, then bulk-copies one row.
        self._cur_row = np.empty((len(METRICS), n))
        self._cur = {m: self._cur_row[k] for k, m in enumerate(METRICS)}
        #: Optional owner-thread guard
        #: (:class:`repro.analysis.racedetect.ThreadAffinity`), checked
        #: on every append and query.  The ring is lock-free by design —
        #: one writer, same-thread readers — and ``serve --race-detect``
        #: installs the guard to make that contract checkable.
        self.guard = None

    # -- writes -------------------------------------------------------------

    def append_from_state(self, now: float) -> None:
        """One heartbeat: the one-row case of :meth:`append_span`."""
        self.append_span((now,))

    def append_span(self, times: Sequence[float]) -> None:
        """Log the current ``ClusterState`` samples at every time in
        ``times``, as ``len(times)`` heartbeats of an unchanged cluster.

        The samples are requantized once and only the rows that survive
        in the ring are written, in at most two slice writes; ``head``,
        ``count``, ``version`` and ``last_t`` end as ``len(times)``
        appends would leave them.  ``times`` must be non-decreasing and
        start at or after the ring's last timestamp; otherwise
        ``ValueError`` is raised and the ring is left unchanged.
        """
        k = len(times)
        if k == 0:
            return
        if self.guard is not None:
            self.guard.check("write")
        if times[0] < self.last_t:
            raise ValueError(
                f"non-monotonic heartbeat: t={times[0]!r} is before the ring's last "
                f"timestamp {self.last_t!r}"
            )
        if k > 1:
            t = np.asarray(times, dtype=np.float64)
            bad = np.flatnonzero(t[1:] < t[:-1])
            if len(bad):
                i = int(bad[0])
                raise ValueError(
                    f"non-monotonic heartbeat span: t={float(t[i + 1])!r} follows {float(t[i])!r}"
                )
        self._requantize()
        # Of the k rows, the last ``keep`` survive in the ring; they
        # start ``k - keep`` slots past ``head`` and may wrap once.
        cap = self.capacity
        keep = min(k, cap)
        skip = k - keep
        start = (self.head + skip) % cap
        first = min(keep, cap - start)
        self.times[start:start + first] = times[skip:skip + first]
        self.block[start:start + first] = self._cur_row
        if first < keep:
            self.times[: keep - first] = times[skip + first:]
            self.block[: keep - first] = self._cur_row
        self.head = (self.head + k) % cap
        self.count = min(self.count + k, cap)
        self.last_t = times[-1]
        self.version += k

    def _requantize(self) -> None:
        """Bring the hot row up to the current sample mirrors and
        consume the dirty set.

        Each expression mirrors :class:`~repro.telemetry.nvml.NvmlSampler`'s
        NVML round trip exactly: percent scaling for utilizations,
        truncation to bytes/milliwatts (``np.floor`` == ``int()`` for
        non-negative values), KB/s PCIe.
        """
        s = self.state
        n = len(s.gpu_ids)
        cur = self._cur
        dirty = s.sample_dirty
        if self.version > 0 and len(dirty) * 8 < n:
            # Sparse heartbeat: a non-dirty device's mirror is unchanged
            # since the previous append, so its quantized value in the
            # hot ``_cur`` row is still exact — requantize only the
            # devices whose samples moved (the same elementwise IEEE
            # ops, over the dirty index vector).
            if dirty:
                idx = np.fromiter(dirty, dtype=np.intp, count=len(dirty))
                cur["sm_util"][idx] = (s.sm_util[idx] * 100.0) / 100.0
                cur["mem_util"][idx] = (
                    np.floor(s.mem_used_mb[idx] * 1048576.0) / s.cap_total_bytes[idx]
                )
                cur["power_w"][idx] = np.floor(s.power_w[idx] * 1000.0) / 1000.0
                cur["tx_mbps"][idx] = (s.tx_mbps[idx] * 1024.0) / 1024.0
                cur["rx_mbps"][idx] = (s.rx_mbps[idx] * 1024.0) / 1024.0
        else:
            # Full requantization into the hot row: the same elementwise
            # IEEE ops as the scalar NVML round trip, without 64 KB
            # temporaries per metric at the 8k-GPU scale.
            r = cur["sm_util"]
            np.multiply(s.sm_util, 100.0, out=r)
            r /= 100.0
            r = cur["mem_util"]
            np.multiply(s.mem_used_mb, 1048576.0, out=r)
            np.floor(r, out=r)
            r /= s.cap_total_bytes
            r = cur["power_w"]
            np.multiply(s.power_w, 1000.0, out=r)
            np.floor(r, out=r)
            r /= 1000.0
            r = cur["tx_mbps"]
            np.multiply(s.tx_mbps, 1024.0, out=r)
            r /= 1024.0
            r = cur["rx_mbps"]
            np.multiply(s.rx_mbps, 1024.0, out=r)
            r /= 1024.0
        dirty.clear()

    # -- reads --------------------------------------------------------------

    def query(
        self, col: int, metrics: Sequence[str], since: float, until: float
    ) -> dict[str, SeriesWindow]:
        """Points with ``since <= t <= until`` of device column ``col``,
        one window per metric, all bounded by one search of the shared
        time ring."""
        if self.guard is not None:
            self.guard.check("query")
        lo, hi = self.window_bounds(since, until)
        data = self.data
        return {metric: self._slice(data[metric][:, col], lo, hi) for metric in metrics}
