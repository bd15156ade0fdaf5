"""Cluster-wide matrix telemetry: one ring of `(rows, gpus)` metric matrices.

This is the one store behind Knots' monitoring plane (paper Sec. IV-A,
Fig. 5).  Every heartbeat writes all five NVML metrics of every device
at one shared timestamp, so the store is struct-of-arrays:

* one shared time ring ``times[rows]``, and
* one ``(rows, gpus)`` float64 matrix per metric, one column per
  :class:`~repro.cluster.state.ClusterState` row,

and a heartbeat is five vectorized row writes from the ``ClusterState``
sample mirrors.  The NVML quantization (percent scaling, byte-granular
memory, milliwatt power, KB/s PCIe — see :mod:`repro.telemetry.nvml`)
is applied elementwise with the exact same operations, so stored values
are bit-identical to what :class:`~repro.telemetry.nvml.NvmlSampler`
reads from the GPU objects.

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

    __slots__ = ("state", "data", "_cur", "guard")

    def __init__(self, state, heartbeat_ms: float, window_ms: float) -> None:
        rows = int(window_ms / heartbeat_ms) + 1 + _MARGIN_ROWS
        super().__init__(max(rows, 256))
        self.state = state
        n = len(state)
        self.data = {m: np.empty((self.capacity, n)) for m in METRICS}
        #: Quantized value of every device's *current* sample, kept hot
        #: across appends so a sparse heartbeat only requantizes the
        #: devices whose samples moved, then bulk-copies one row.
        self._cur = {m: np.empty(n) for m in METRICS}
        #: Optional owner-thread guard
        #: (:class:`repro.analysis.racedetect.ThreadAffinity`), checked
        #: on every append and query.  The ring is lock-free by design —
        #: one writer, same-thread readers — and ``serve --race-detect``
        #: installs the guard to make that contract checkable.
        self.guard = None

    # -- writes -------------------------------------------------------------

    def append_from_state(self, now: float) -> None:
        """One heartbeat: quantized sample row per metric, vectorized.

        Each expression mirrors :class:`~repro.telemetry.nvml.NvmlSampler`'s
        NVML round trip exactly: percent scaling for utilizations,
        truncation to bytes/milliwatts (``np.floor`` == ``int()`` for
        non-negative values), KB/s PCIe.
        """
        if self.guard is not None:
            self.guard.check("write")
        if now < self.last_t:
            raise ValueError(
                f"non-monotonic heartbeat: t={now!r} is before the ring's last "
                f"timestamp {self.last_t!r}"
            )
        s = self.state
        n = len(s.gpu_ids)
        row = self.head
        self.times[row] = now
        data = self.data
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
        for metric in METRICS:
            np.copyto(data[metric][row], cur[metric])
        self._advance(now)

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
