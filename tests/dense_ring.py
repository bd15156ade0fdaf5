"""The write-every-column telemetry ring: the oracle for the sparse one.

:class:`~repro.telemetry.matrix.MatrixTelemetry` once stored one block
column per device and wrote every device's five quantized metrics at
every heartbeat.  The shipped ring now stores a column only for a
device whose sample has moved since its first heartbeat.  This module
keeps the dense ring, unchanged, so tests can drive both through the
same heartbeats and require every window to be identical byte for byte.

:class:`DenseRing` also exposes what the shipped ring no longer has:
``data[metric]``, the ``(rows, gpus)`` view of one metric, and
:meth:`DenseRing.logged`, every logged row in time order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.telemetry.nvml import METRICS
from repro.telemetry.tsdb import SeriesWindow, _Ring

__all__ = ["DenseRing", "windows_of"]

#: Extra ring rows beyond one query window (as in the shipped ring).
_MARGIN_ROWS = 64


class DenseRing(_Ring):
    """Shared telemetry ring with one column per device, always written."""

    __slots__ = ("state", "block", "data", "_cur_row", "_cur")

    def __init__(self, state, heartbeat_ms: float, window_ms: float) -> None:
        rows = int(window_ms / heartbeat_ms) + 1 + _MARGIN_ROWS
        super().__init__(max(rows, 256))
        self.state = state
        n = len(state)
        self.block = np.empty((self.capacity, len(METRICS), n))
        self.data = {m: self.block[:, k] for k, m in enumerate(METRICS)}
        self._cur_row = np.empty((len(METRICS), n))
        self._cur = {m: self._cur_row[k] for k, m in enumerate(METRICS)}

    def append_from_state(self, now: float) -> None:
        self.append_span((now,))

    def append_span(self, times: Sequence[float]) -> None:
        k = len(times)
        if k == 0:
            return
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
        s = self.state
        n = len(s.gpu_ids)
        cur = self._cur
        dirty = s.sample_dirty
        if self.version > 0 and len(dirty) * 8 < n:
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

    def query(
        self, col: int, metrics: Sequence[str], since: float, until: float
    ) -> dict[str, SeriesWindow]:
        lo, hi = self.window_bounds(since, until)
        data = self.data
        return {metric: self._slice(data[metric][:, col], lo, hi) for metric in metrics}

    def _order(self) -> np.ndarray:
        """Physical rows of the logged heartbeats, oldest first."""
        if self.count < self.capacity:
            return np.arange(self.count)
        return np.concatenate([np.arange(self.head, self.capacity), np.arange(self.head)])

    def logged(self) -> dict[str, np.ndarray]:
        """Every logged row of each metric, oldest first: ``(count, gpus)``."""
        order = self._order()
        return {m: self.data[m][order] for m in METRICS}

    def logged_times(self) -> np.ndarray:
        """The logged heartbeat times, oldest first."""
        return self.times[self._order()]


def windows_of(ring) -> dict[str, np.ndarray]:
    """Every logged row of each metric, oldest first, read through
    ``query`` only: ``(count, gpus)``, for either ring."""
    n = len(ring.state)
    out = {m: np.empty((ring.count, n)) for m in METRICS}
    for col in range(n):
        for metric, window in ring.query(col, METRICS, -np.inf, np.inf).items():
            out[metric][:, col] = window.values
    return out
