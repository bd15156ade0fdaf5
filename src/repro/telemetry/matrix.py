"""Cluster-wide matrix telemetry: one ring of heartbeats over every GPU.

This is the one store behind Knots' monitoring plane (paper Sec. IV-A,
Fig. 5).  Every heartbeat logs all five NVML metrics of every device at
one shared timestamp, yet in a large cluster most devices never move:
at 1024x8 under heavy CBP load, 72 of 8,192 samples change after the
first heartbeat.  So the store keeps a column only for a device that
has moved:

* one shared time ring ``times[rows]``;
* the hot row ``_cur_row[metrics, gpus]``: the quantized current sample
  of every device (the ``ClusterState`` mirrors, quantized);
* one ``(rows, metrics, columns)`` float64 block over the *stored*
  devices only, with ``slot[device]`` its block column (-1 while the
  device has held one value since the ring's first heartbeat) and, while
  the block is narrower than the cluster, ``cols[column]`` its device.

A device without a column has held the same quantized value in every
logged row, so its windows are read from ``_cur_row``.  When a device
first moves, its column is handed out *before* the hot row is
overwritten and filled with the old value in every logged row; from
then on every heartbeat writes it.  A heartbeat is one row write of
``_cur_row[:, cols]``.  The block starts ``min(gpus, 256)`` columns wide
and doubles, copying only the logged rows, up to one column per device;
at that width a device's column is its ``ClusterState`` row, so the
heartbeat is a plain copy of ``_cur_row`` again.

This rests on the ``ClusterState`` sync contract: every device whose
quantized sample can have changed since the previous append is in
``ClusterState.sample_dirty`` (:meth:`~repro.cluster.state.ClusterState.sync_sample`
marks every changed ring input and the vectorized quantum marks every
row it writes).  A device that moves without being marked would have its
new value read back over its whole history.

The NVML quantization (percent scaling, byte-granular memory, milliwatt
power, KB/s PCIe — see :mod:`repro.telemetry.nvml`) is applied
elementwise with the exact same operations, so stored values are
bit-identical to what :class:`~repro.telemetry.nvml.NvmlSampler` reads
from the GPU objects.

:meth:`MatrixTelemetry.append_span` logs an unchanged cluster at many
times at once — the idle fast-forward's observable tail — with one
requantization and at most two slice writes of the rows that survive in
the ring; :meth:`~MatrixTelemetry.append_from_state` is its one-row
case.  Either way the ring ends exactly as one append per time would
leave it.

Reads go through :meth:`MatrixTelemetry.query`: one binary search of
the shared time ring bounds every metric's window, each a zero-copy
read-only view of one block column, or of a zero-stride broadcast of
the held value for a device without a column.  The search is the one
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

#: Block width before the first growth: a 256-device cluster never
#: reallocates, and a larger one pays a few doublings at most.
_FIRST_COLUMNS = 256

#: Row of each metric in ``_cur_row`` and the block.
_METRIC_ROW = {m: k for k, m in enumerate(METRICS)}

#: Most moved devices a heartbeat requantizes one at a time, in Python
#: floats; more take the vectorized branches.  On a 2-vCPU Xeon the
#: vectorized sparse branch's ~15 NumPy calls cost about 20 us however
#: few devices moved, and this branch about 2 us a device, so they
#: cross near nine.  Most heartbeats move fewer: at seed 0, 2,757 of
#: the 2,765 ``paper_pp_32`` heartbeats that move a device move one or
#: two, and 718 of ``idle_sparse_64``'s 719 move one.
_FEW_MOVERS = 8


def _floor(x: float) -> float:
    """``np.floor`` of one float: ``//`` keeps a zero's sign and rounds
    toward -inf, and an infinity or NaN (which ``//`` turns into NaN)
    is its own floor."""
    return x // 1.0 if x - x == 0.0 else x


class MatrixTelemetry(_Ring):
    """Shared telemetry ring over every GPU of a cluster."""

    __slots__ = (
        "state", "block", "slot", "cols", "ncols", "_take", "_cur_row", "_cur", "guard",
    )

    def __init__(self, state, heartbeat_ms: float, window_ms: float) -> None:
        rows = int(window_ms / heartbeat_ms) + 1 + _MARGIN_ROWS
        super().__init__(max(rows, 256))
        self.state = state
        n = len(state)
        #: Stored heartbeats, ``(rows, metrics, columns)``: a heartbeat
        #: is one ``block[row]`` write over the stored devices.
        self.block = np.empty((self.capacity, len(METRICS), min(n, _FIRST_COLUMNS)))
        #: Block column of each device, -1 while it has no column.
        self.slot = np.full(n, -1, dtype=np.intp)
        #: Device of each block column while the block is narrower than
        #: the cluster; ``None`` once column ``j`` is device ``j``.
        self.cols: np.ndarray | None = np.empty(n, dtype=np.intp) if self.block.shape[2] < n else None
        #: Devices holding a column.
        self.ncols = 0
        #: Flat ``_cur_row`` index of every stored value of a heartbeat,
        #: ``(metrics, ncols)``, while ``cols`` is in use: one 1-D gather
        #: is the cheapest way to pick those columns out of the hot row.
        self._take = np.empty((len(METRICS), 0), dtype=np.intp)
        #: Quantized value of every device's *current* sample, kept hot
        #: across appends so a sparse heartbeat only requantizes the
        #: devices whose samples moved, then copies one row.
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
        if first < keep:
            self.times[: keep - first] = times[skip + first:]
        if self.cols is None:
            block, row = self.block, self._cur_row
        else:
            block = self.block[:, :, : self.ncols]
            row = self._cur_row.reshape(-1)[self._take]
        block[start:start + first] = row
        if first < keep:
            block[: keep - first] = row
        self.head = (self.head + k) % cap
        self.count = min(self.count + k, cap)
        self.last_t = times[-1]
        self.version += k

    def _requantize(self) -> None:
        """Bring the hot row up to the current sample mirrors and
        consume the dirty set, first giving every dirty device without
        a column one that holds its old value.

        Each expression mirrors :class:`~repro.telemetry.nvml.NvmlSampler`'s
        NVML round trip exactly: percent scaling for utilizations,
        truncation to bytes/milliwatts (``np.floor`` == ``int()`` for
        non-negative values), KB/s PCIe.  After the first append a
        non-dirty device's mirror is unchanged since the previous one,
        so its quantized value in the hot row is still exact and only
        the dirty devices are requantized: one at a time in Python
        floats for at most :data:`_FEW_MOVERS` of them, over an index
        vector while they are under an eighth of the cluster, else all
        at once.  The three give the same bits.
        """
        s = self.state
        n = len(s.gpu_ids)
        dirty = s.sample_dirty
        if self.version == 0:
            # The first append logs every device's first value.
            self._requantize_all()
        elif len(dirty) <= _FEW_MOVERS:
            if dirty:
                self._requantize_few(dirty)
        else:
            # A device that moves needs a column before the hot row
            # forgets the value it held.
            idx = np.fromiter(dirty, dtype=np.intp, count=len(dirty))
            if self.ncols < n:
                new = idx[self.slot[idx] < 0]
                if len(new):
                    new.sort()
                    self._add_columns(new)
            if len(dirty) * 8 < n:
                cur = self._cur
                cur["sm_util"][idx] = (s.sm_util[idx] * 100.0) / 100.0
                cur["mem_util"][idx] = (
                    np.floor(s.mem_used_mb[idx] * 1048576.0) / s.cap_total_bytes[idx]
                )
                cur["power_w"][idx] = np.floor(s.power_w[idx] * 1000.0) / 1000.0
                cur["tx_mbps"][idx] = (s.tx_mbps[idx] * 1024.0) / 1024.0
                cur["rx_mbps"][idx] = (s.rx_mbps[idx] * 1024.0) / 1024.0
            else:
                self._requantize_all()
        dirty.clear()

    def _requantize_few(self, movers: set[int]) -> None:
        """Requantize the devices ``movers`` one at a time: the
        vectorized expressions on Python floats, which round alike.  The
        capacity stays a NumPy scalar, so dividing by a zero one gives
        what the vectorized branches give."""
        s = self.state
        slot = self.slot
        if self.ncols < len(slot):
            new = [i for i in movers if slot.item(i) < 0]
            if new:
                new.sort()
                self._add_columns(np.array(new, dtype=np.intp))
        cur = self._cur
        sm, mem, power = cur["sm_util"], cur["mem_util"], cur["power_w"]
        tx, rx = cur["tx_mbps"], cur["rx_mbps"]
        cap = s.cap_total_bytes
        for i in movers:
            sm[i] = (s.sm_util.item(i) * 100.0) / 100.0
            mem[i] = _floor(s.mem_used_mb.item(i) * 1048576.0) / cap[i]
            power[i] = _floor(s.power_w.item(i) * 1000.0) / 1000.0
            tx[i] = (s.tx_mbps.item(i) * 1024.0) / 1024.0
            rx[i] = (s.rx_mbps.item(i) * 1024.0) / 1024.0

    def _requantize_all(self) -> None:
        """Requantize every device into the hot row: the same
        elementwise IEEE ops as the scalar NVML round trip, without
        64 KB temporaries per metric at the 8k-GPU scale."""
        s = self.state
        cur = self._cur
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

    def _add_columns(self, new: np.ndarray) -> None:
        """Give the devices ``new`` (sorted, none holding a column) a
        column each, holding their hot-row value in every logged row."""
        n = len(self.slot)
        nc = self.ncols
        need = nc + len(new)
        rows = self.count
        width = self.block.shape[2]
        if need > width:
            # Double up to one column per device, copying only the
            # logged rows: the rest are written before they are read.
            while width < need:
                width *= 2
            width = min(width, n)
            old = self.block
            self.block = np.empty((self.capacity, len(METRICS), width))
            if width < n:
                self.block[:rows, :, :nc] = old[:rows, :, :nc]
            else:
                # Full width: each stored device moves to its own row
                # of ``ClusterState``, and heartbeats copy ``_cur_row``.
                stored = self.cols[:nc]
                self.block[:rows, :, stored] = old[:rows, :, :nc]
                self.slot[stored] = stored
                self.cols = None
        cur = self._cur_row[:, new]
        if self.cols is None:
            self.slot[new] = new
            self.block[:rows, :, new] = cur
        else:
            self.slot[new] = np.arange(nc, need)
            self.cols[nc:need] = new
            self.block[:rows, :, nc:need] = cur
            self._take = self.cols[:need] + n * np.arange(len(METRICS))[:, None]
        self.ncols = need

    # -- reads --------------------------------------------------------------

    def query(
        self, col: int, metrics: Sequence[str], since: float, until: float
    ) -> dict[str, SeriesWindow]:
        """Points with ``since <= t <= until`` of device ``col`` (its
        ``ClusterState`` row), one window per metric, all bounded by one
        search of the shared time ring."""
        if self.guard is not None:
            self.guard.check("query")
        lo, hi = self.window_bounds(since, until)
        j = self.slot[col]
        if j < 0:
            # One value in every logged row: a read-only, zero-stride
            # window of it (a seam-straddling window copies, as ever).
            # A BLAS dot over it can round differently from one over a
            # strided column of the same values; the windows PP reads
            # of such devices hold an idle device's zero ``mem_util``.
            cur, cap = self._cur, self.capacity
            return {
                metric: self._slice(np.broadcast_to(cur[metric][col], (cap,)), lo, hi)
                for metric in metrics
            }
        block = self.block
        return {metric: self._slice(block[:, _METRIC_ROW[metric], j], lo, hi) for metric in metrics}
