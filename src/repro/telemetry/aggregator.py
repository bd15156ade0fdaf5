"""Node monitors and the head-node utilization aggregator.

Two pieces mirror the paper's Fig. 5 data path:

* :class:`NodeMonitor` — runs on every worker; each *heartbeat* it reads
  the node's GPUs through the NVML layer and writes one point per
  (GPU, metric) into the node-local TSDB.
* :class:`UtilizationAggregator` — runs on the head node; on demand it
  queries every worker's TSDB for the recent window of any metric
  (the utilization windows the schedulers consume).

:class:`GpuView` is one device in Algorithm 1's ``Sort_by_Free_Memory``
list.  :meth:`repro.core.knots.Knots.all_gpus_by_free_memory` builds
that list from the :class:`~repro.cluster.state.ClusterState` columns
(one sort over the arrays, every field a column read), not by walking
the GPU objects.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.cluster.node import GpuNode
from repro.obs.context import NOOP, Observability
from repro.telemetry.nvml import METRICS, NvmlSampler
from repro.telemetry.tsdb import SeriesWindow, TimeSeriesDB

__all__ = ["NodeMonitor", "GpuView", "UtilizationAggregator"]


class NodeMonitor:
    """Per-worker Knots monitor: NVML -> node TSDB, once per heartbeat."""

    def __init__(self, node: GpuNode, tsdb: TimeSeriesDB | None = None) -> None:
        self.node = node
        self.tsdb = tsdb or TimeSeriesDB()
        self._sampler = NvmlSampler(node.gpus)

    def heartbeat(self, now: float) -> None:
        """Sample all devices and log one point per (gpu, metric)."""
        for gpu_id, metrics in self._sampler.sample().items():
            for metric, value in metrics.items():
                self.tsdb.write(f"{gpu_id}.{metric}", now, value)

    def series(self, gpu_id: str, metric: str, window: float, now: float) -> SeriesWindow:
        return self.tsdb.last_window(f"{gpu_id}.{metric}", window, now)

    def series_many(
        self, gpu_id: str, metrics: Sequence[str], window: float, now: float
    ) -> dict[str, SeriesWindow]:
        """All of ``metrics`` for one device in a single TSDB pass."""
        keys = [f"{gpu_id}.{m}" for m in metrics]
        windows = self.tsdb.last_windows(keys, window, now)
        return {m: windows[k] for m, k in zip(metrics, keys)}


class GpuView(NamedTuple):
    """Head-node snapshot of one device at query time.

    A named tuple rather than a frozen dataclass: a pass builds one per
    placeable device, and the tuple costs a fraction to construct.
    """

    gpu_id: str
    node_id: str
    mem_capacity_mb: float
    free_alloc_mb: float      # unreserved memory (admission headroom)
    mem_used_mb: float        # physically used right now (telemetry)
    sm_util: float
    num_containers: int
    asleep: bool
    failed: bool = False
    cordoned: bool = False    # drained: residents run, no new placements

    @property
    def free_physical_mb(self) -> float:
        """Physically unused memory — what harvesting can reclaim."""
        return self.mem_capacity_mb - self.mem_used_mb


class UtilizationAggregator:
    """Head-node aggregator over all worker TSDBs (Fig. 5).

    Every windowed telemetry read a scheduler makes goes through the
    aggregator; the instantaneous device list comes from Knots.
    Schedulers never touch simulator internals directly, exactly as
    Kube-Knots' schedulers only see what Knots reports.
    """

    def __init__(
        self, monitors: Sequence[NodeMonitor], obs: Observability | None = None
    ) -> None:
        if not monitors:
            raise ValueError("aggregator needs at least one node monitor")
        self._monitors = {m.node.node_id: m for m in monitors}
        obs = obs or NOOP
        self._m_queries = obs.metrics.counter(
            "aggregator_queries_total", "Windowed telemetry queries served", labelnames=("metric",)
        )

    @property
    def node_ids(self) -> list[str]:
        return sorted(self._monitors)

    def monitor(self, node_id: str) -> NodeMonitor:
        return self._monitors[node_id]

    # -- windowed series queries (PP's five-second sliding window) --------

    def query(self, gpu_id: str, metric: str, window: float, now: float) -> SeriesWindow:
        """Last ``window`` units of one metric for one GPU."""
        node_id = gpu_id.split("/", 1)[0]
        mon = self._monitors.get(node_id)
        if mon is None:
            raise KeyError(f"no monitor for node {node_id!r}")
        self._m_queries.inc(metric=metric)
        return mon.series(gpu_id, metric, window, now)

    def query_node_stats(self, gpu_id: str, window: float, now: float) -> dict[str, SeriesWindow]:
        """Algorithm 1's ``QUERY``: all five metric windows for a device.

        Resolved as one batched TSDB pass (:meth:`NodeMonitor.series_many`)
        rather than five independent query round-trips.
        """
        node_id = gpu_id.split("/", 1)[0]
        mon = self._monitors.get(node_id)
        if mon is None:
            raise KeyError(f"no monitor for node {node_id!r}")
        for metric in METRICS:
            self._m_queries.inc(metric=metric)
        return mon.series_many(gpu_id, METRICS, window, now)

    def cluster_utilization(self, window: float, now: float, metric: str = "sm_util") -> np.ndarray:
        """Stacked per-device series for a metric, shape (n_gpus, n_pts).

        Series are aligned by truncating to the shortest window, which
        only matters in the first seconds of a run.  Each node's TSDB is
        visited once through the batch query API, and the aligned
        series land directly in one preallocated matrix (no per-device
        re-query, no intermediate Python list-of-copies).
        """
        series: list[np.ndarray] = []
        for node_id in self.node_ids:
            mon = self._monitors[node_id]
            gpu_ids = [gpu.gpu_id for gpu in mon.node.gpus]
            windows = mon.tsdb.last_windows(
                [f"{gid}.{metric}" for gid in gpu_ids], window, now
            )
            for _ in gpu_ids:
                self._m_queries.inc(metric=metric)
            series.extend(w.values for w in windows.values())
        if not series:
            return np.empty((0, 0))
        n = min(len(s) for s in series)
        out = np.empty((len(series), n))
        if n == 0:
            return out
        for i, s in enumerate(series):
            out[i] = s[len(s) - n:]
        return out
