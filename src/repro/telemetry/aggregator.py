"""Node monitors and the head-node utilization aggregator.

Two pieces mirror the paper's Fig. 5 data path:

* :class:`NodeMonitor` — runs on every worker; each *heartbeat* it reads
  the node's GPUs through the NVML layer and writes one point per
  (GPU, metric) into the node-local TSDB.
* :class:`UtilizationAggregator` — runs on the head node; on demand it
  queries every worker's TSDB for the recent window of any metric and
  produces the cluster-wide view the schedulers consume (free memory
  per GPU, recent utilization windows, sorted node lists).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

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


@dataclass(frozen=True)
class GpuView:
    """Aggregator's snapshot of one device at query time."""

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

    The aggregator is the only path through which schedulers observe the
    cluster — they never touch simulator internals directly, exactly as
    Kube-Knots' schedulers only see what Knots reports.
    """

    def __init__(
        self, monitors: Sequence[NodeMonitor], obs: Observability | None = None
    ) -> None:
        if not monitors:
            raise ValueError("aggregator needs at least one node monitor")
        self._monitors = {m.node.node_id: m for m in monitors}
        obs = obs or NOOP
        self._san = obs.sanitizer
        self._m_queries = obs.metrics.counter(
            "aggregator_queries_total", "Windowed telemetry queries served", labelnames=("metric",)
        )
        self._m_snapshots = obs.metrics.counter(
            "aggregator_snapshots_total", "Instantaneous cluster snapshots served"
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

    # -- instantaneous cluster snapshot ------------------------------------

    def snapshot(self) -> list[GpuView]:
        """Current view of every device, from the latest telemetry."""
        self._m_snapshots.inc()
        views: list[GpuView] = []
        for node_id in self.node_ids:
            node = self._monitors[node_id].node
            for gpu in node.gpus:
                s = gpu.last_sample
                views.append(
                    GpuView(
                        gpu_id=gpu.gpu_id,
                        node_id=node_id,
                        mem_capacity_mb=gpu.mem_capacity_mb,
                        free_alloc_mb=gpu.free_mem_mb,
                        mem_used_mb=s.mem_used_mb,
                        sm_util=s.sm_util,
                        num_containers=len(gpu.containers),
                        asleep=gpu.asleep,
                        failed=gpu.failed,
                        cordoned=gpu.cordoned,
                    )
                )
        if self._san is not None:
            for view in views:
                self._san.check_view(view)
        return views

    def sorted_by_free_memory(self) -> list[GpuView]:
        """Placeable devices sorted by free (unreserved) memory, descending.

        This is ``Sort_by_Free_Memory`` in Algorithm 1.  Failed devices
        are invisible until repaired and cordoned devices take no new
        placements; sleeping devices stay in (a policy that only walks
        awake devices filters on ``asleep``).  Ties break by gpu_id so
        the order — and therefore every experiment — is deterministic.
        """
        views = [v for v in self.snapshot() if not v.failed and not v.cordoned]
        return sorted(views, key=lambda v: (-v.free_alloc_mb, v.gpu_id))

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
