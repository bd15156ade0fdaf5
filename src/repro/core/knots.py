"""Knots: the GPU-aware orchestration runtime (paper Sec. IV-A).

Knots is the glue between raw device telemetry and scheduling policy:

* every *heartbeat* it logs the five NVML metrics of every GPU into one
  cluster-wide :class:`~repro.telemetry.matrix.MatrixTelemetry` ring
  (the per-node TSDBs and head-node aggregator of the paper's Fig. 5,
  as one store), and serves the schedulers' windowed reads from it;
* it owns the :class:`ProfileStore` of per-image usage profiles built
  from runtime feedback (no a priori profiling);
* it exposes Algorithm 1's primitives: ``query`` (all metric windows
  for a device) and the device list sorted by free memory, built from
  the cluster's :class:`~repro.cluster.state.ClusterState` columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.profiles import ProfileStore
from repro.obs.context import NOOP, Observability
from repro.telemetry.matrix import MatrixTelemetry
from repro.telemetry.nvml import METRICS
from repro.telemetry.tsdb import SeriesWindow

__all__ = ["KnotsConfig", "Knots", "GpuView"]


class GpuView(NamedTuple):
    """Head-node snapshot of one device at query time: one entry of
    Algorithm 1's ``Sort_by_Free_Memory`` list.

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


@dataclass(frozen=True)
class KnotsConfig:
    """Timing parameters of the monitoring plane."""

    heartbeat_ms: float = 10.0      # TSDB logging cadence (1 ms in the paper)
    window_ms: float = 5_000.0      # sliding window the schedulers query (5 s)


class Knots:
    """The runtime system aggregating cluster-wide GPU telemetry."""

    def __init__(
        self,
        cluster: Cluster,
        config: KnotsConfig | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.cluster = cluster
        self.config = config or KnotsConfig()
        self.obs = obs or NOOP
        self.state = cluster.state
        #: Every device's telemetry, one column per ClusterState row.
        self.matrix = MatrixTelemetry(
            self.state, self.config.heartbeat_ms, self.config.window_ms
        )
        self.profiles = ProfileStore()
        metrics = self.obs.metrics
        self._m_heartbeats = metrics.counter(
            "knots_heartbeats_total", "Monitoring-plane sampling rounds"
        )
        self._m_queries = metrics.counter(
            "aggregator_queries_total", "Windowed telemetry queries served", labelnames=("metric",)
        )
        self._m_snapshots = metrics.counter(
            "aggregator_snapshots_total", "Instantaneous cluster snapshots served"
        )
        # Static view columns, in ClusterState row order.
        self._view_ids = np.array(self.state.gpu_ids, dtype=object)
        self._view_nodes = np.array(self.state.node_ids, dtype=object)[self.state.node_of]

    # -- monitoring plane ---------------------------------------------------

    def heartbeat(self, now: float) -> None:
        """Log every device's current sample (one heartbeat): one
        vectorized row append to the telemetry ring."""
        self.matrix.append_from_state(now)
        self._m_heartbeats.inc()

    # -- Algorithm 1 primitives ---------------------------------------------

    def _windows(self, gpu_id: str, metrics: tuple[str, ...], now: float) -> dict[str, SeriesWindow]:
        """The last ``window_ms`` of ``metrics`` for one device; an
        unknown ``gpu_id`` raises ``KeyError``."""
        windows = self.matrix.query(
            self.state.index[gpu_id], metrics, now - self.config.window_ms, now
        )
        for metric in metrics:
            self._m_queries.inc(metric=metric)
        san = self.obs.sanitizer
        if san is not None:
            for metric, window in windows.items():
                san.check_window_fresh(gpu_id, metric, window, now, self.config.heartbeat_ms)
        return windows

    def query(self, gpu_id: str, now: float) -> dict[str, SeriesWindow]:
        """``QUERY(gpu_node)``: recent windows of all five metrics."""
        return self._windows(gpu_id, METRICS, now)

    def memory_window(self, gpu_id: str, now: float) -> SeriesWindow:
        """The memory-utilization series PP autocorrelates and forecasts."""
        return self._windows(gpu_id, ("mem_util",), now)["mem_util"]

    def all_gpus_by_free_memory(self) -> list[GpuView]:
        """``Sort_by_Free_Memory`` over every placeable device, sleeping
        ones included, by free (unreserved) memory, descending.

        Failed devices are invisible until repaired and cordoned devices
        take no new placements; sleeping devices stay in (a policy that
        only walks awake devices filters on ``asleep``).  Ties break by
        gpu_id so the order, and therefore every experiment, is
        deterministic.

        One ``lexsort`` over the ``ClusterState`` columns gives the
        order (``id_rank`` reproduces Python's string order) and every
        field is a column read.  ``ClusterState`` re-sums reservations
        on every mutation, so ``free_alloc_mb`` is bit-identical to
        ``gpu.free_mem_mb``.  Under the sanitizer each view is checked
        against its GPU object (``mirror_consistency``) and for memory
        conservation.
        """
        self._m_snapshots.inc()
        cs = self.state
        free = cs.mem_capacity_mb - cs.alloc_mb
        rows = np.flatnonzero(~(cs.failed | cs.cordoned))
        order = rows[np.lexsort((cs.id_rank[rows], -free[rows]))]
        views = list(map(
            GpuView,
            self._view_ids[order].tolist(),
            self._view_nodes[order].tolist(),
            cs.mem_capacity_mb[order].tolist(),
            free[order].tolist(),
            cs.mem_used_mb[order].tolist(),
            cs.sm_util[order].tolist(),
            cs.num_containers[order].tolist(),
            cs.asleep[order].tolist(),
        ))
        san = self.obs.sanitizer
        if san is not None:
            for view in views:
                san.check_mirror(view, self.cluster.find_gpu(view.gpu_id))
                san.check_view(view)
        return views
