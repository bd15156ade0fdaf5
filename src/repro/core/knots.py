"""Knots: the GPU-aware orchestration runtime (paper Sec. IV-A).

Knots is the glue between raw device telemetry and scheduling policy:

* it owns one :class:`NodeMonitor` per worker, each writing the five
  GPU metrics into the node-local TSDB every *heartbeat*;
* it owns the head-node :class:`UtilizationAggregator`, through which
  schedulers read every telemetry window;
* it owns the :class:`ProfileStore` of per-image usage profiles built
  from runtime feedback (no a priori profiling);
* it exposes Algorithm 1's primitives: ``query`` (all metric windows
  for a device) and the device list sorted by free memory, built from
  the cluster's :class:`~repro.cluster.state.ClusterState` columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.profiles import ProfileStore
from repro.obs.context import NOOP, Observability
from repro.telemetry.aggregator import GpuView, NodeMonitor, UtilizationAggregator
from repro.telemetry.matrix import MatrixTelemetry, TsdbFacade
from repro.telemetry.tsdb import SeriesWindow

__all__ = ["KnotsConfig", "Knots"]


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
        #: Telemetry storage is the cluster-wide matrix ring; each node
        #: monitor reads/writes it through a TSDB-compatible facade.
        self.state = cluster.state
        self.matrix = MatrixTelemetry(
            self.state, self.config.heartbeat_ms, self.config.window_ms
        )
        self.monitors: dict[str, NodeMonitor] = {
            node.node_id: NodeMonitor(node, tsdb=TsdbFacade(self.matrix, node))
            for node in cluster
        }
        self.aggregator = UtilizationAggregator(list(self.monitors.values()), obs=self.obs)
        self.profiles = ProfileStore()
        self._m_heartbeats = self.obs.metrics.counter(
            "knots_heartbeats_total", "Monitoring-plane sampling rounds"
        )
        self._m_snapshots = self.obs.metrics.counter(
            "aggregator_snapshots_total", "Instantaneous cluster snapshots served"
        )
        # Static view columns, in ClusterState row order.
        self._view_ids = np.array(self.state.gpu_ids, dtype=object)
        self._view_nodes = np.array(self.state.node_ids, dtype=object)[self.state.node_of]

    # -- monitoring plane ---------------------------------------------------

    def heartbeat(self, now: float) -> None:
        """Sample every node's devices into its TSDB (one heartbeat).

        One vectorized row append covers every clean node; nodes whose
        facade was written to directly (tests seeding telemetry) keep
        the legacy per-series monitor walk into their override store.
        """
        self.matrix.append_from_state(now)
        for node_id in self.matrix.dirty_nodes:
            self.monitors[node_id].heartbeat(now)
        self._m_heartbeats.inc()

    # -- Algorithm 1 primitives ---------------------------------------------

    def query(self, gpu_id: str, now: float) -> dict[str, SeriesWindow]:
        """``QUERY(gpu_node)``: recent windows of all five metrics."""
        windows = self.aggregator.query_node_stats(gpu_id, self.config.window_ms, now)
        san = self.obs.sanitizer
        if san is not None:
            for metric, window in windows.items():
                san.check_window_fresh(gpu_id, metric, window, now, self.config.heartbeat_ms)
        return windows

    def memory_window(self, gpu_id: str, now: float) -> SeriesWindow:
        """The memory-utilization series PP autocorrelates and forecasts."""
        window = self.aggregator.query(gpu_id, "mem_util", self.config.window_ms, now)
        san = self.obs.sanitizer
        if san is not None:
            san.check_window_fresh(gpu_id, "mem_util", window, now, self.config.heartbeat_ms)
        return window

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
