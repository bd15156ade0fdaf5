"""Tests for node monitors and the head-node utilization aggregator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.node import GpuNode
from repro.telemetry.aggregator import NodeMonitor, UtilizationAggregator
from repro.workloads.base import ResourceDemand


def tick(node: GpuNode, sm: float = 0.3) -> None:
    """Run one arbitration on every device of a node."""
    for gpu in node.gpus:
        demands = {}
        if gpu.containers:
            uid = next(iter(gpu.containers))
            demands[uid] = ResourceDemand(sm=sm, mem_mb=1_000, tx_mbps=0, rx_mbps=0)
        gpu.arbitrate(demands)


@pytest.fixture
def monitored_nodes():
    nodes = [GpuNode.build(f"node{i}") for i in (1, 2)]
    nodes[0].gpus[0].attach("p", 4_000)
    monitors = [NodeMonitor(n) for n in nodes]
    agg = UtilizationAggregator(monitors)
    return nodes, monitors, agg


class TestNodeMonitor:
    def test_heartbeat_logs_all_metrics(self, monitored_nodes):
        nodes, monitors, _ = monitored_nodes
        tick(nodes[0])
        monitors[0].heartbeat(now=10.0)
        assert "node1/gpu0.sm_util" in monitors[0].tsdb
        assert "node1/gpu0.power_w" in monitors[0].tsdb

    def test_series_window(self, monitored_nodes):
        nodes, monitors, _ = monitored_nodes
        for t in range(20):
            tick(nodes[0])
            monitors[0].heartbeat(float(t))
        w = monitors[0].series("node1/gpu0", "sm_util", window=5.0, now=19.0)
        assert len(w) == 6

    def test_series_many_matches_individual_series(self, monitored_nodes):
        nodes, monitors, _ = monitored_nodes
        for t in range(20):
            tick(nodes[0])
            monitors[0].heartbeat(float(t))
        metrics = ("sm_util", "mem_util", "power_w")
        batch = monitors[0].series_many("node1/gpu0", metrics, window=5.0, now=19.0)
        assert set(batch) == set(metrics)
        for m in metrics:
            single = monitors[0].series("node1/gpu0", m, window=5.0, now=19.0)
            np.testing.assert_array_equal(batch[m].times, single.times)
            np.testing.assert_array_equal(batch[m].values, single.values)


class TestAggregator:
    def test_requires_monitors(self):
        with pytest.raises(ValueError):
            UtilizationAggregator([])

    def test_query_routes_to_node(self, monitored_nodes):
        nodes, monitors, agg = monitored_nodes
        tick(nodes[0])
        for m in monitors:
            m.heartbeat(1.0)
        w = agg.query("node1/gpu0", "sm_util", window=10.0, now=1.0)
        assert w.latest() == pytest.approx(0.3)

    def test_query_unknown_node(self, monitored_nodes):
        _, _, agg = monitored_nodes
        with pytest.raises(KeyError):
            agg.query("node9/gpu0", "sm_util", 1.0, 1.0)

    def test_query_node_stats_covers_five_metrics(self, monitored_nodes):
        nodes, monitors, agg = monitored_nodes
        tick(nodes[0])
        monitors[0].heartbeat(1.0)
        stats = agg.query_node_stats("node1/gpu0", window=10.0, now=1.0)
        assert set(stats) == {"sm_util", "mem_util", "power_w", "tx_mbps", "rx_mbps"}

    def test_cluster_utilization_matrix(self, monitored_nodes):
        nodes, monitors, agg = monitored_nodes
        for t in range(10):
            for n in nodes:
                tick(n)
            for m in monitors:
                m.heartbeat(float(t))
        mat = agg.cluster_utilization(window=20.0, now=9.0)
        assert mat.shape == (2, 10)
        assert mat[0].max() > 0          # node1 busy
        assert np.all(mat[1] == 0.0)     # node2 idle

    def test_cluster_utilization_batch_matches_per_series_queries(self, monitored_nodes):
        nodes, monitors, agg = monitored_nodes
        for t in range(12):
            for n in nodes:
                tick(n)
            for m in monitors:
                m.heartbeat(float(t))
        mat = agg.cluster_utilization(window=50.0, now=11.0, metric="sm_util")

        rows = []
        for mon in monitors:
            for gpu in mon.node.gpus:
                w = mon.series(gpu.gpu_id, "sm_util", window=50.0, now=11.0)
                rows.append(w.values)
        n = min(len(r) for r in rows)
        expected = np.stack([r[len(r) - n:] for r in rows])
        np.testing.assert_array_equal(mat, expected)
