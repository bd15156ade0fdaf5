"""Tests for Knots' windowed telemetry reads (the paper's node monitors
and head-node utilization aggregator, Fig. 5), over a :class:`Cluster`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.node import GpuNode
from repro.core.knots import Knots, KnotsConfig
from repro.obs.context import Observability
from repro.telemetry.nvml import METRICS
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
    knots = Knots(Cluster(nodes), KnotsConfig(heartbeat_ms=1.0, window_ms=5.0))
    return nodes, knots


class TestNodeMonitor:
    def test_heartbeat_logs_all_metrics(self, monitored_nodes):
        nodes, knots = monitored_nodes
        tick(nodes[0])
        knots.heartbeat(now=10.0)
        stats = knots.query("node1/gpu0", now=10.0)
        assert set(stats) == set(METRICS)
        assert [len(w) for w in stats.values()] == [1] * len(METRICS)
        assert stats["sm_util"].latest() == pytest.approx(0.3)
        assert stats["power_w"].latest() > 0

    def test_series_window(self, monitored_nodes):
        nodes, knots = monitored_nodes
        for t in range(20):
            tick(nodes[0])
            knots.heartbeat(float(t))
        w = knots.query("node1/gpu0", now=19.0)["sm_util"]
        assert len(w) == 6
        np.testing.assert_array_equal(w.times, np.arange(14.0, 20.0))

    def test_series_many_matches_individual_series(self, monitored_nodes):
        nodes, knots = monitored_nodes
        for t in range(20):
            tick(nodes[0])
            knots.heartbeat(float(t))
        batch = knots.query("node1/gpu0", now=19.0)
        single = knots.memory_window("node1/gpu0", now=19.0)
        np.testing.assert_array_equal(batch["mem_util"].times, single.times)
        np.testing.assert_array_equal(batch["mem_util"].values, single.values)
        for m in METRICS:
            np.testing.assert_array_equal(batch[m].times, single.times)


class TestAggregator:
    def test_requires_monitors(self):
        with pytest.raises(ValueError):
            Knots(Cluster([]))

    def test_query_routes_to_node(self, monitored_nodes):
        nodes, knots = monitored_nodes
        for node in nodes:
            tick(node)
        knots.heartbeat(1.0)
        assert knots.query("node1/gpu0", now=1.0)["sm_util"].latest() == pytest.approx(0.3)
        assert knots.query("node2/gpu0", now=1.0)["sm_util"].latest() == 0.0

    def test_query_unknown_node(self, monitored_nodes):
        _, knots = monitored_nodes
        with pytest.raises(KeyError):
            knots.query("node9/gpu0", 1.0)
        with pytest.raises(KeyError):
            knots.memory_window("node9/gpu0", 1.0)

    def test_query_node_stats_covers_five_metrics(self):
        nodes = [GpuNode.build(f"node{i}") for i in (1, 2)]
        obs = Observability(trace=False, audit=False)
        knots = Knots(Cluster(nodes), obs=obs)
        tick(nodes[0])
        knots.heartbeat(1.0)
        stats = knots.query("node1/gpu0", now=1.0)
        assert set(stats) == {"sm_util", "mem_util", "power_w", "tx_mbps", "rx_mbps"}
        knots.memory_window("node1/gpu0", now=1.0)
        text = obs.metrics.render()
        assert 'aggregator_queries_total{metric="mem_util"} 2' in text
        assert 'aggregator_queries_total{metric="sm_util"} 1' in text
