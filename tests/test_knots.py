"""Tests for the Knots runtime (monitoring plane glue)."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import make_paper_cluster
from repro.core.knots import Knots, KnotsConfig
from repro.workloads.base import ResourceDemand


@pytest.fixture
def knots():
    cluster = make_paper_cluster(num_nodes=2)
    return cluster, Knots(cluster, KnotsConfig(heartbeat_ms=10.0, window_ms=100.0))


def run_load(cluster, n_ticks, knots):
    gpu = cluster.find_gpu("node1/gpu0")
    if "p" not in gpu.containers:
        gpu.attach("p", 2_000)
    for t in range(n_ticks):
        for g in cluster.gpus():
            demands = (
                {"p": ResourceDemand(sm=0.6, mem_mb=1_000, tx_mbps=0, rx_mbps=0)}
                if g.gpu_id == "node1/gpu0"
                else {}
            )
            g.arbitrate(demands)
        knots.heartbeat(float(t * 10))


class TestMonitoring:
    def test_heartbeat_feeds_all_nodes(self, knots):
        cluster, k = knots
        run_load(cluster, 5, k)
        for node_id in ("node1", "node2"):
            assert f"{node_id}/gpu0.sm_util" in k.monitors[node_id].tsdb

    def test_query_returns_five_metric_windows(self, knots):
        cluster, k = knots
        run_load(cluster, 5, k)
        stats = k.query("node1/gpu0", now=40.0)
        assert set(stats) == {"sm_util", "mem_util", "power_w", "tx_mbps", "rx_mbps"}
        assert stats["sm_util"].latest() == pytest.approx(0.6)

    def test_memory_window_is_mem_util(self, knots):
        cluster, k = knots
        run_load(cluster, 5, k)
        w = k.memory_window("node1/gpu0", now=40.0)
        assert w.latest() == pytest.approx(1_000 / 16_384)

    def test_window_length_respects_config(self, knots):
        cluster, k = knots
        run_load(cluster, 30, k)   # 300 ms of samples, window is 100 ms
        w = k.memory_window("node1/gpu0", now=290.0)
        assert len(w) == 11


class TestDeviceLists:
    def test_all_sorted_by_free_memory(self, knots):
        cluster, k = knots
        run_load(cluster, 2, k)
        order = [v.gpu_id for v in k.all_gpus_by_free_memory()]
        assert order == ["node2/gpu0", "node1/gpu0"]

    def test_sleeping_devices_listed_with_flag(self, knots):
        cluster, k = knots
        cluster.find_gpu("node2/gpu0").sleep()
        everything = k.all_gpus_by_free_memory()
        assert len(everything) == 2
        assert [v.gpu_id for v in everything if v.asleep] == ["node2/gpu0"]

    def test_profiles_store_attached(self, knots):
        _, k = knots
        assert not k.profiles.images()
