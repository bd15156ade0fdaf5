"""Tests for the Peak Prediction scheduler (Algorithm 1)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.cluster import make_paper_cluster
from repro.core.orchestrator import KubeKnots
from repro.core.schedulers import PeakPredictionScheduler
from repro.core.schedulers.base import Bind, Sleep, Wake
from repro.workloads.base import ResourceDemand
from tests.conftest import make_spec, make_trace


def build(nodes=3, **kwargs):
    cluster = make_paper_cluster(num_nodes=nodes)
    sched = PeakPredictionScheduler(**kwargs)
    return cluster, sched, KubeKnots(cluster, sched)


def feed_memory_series(kk, gpu_id, utils, step_ms=10.0):
    """Log a mem_util series for one device: each point is set as the
    device's sample and recorded by a Knots heartbeat."""
    gpu = kk.cluster.find_gpu(gpu_id)
    idle = gpu.idle_sample()
    for i, u in enumerate(utils):
        gpu.last_sample = replace(
            idle, mem_used_mb=float(u) * gpu.mem_capacity_mb, mem_util=float(u)
        )
        kk.knots.heartbeat(i * step_ms)
    return len(utils) * step_ms


def learn_profile(kk, image, mem_mb, peak_mem_mb, n=2, duration_ms=100.0):
    for _ in range(n):
        kk.knots.profiles.record_trace(
            image, make_trace(duration_ms=duration_ms, mem_mb=mem_mb, peak_mem_mb=peak_mem_mb)
        )


class TestForecastBranch:
    def test_forecast_admits_correlated_pod_with_headroom(self):
        """Where CBP refuses, PP forecasts free memory and admits."""
        cluster, sched, kk = build(nodes=1)
        learn_profile(kk, "img/big", mem_mb=2_000, peak_mem_mb=5_000)
        now = feed_memory_series(kk, "node1/gpu0", np.linspace(0.30, 0.31, 50))
        a = kk.api.submit(make_spec("a", image="img/big", requested_mem_mb=5_200.0), now)
        b = kk.api.submit(make_spec("b", image="img/big", requested_mem_mb=5_200.0), now)
        actions = kk.scheduling_pass(now)
        binds = [x for x in actions if isinstance(x, Bind)]
        assert len(binds) == 2
        assert binds[0].gpu_id == binds[1].gpu_id == "node1/gpu0"
        assert sched.forecast_stats[0] >= 1

    def test_forecast_rejects_when_memory_trending_full(self):
        cluster, sched, kk = build(nodes=1)
        learn_profile(kk, "img/big", mem_mb=5_000, peak_mem_mb=9_000)
        now = feed_memory_series(kk, "node1/gpu0", np.linspace(0.5, 0.95, 50))
        kk.api.submit(make_spec("a", image="img/big", requested_mem_mb=9_000.0), now)
        kk.api.submit(make_spec("b", image="img/big", requested_mem_mb=9_000.0), now)
        actions = kk.scheduling_pass(now)
        binds = [x for x in actions if isinstance(x, Bind)]
        # only one of the correlated pair may land on the single device
        assert len(binds) == 1

    def test_no_trend_means_no_forecast_admission(self):
        """Eq. 2 gate: alternating series has negative autocorrelation."""
        cluster, sched, kk = build(nodes=1)
        learn_profile(kk, "img/big", mem_mb=2_000, peak_mem_mb=5_000)
        noise = [0.3, 0.7] * 25
        now = feed_memory_series(kk, "node1/gpu0", noise)
        kk.api.submit(make_spec("a", image="img/big", requested_mem_mb=5_200.0), now)
        kk.api.submit(make_spec("b", image="img/big", requested_mem_mb=5_200.0), now)
        kk.scheduling_pass(now)
        assert sched.forecast_stats[0] == 0


class TestConsolidation:
    def test_batch_packs_fullest_active_device(self):
        cluster, sched, kk = build(nodes=2)
        learn_profile(kk, "img/a", mem_mb=500, peak_mem_mb=800)
        learn_profile(kk, "img/b", mem_mb=400, peak_mem_mb=700)
        kk.api.submit(make_spec("a", image="img/a", sm=0.2, requested_mem_mb=800.0), 0.0)
        kk.scheduling_pass(0.0)
        kk.api.submit(make_spec("b", image="img/b", sm=0.2, requested_mem_mb=700.0), 1.0)
        actions = kk.scheduling_pass(1.0)
        bind = next(x for x in actions if isinstance(x, Bind))
        # joins the already-occupied device instead of the empty one
        occupied = kk.api.pods()[0].gpu_id
        assert bind.gpu_id == occupied

    def test_sleeps_empty_devices_when_queue_empty(self):
        cluster, sched, kk = build(nodes=3)
        kk.api.submit(make_spec("only"), 0.0)
        actions = kk.scheduling_pass(0.0)
        sleeps = [x for x in actions if isinstance(x, Sleep)]
        # 3 devices, one occupied (stays active); both empties may sleep
        assert len(sleeps) == 2

    def test_keeps_capacity_while_pods_pending(self):
        cluster, sched, kk = build(nodes=2)
        # un-placeable pod keeps pending non-empty
        kk.api.submit(make_spec("huge", requested_mem_mb=16_384.0, mem_mb=16_000.0), 0.0)
        kk.api.submit(make_spec("huge2", requested_mem_mb=16_384.0, mem_mb=16_000.0), 0.0)
        kk.api.submit(make_spec("huge3", requested_mem_mb=16_384.0, mem_mb=16_000.0), 0.0)
        actions = kk.scheduling_pass(0.0)
        assert not [x for x in actions if isinstance(x, Sleep)]

    def test_wakes_sleeping_device_for_unplaceable_pod(self):
        cluster, sched, kk = build(nodes=2)
        cluster.find_gpu("node2/gpu0").sleep()
        kk.api.submit(make_spec("a", requested_mem_mb=12_000.0), 0.0)
        kk.api.submit(make_spec("b", requested_mem_mb=12_000.0), 0.0)
        actions = kk.scheduling_pass(0.0)
        wakes = [x for x in actions if isinstance(x, Wake)]
        binds = [x for x in actions if isinstance(x, Bind)]
        assert len(wakes) == 1 and wakes[0].gpu_id == "node2/gpu0"
        assert len(binds) == 2


class TestSloAwarePlacement:
    def test_tight_query_avoids_hot_device(self):
        """A near-budget query must not share a compute-loaded device."""
        cluster, sched, kk = build(nodes=2)
        learn_profile(kk, "img/hot", mem_mb=500, peak_mem_mb=700)
        for name in ("h1", "h2", "h3"):
            kk.api.submit(make_spec(name, image="img/hot", sm=0.6, requested_mem_mb=700.0), 0.0)
        kk.scheduling_pass(0.0)
        # 130 ms runtime against a 150 ms budget: almost no slack
        learn_profile(kk, "img/slowq", mem_mb=300, peak_mem_mb=400, duration_ms=130.0)
        lc = kk.api.submit(
            make_spec("q", image="img/slowq", qos_threshold_ms=150.0, duration_ms=130.0,
                      requested_mem_mb=400.0),
            1.0,
        )
        actions = kk.scheduling_pass(1.0)
        bind = next(x for x in actions if isinstance(x, Bind) and x.pod_uid == lc.uid)
        batch_gpu = kk.api.pods()[0].gpu_id
        assert bind.gpu_id != batch_gpu

    def test_slack_query_colocates_with_batch(self):
        """A fast query co-locates onto the busy device (consolidation)."""
        cluster, sched, kk = build(nodes=2)
        learn_profile(kk, "img/warm", mem_mb=500, peak_mem_mb=700)
        kk.api.submit(make_spec("h1", image="img/warm", sm=0.4, requested_mem_mb=700.0), 0.0)
        kk.scheduling_pass(0.0)
        learn_profile(kk, "img/fastq", mem_mb=300, peak_mem_mb=400, duration_ms=20.0)
        lc = kk.api.submit(
            make_spec("q", image="img/fastq", qos_threshold_ms=150.0, duration_ms=20.0,
                      requested_mem_mb=400.0),
            1.0,
        )
        actions = kk.scheduling_pass(1.0)
        bind = next(x for x in actions if isinstance(x, Bind) and x.pod_uid == lc.uid)
        batch_gpu = kk.api.pods()[0].gpu_id
        assert bind.gpu_id == batch_gpu

    def test_lc_ceiling_derives_from_profile_runtime(self):
        cluster, sched, kk = build(nodes=1)
        learn_profile(kk, "img/slow", mem_mb=300, peak_mem_mb=400, duration_ms=140.0)
        pod = kk.api.submit(
            make_spec("q", image="img/slow", qos_threshold_ms=150.0, duration_ms=140.0),
            0.0,
        )
        ceiling = sched._lc_ceiling(kk.build_context(0.0), pod)
        # 140 ms runtime against a 150 ms budget leaves almost no
        # interference allowance
        assert ceiling == pytest.approx(0.1, abs=0.05)

    def test_lc_ceiling_generous_for_fast_queries(self):
        cluster, sched, kk = build(nodes=1)
        learn_profile(kk, "img/fast", mem_mb=300, peak_mem_mb=400, duration_ms=20.0)
        pod = kk.api.submit(
            make_spec("q", image="img/fast", qos_threshold_ms=150.0, duration_ms=20.0),
            0.0,
        )
        ceiling = sched._lc_ceiling(kk.build_context(0.0), pod)
        assert ceiling > 2.0

    def test_batch_never_joins_live_query(self):
        cluster, sched, kk = build(nodes=2)
        lc = kk.api.submit(make_spec("q", qos_threshold_ms=150.0, requested_mem_mb=500.0), 0.0)
        kk.scheduling_pass(0.0)
        batch = kk.api.submit(make_spec("b", requested_mem_mb=500.0), 1.0)
        actions = kk.scheduling_pass(1.0)
        bind = next(x for x in actions if isinstance(x, Bind))
        assert bind.gpu_id != lc.gpu_id
