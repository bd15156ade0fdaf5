"""Tests for the heterogeneity-aware PP extension."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import make_heterogeneous_cluster
from repro.core.orchestrator import KubeKnots
from repro.core.schedulers import HeteroAwarePeakPrediction, make_scheduler
from repro.core.schedulers.base import Bind
from repro.experiments.hetero import run_hetero
from repro.obs.context import Observability
from tests.conftest import make_spec, make_trace


def build(models=("K80", "P100", "V100")):
    cluster = make_heterogeneous_cluster(models)
    return cluster, KubeKnots(cluster, make_scheduler("hetero-pp"))


def learn(kk, image, mem_mb, peak_mem_mb):
    for _ in range(2):
        kk.knots.profiles.record_trace(image, make_trace(mem_mb=mem_mb, peak_mem_mb=peak_mem_mb))


class TestSpillProtection:
    def test_big_pod_never_lands_on_small_device(self):
        cluster, kk = build()
        learn(kk, "img/big", mem_mb=3_000, peak_mem_mb=13_000)
        pod = kk.api.submit(
            make_spec(image="img/big", mem_mb=3_000, peak_mem_mb=13_000,
                      requested_mem_mb=14_000.0),
            0.0,
        )
        actions = kk.scheduling_pass(0.0)
        bind = next(a for a in actions if isinstance(a, Bind))
        # node1 is the 12 GB K80; the 13 GB peak cannot fit it
        assert bind.gpu_id != "node1/gpu0"

    def test_unprofiled_pod_is_kept_off_a_device_its_peak_outgrows(self):
        """Without a profile the pass estimates the peak from the request;
        spill protection still reads the pod's own trace peak."""
        cluster, kk = build(("K80", "V100"))
        kk.api.submit(
            make_spec(image="img/new", mem_mb=3_000, peak_mem_mb=13_000,
                      requested_mem_mb=4_000.0),
            0.0,
        )
        actions = kk.scheduling_pass(0.0)
        bind = next(a for a in actions if isinstance(a, Bind))
        # Best-capacity-fit alone would take the 12 GB K80 (node1).
        assert bind.gpu_id == "node2/gpu0"

    def test_relaxed_query_retry_is_not_restricted(self):
        """A latency-critical query spill protection shuts out everywhere
        still takes PP's relaxed retry, which sees every device."""
        cluster = make_heterogeneous_cluster(("K80",))
        obs = Observability(trace=False, metrics=False, audit=True)
        kk = KubeKnots(cluster, make_scheduler("hetero-pp"), obs=obs)
        kk.api.submit(
            make_spec(image="img/query", mem_mb=3_000, peak_mem_mb=13_000,
                      requested_mem_mb=4_000.0, qos_threshold_ms=50.0),
            0.0,
        )
        actions = kk.scheduling_pass(0.0)
        assert [a.gpu_id for a in actions if isinstance(a, Bind)] == ["node1/gpu0"]
        assert obs.audit.binds()[0].evidence["relaxed"] is True

    def test_wake_path_respects_peak(self):
        cluster, kk = build(("K80", "P100"))
        for gpu in cluster.gpus():
            gpu.sleep()
        learn(kk, "img/big", mem_mb=3_000, peak_mem_mb=13_000)
        kk.api.submit(
            make_spec(image="img/big", mem_mb=3_000, peak_mem_mb=13_000,
                      requested_mem_mb=14_000.0),
            0.0,
        )
        actions = kk.scheduling_pass(0.0)
        binds = [a for a in actions if isinstance(a, Bind)]
        assert binds and binds[0].gpu_id == "node2/gpu0"   # the P100

    def test_small_pod_keeps_big_devices_free(self):
        """Best-capacity-fit: small batch pods go to the smallest device."""
        cluster, kk = build(("V100", "K80"))
        pod = kk.api.submit(make_spec(mem_mb=1_000, requested_mem_mb=2_000.0), 0.0)
        actions = kk.scheduling_pass(0.0)
        bind = next(a for a in actions if isinstance(a, Bind))
        assert bind.gpu_id == "node2/gpu0"   # the K80, not the 32 GB V100

    def test_oversized_pod_waits_rather_than_spill(self):
        cluster, kk = build(("K80",))
        learn(kk, "img/big", mem_mb=3_000, peak_mem_mb=13_000)
        pod = kk.api.submit(
            make_spec(image="img/big", mem_mb=3_000, peak_mem_mb=13_000,
                      requested_mem_mb=3_500.0),
            0.0,
        )
        actions = kk.scheduling_pass(0.0)
        assert not [a for a in actions if isinstance(a, Bind)]


class TestEndToEnd:
    def test_extension_eliminates_spill_ooms(self):
        results = run_hetero(seed=0)
        assert results["hetero-pp"].oom_kills <= results["peak-prediction"].oom_kills
        assert results["hetero-pp"].oom_kills == 0
        for r in results.values():
            assert len(r.completed()) == len(r.pods)

    def test_registry_exposes_extension(self):
        sched = make_scheduler("hetero-pp", peak_headroom=1.2)
        assert isinstance(sched, HeteroAwarePeakPrediction)
        assert sched.peak_headroom == 1.2
