"""Tests for the Uniform and Res-Ag baseline schedulers."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import make_heterogeneous_cluster, make_paper_cluster
from repro.core.orchestrator import KubeKnots
from repro.core.schedulers import ResourceAgnosticScheduler, UniformScheduler
from repro.core.schedulers.base import Bind
from repro.kube.pod import PodPhase
from tests.conftest import make_spec


def build(scheduler, nodes=3):
    cluster = make_paper_cluster(num_nodes=nodes)
    return cluster, KubeKnots(cluster, scheduler)


class TestUniform:
    def test_exclusive_one_pod_per_gpu(self):
        cluster, kk = build(UniformScheduler(), nodes=2)
        for i in range(3):
            kk.api.submit(make_spec(f"p{i}", mem_mb=100.0), 0.0)
        actions = kk.scheduling_pass(0.0)
        binds = [a for a in actions if isinstance(a, Bind)]
        assert len(binds) == 2                       # only 2 GPUs
        assert len({b.gpu_id for b in binds}) == 2   # all distinct

    def test_head_of_line_blocking(self):
        """If the head pod cannot be placed, nothing behind it runs."""
        cluster, kk = build(UniformScheduler(), nodes=1)
        first = kk.api.submit(make_spec("first"), 0.0)
        kk.scheduling_pass(0.0)
        assert first.phase is PodPhase.SCHEDULED
        # device now busy; a tiny pod behind the queue head must wait
        kk.api.submit(make_spec("blocked-head", mem_mb=100.0), 1.0)
        kk.api.submit(make_spec("tiny", mem_mb=1.0), 1.0)
        actions = kk.scheduling_pass(1.0)
        assert not [a for a in actions if isinstance(a, Bind)]

    def test_fifo_order(self):
        cluster, kk = build(UniformScheduler(), nodes=2)
        a = kk.api.submit(make_spec("a"), 0.0)
        b = kk.api.submit(make_spec("b"), 0.0)
        c = kk.api.submit(make_spec("c"), 0.0)
        kk.scheduling_pass(0.0)
        assert a.phase is PodPhase.SCHEDULED
        assert b.phase is PodPhase.SCHEDULED
        assert c.phase is PodPhase.PENDING

    def test_requires_exclusive_plugin(self):
        assert UniformScheduler.requires_sharing is False

    def test_skips_an_idle_device_too_small_for_the_pod(self):
        """Each pod, in FIFO order, takes the first idle device in node
        order that can hold it; a pod no idle device can hold blocks
        the queue."""
        cluster = make_heterogeneous_cluster(("K80", "P100", "K80", "P100"))
        kk = KubeKnots(cluster, UniformScheduler())
        big = kk.api.submit(make_spec("big", mem_mb=14_000.0), 0.0)
        small = kk.api.submit(make_spec("small", mem_mb=1_000.0), 0.0)
        big2 = kk.api.submit(make_spec("big2", mem_mb=14_000.0), 0.0)
        big3 = kk.api.submit(make_spec("big3", mem_mb=14_000.0), 0.0)
        tiny = kk.api.submit(make_spec("tiny", mem_mb=10.0), 0.0)
        binds = {
            a.pod_uid: a.gpu_id for a in kk.scheduling_pass(0.0) if isinstance(a, Bind)
        }
        assert binds == {
            big.uid: "node2/gpu0", small.uid: "node1/gpu0", big2.uid: "node4/gpu0",
        }
        assert big3.phase is tiny.phase is PodPhase.PENDING
        for gpu in cluster.gpus():
            assert gpu.allocated_mem_mb <= gpu.mem_capacity_mb


class TestResAg:
    def test_packs_first_fit_lowest_node(self):
        cluster, kk = build(ResourceAgnosticScheduler())
        for i in range(3):
            kk.api.submit(make_spec(f"p{i}", mem_mb=2_000.0, requested_mem_mb=3_000.0), 0.0)
        actions = kk.scheduling_pass(0.0)
        binds = [a for a in actions if isinstance(a, Bind)]
        assert len(binds) == 3
        assert {b.gpu_id for b in binds} == {"node1/gpu0"}   # all on node1

    def test_ffd_orders_big_pods_first(self):
        cluster, kk = build(ResourceAgnosticScheduler())
        small = kk.api.submit(make_spec("small", requested_mem_mb=1_000.0), 0.0)
        big = kk.api.submit(make_spec("big", requested_mem_mb=12_000.0), 0.0)
        actions = kk.scheduling_pass(0.0)
        binds = [a for a in actions if isinstance(a, Bind)]
        assert binds[0].pod_uid == big.uid

    def test_static_requests_fragment(self):
        """Over-stated requests strand capacity (the Res-Ag pathology)."""
        cluster, kk = build(ResourceAgnosticScheduler(), nodes=1)
        kk.api.submit(make_spec("a", mem_mb=1_000.0, requested_mem_mb=10_000.0), 0.0)
        kk.api.submit(make_spec("b", mem_mb=1_000.0, requested_mem_mb=10_000.0), 0.0)
        actions = kk.scheduling_pass(0.0)
        binds = [a for a in actions if isinstance(a, Bind)]
        assert len(binds) == 1     # second 10 GB earmark does not fit

    def test_clip_mode_packs_denser(self):
        cluster, kk = build(ResourceAgnosticScheduler(clip_requests=True), nodes=1)
        kk.api.submit(make_spec("a", mem_mb=1_000.0, requested_mem_mb=10_000.0), 0.0)
        kk.api.submit(make_spec("b", mem_mb=1_000.0, requested_mem_mb=10_000.0), 0.0)
        actions = kk.scheduling_pass(0.0)
        binds = [a for a in actions if isinstance(a, Bind)]
        assert len(binds) == 2
        assert binds[1].alloc_mb < 10_000.0   # clipped into the leftovers

    def test_share_count_cap(self):
        cluster, kk = build(ResourceAgnosticScheduler(max_pods_per_gpu=2), nodes=1)
        for i in range(4):
            kk.api.submit(make_spec(f"p{i}", requested_mem_mb=100.0), 0.0)
        actions = kk.scheduling_pass(0.0)
        assert len([a for a in actions if isinstance(a, Bind)]) == 2
