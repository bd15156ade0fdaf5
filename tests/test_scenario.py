"""Tests for the scenario engine (repro.scenario).

Covers the frozen vocabulary and registry, capacity-event generation,
the network fabric's contended transfer costs, the gang-mix workload
rewrite, all-or-nothing gang placement, and the orchestrator's
cordon/reclaim/restore transitions with gang co-eviction.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.cluster.cluster import make_paper_cluster
from repro.core.orchestrator import KubeKnots
from repro.core.schedulers import make_scheduler
from repro.core.schedulers.base import Bind
from repro.kube.api import EventType
from repro.kube.pod import GangSpec, PodPhase
from repro.scenario import (
    SCENARIOS,
    CapacityPattern,
    GangMix,
    GangScheduler,
    NetworkFabric,
    NetworkModel,
    Scenario,
    apply_gang_mix,
    build_capacity_events,
    make_scenario,
)
from tests.conftest import make_spec


class TestSpec:
    def test_registry_names(self):
        assert set(SCENARIOS) == {"default", "diurnal", "spot", "gang", "diurnal-gang"}
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name

    def test_default_scenario_is_inert(self):
        assert make_scenario("default").is_default()
        assert not make_scenario("diurnal").is_default()
        assert not make_scenario("gang").is_default()

    def test_unknown_name_lists_catalog(self):
        with pytest.raises(KeyError, match="diurnal"):
            make_scenario("nope")

    def test_scenarios_are_frozen_and_picklable(self):
        for scenario in SCENARIOS.values():
            assert pickle.loads(pickle.dumps(scenario)) == scenario
            with pytest.raises(AttributeError):
                scenario.name = "x"

    def test_repr_is_canonical(self):
        # The sweep cache keys on the repr of the embedding task.
        assert repr(Scenario()) == repr(make_scenario("default"))


class TestCapacityEvents:
    NODES = [f"node{i}" for i in range(1, 9)]

    def test_diurnal_windows_drain_then_reclaim_then_restore(self):
        pattern = CapacityPattern(kind="diurnal", period_ms=1_000.0,
                                  amplitude=0.25, drain_ms=100.0)
        events = build_capacity_events(pattern, self.NODES, horizon_ms=2_000.0)
        by_node: dict[str, list] = {}
        for e in events:
            by_node.setdefault(e.node_id, []).append(e)
        # amplitude 0.25 of 8 nodes = 2 nodes per window, rotating.
        dipped = [n for n, evs in by_node.items() if evs]
        assert len(dipped) == 4
        for evs in by_node.values():
            kinds = [e.kind for e in evs]
            assert kinds == ["drain", "reclaim", "restore"]
            drain, reclaim, restore = evs
            assert drain.at_ms == reclaim.at_ms - 100.0
            assert restore.at_ms > reclaim.at_ms

    def test_events_sorted_by_time_then_kind(self):
        pattern = CapacityPattern(kind="diurnal", period_ms=1_000.0)
        events = build_capacity_events(pattern, self.NODES, horizon_ms=4_000.0)
        order = {"drain": 0, "reclaim": 1, "restore": 2}
        keys = [(e.at_ms, order[e.kind], e.node_id) for e in events]
        assert keys == sorted(keys)

    def test_spares_start_drained_and_cover_windows(self):
        pattern = CapacityPattern(kind="diurnal", period_ms=1_000.0,
                                  amplitude=0.25, spare_nodes=1)
        events = build_capacity_events(pattern, self.NODES, horizon_ms=1_000.0)
        spare = self.NODES[-1]
        spare_events = [e for e in events if e.node_id == spare]
        assert spare_events[0].kind == "drain" and spare_events[0].at_ms == 0.0
        # The spare is restored when the window opens, re-drained at its end.
        assert [e.kind for e in spare_events[1:3]] == ["restore", "drain"]

    def test_spot_is_deterministic_and_node_granular(self):
        pattern = CapacityPattern(kind="spot", period_ms=500.0, seed=42)
        a = build_capacity_events(pattern, self.NODES, horizon_ms=5_000.0)
        b = build_capacity_events(pattern, self.NODES, horizon_ms=5_000.0)
        assert a == b
        assert any(e.kind == "reclaim" for e in a)
        different = build_capacity_events(replace(pattern, seed=7), self.NODES, 5_000.0)
        assert different != a

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            build_capacity_events(CapacityPattern(kind="lunar"), self.NODES, 1_000.0)


class TestNetworkFabric:
    def test_pull_cost_is_latency_plus_size_over_bandwidth(self):
        model = NetworkModel(
            nic=replace(NetworkModel().nic, bandwidth_mbps=1_000.0, latency_ms=1.0),
            uplink=replace(NetworkModel().uplink, bandwidth_mbps=4_000.0, latency_ms=2.0),
            image_size_mb=500.0,
        )
        fabric = NetworkFabric(model, ["node1"])
        # Uncontended: 1 + 2 ms latency + 500 MB / 1000 MB/s = 503 ms.
        assert fabric.pull_ms("node1", 0.0) == pytest.approx(503.0)

    def test_concurrent_pulls_contend(self):
        fabric = NetworkFabric(NetworkModel(), ["node1", "node2"])
        first = fabric.pull_ms("node1", 0.0)
        second = fabric.pull_ms("node1", 0.0)   # NIC now shared two ways
        assert second > first
        # After both complete the link is free again.
        later = fabric.pull_ms("node1", first + second + 1.0)
        assert later == pytest.approx(first)

    def test_rack_assignment_is_consecutive(self):
        nodes = [f"node{i}" for i in range(1, 18)]
        fabric = NetworkFabric(NetworkModel(rack_size=8), nodes)
        assert fabric.rack_of["node1"] == 0
        assert fabric.rack_of["node8"] == 0
        assert fabric.rack_of["node9"] == 1
        assert fabric.rack_of["node17"] == 2

    def test_migration_pause_scales_with_gang_size(self):
        fabric = NetworkFabric(NetworkModel(), [])
        assert fabric.migration_pause_s(4) > fabric.migration_pause_s(1) > 0.0

    def test_locality_penalty_is_capped(self):
        slow = NetworkModel(
            nic=replace(NetworkModel().nic, latency_ms=100.0),
        )
        assert NetworkFabric(slow, []).locality_penalty() == 0.25
        assert 0.0 < NetworkFabric(NetworkModel(), []).locality_penalty() < 0.25


class TestApplyGangMix:
    def _workload(self, n=20):
        return [(50.0 * i, make_spec(f"b{i}", duration_ms=300.0)) for i in range(n)]

    def test_deterministic_and_partial(self):
        mix = GangMix(fraction=0.5, seed=3)
        a = apply_gang_mix(self._workload(), mix)
        b = apply_gang_mix(self._workload(), mix)
        assert [(t, s.name) for t, s in a] == [(t, s.name) for t, s in b]
        ganged = [s for _, s in a if s.gang is not None]
        singles = [s for _, s in a if s.gang is None]
        assert ganged and singles

    def test_members_share_instant_and_gang_id(self):
        out = apply_gang_mix(self._workload(), GangMix(fraction=1.0, sizes=(3,), probs=(1.0,)))
        by_gang: dict[str, list] = {}
        for at_ms, spec in out:
            assert spec.gang is not None
            by_gang.setdefault(spec.gang.gang_id, []).append((at_ms, spec))
        for members in by_gang.values():
            assert len(members) == 3
            assert len({t for t, _ in members}) == 1
            assert sorted(s.gang.rank for _, s in members) == [0, 1, 2]
            assert all(s.gang.size == 3 for _, s in members)

    def test_latency_critical_pods_never_converted(self):
        workload = [(0.0, make_spec("q", qos_threshold_ms=100.0))]
        out = apply_gang_mix(workload, GangMix(fraction=1.0))
        assert out[0][1].gang is None

    def test_zero_fraction_is_identity(self):
        workload = self._workload()
        assert apply_gang_mix(workload, GangMix(fraction=0.0)) == workload


class TestGangScheduler:
    def _gang_pods(self, kk, size, mem_mb=2_000.0, gang_id="gang-0", now=0.0):
        pods = []
        for rank in range(size):
            spec = make_spec(f"g{rank}", duration_ms=5_000.0, mem_mb=mem_mb,
                             requested_mem_mb=mem_mb)
            spec = replace(spec, gang=GangSpec(gang_id=gang_id, size=size, rank=rank))
            pods.append(kk.api.submit(spec, now))
        return pods

    def test_gang_lands_on_one_node_when_it_fits(self):
        cluster = make_paper_cluster(num_nodes=3, gpus_per_node=2)
        kk = KubeKnots(cluster, GangScheduler(make_scheduler("cbp")))
        self._gang_pods(kk, size=2)
        actions = kk.scheduling_pass(0.0)
        binds = [a for a in actions if isinstance(a, Bind)]
        assert len(binds) == 2
        nodes = {b.gpu_id.split("/", 1)[0] for b in binds}
        assert len(nodes) == 1

    def test_all_or_nothing(self):
        # 2 nodes x 1 GPU: a 4-gang can never fit; nothing may bind.
        cluster = make_paper_cluster(num_nodes=2, gpus_per_node=1)
        kk = KubeKnots(cluster, GangScheduler(make_scheduler("cbp")))
        pods = self._gang_pods(kk, size=4)
        actions = kk.scheduling_pass(0.0)
        assert [a for a in actions if isinstance(a, Bind)] == []
        assert all(p.phase is PodPhase.PENDING for p in pods)

    def test_gang_spans_nodes_when_no_node_fits(self):
        cluster = make_paper_cluster(num_nodes=4, gpus_per_node=1)
        kk = KubeKnots(cluster, GangScheduler(make_scheduler("cbp")))
        self._gang_pods(kk, size=3)
        binds = [a for a in kk.scheduling_pass(0.0) if isinstance(a, Bind)]
        assert len(binds) == 3
        assert len({b.gpu_id for b in binds}) == 3

    def test_no_gangs_delegates_to_inner_unchanged(self):
        specs = [make_spec(f"p{i}") for i in range(3)]
        results = []
        for wrap in (False, True):
            cluster = make_paper_cluster(num_nodes=3)
            scheduler = make_scheduler("cbp")
            if wrap:
                scheduler = GangScheduler(scheduler)
            kk = KubeKnots(cluster, scheduler)
            for spec in specs:
                kk.api.submit(spec, 0.0)
            results.append(
                [(a.gpu_id, a.alloc_mb)
                 for a in kk.scheduling_pass(0.0) if isinstance(a, Bind)]
            )
        assert results[0] == results[1]

    def test_exclusive_inner_takes_only_empty_devices(self):
        # Uniform does not share devices: a gang member may not land on
        # node1/gpu0, which already hosts a pod, even though it fits by
        # memory and node1 would be the tightest node.
        cluster = make_paper_cluster(num_nodes=2, gpus_per_node=2)
        kk = KubeKnots(cluster, GangScheduler(make_scheduler("uniform")))
        kk.api.submit(make_spec("single", duration_ms=5_000.0), 0.0)
        assert [a.gpu_id for a in kk.scheduling_pass(0.0)] == ["node1/gpu0"]
        self._gang_pods(kk, size=2, now=20.0)
        binds = [a for a in kk.scheduling_pass(20.0) if isinstance(a, Bind)]
        assert sorted(b.gpu_id for b in binds) == ["node2/gpu0", "node2/gpu1"]

    def test_exclusive_gangs_in_one_pass_never_share_a_device(self):
        cluster = make_paper_cluster(num_nodes=1, gpus_per_node=3)
        kk = KubeKnots(cluster, GangScheduler(make_scheduler("uniform")))
        first = self._gang_pods(kk, size=2, gang_id="gang-0")
        second = self._gang_pods(kk, size=2, gang_id="gang-1")
        binds = [a for a in kk.scheduling_pass(0.0) if isinstance(a, Bind)]
        assert sorted(b.pod_uid for b in binds) == sorted(p.uid for p in first)
        assert len({b.gpu_id for b in binds}) == 2
        assert all(p.phase is PodPhase.PENDING for p in second)

    def test_name_and_sharing_follow_inner(self):
        inner = make_scheduler("peak-prediction")
        wrapped = GangScheduler(inner)
        assert wrapped.name == "gang+peak-prediction"
        assert wrapped.requires_sharing == inner.requires_sharing


class TestCapacityTransitions:
    def test_cordoned_node_accepts_no_new_placements(self):
        cluster = make_paper_cluster(num_nodes=2)
        kk = KubeKnots(cluster, make_scheduler("cbp"))
        assert kk.cordon_node("node1")
        kk.api.submit(make_spec(), 0.0)
        binds = [a for a in kk.scheduling_pass(0.0) if isinstance(a, Bind)]
        assert binds and all(b.gpu_id.startswith("node2/") for b in binds)
        # Idempotent-tolerant: a second drain reports nothing changed.
        assert not kk.cordon_node("node1")
        kk.uncordon_node("node1")
        assert not cluster.find_gpu("node1/gpu0").cordoned

    def test_reclaim_evicts_requeues_and_fails(self):
        cluster = make_paper_cluster(num_nodes=2)
        kk = KubeKnots(cluster, make_scheduler("cbp"))
        pod = kk.api.submit(make_spec(duration_ms=5_000.0), 0.0)
        kk.scheduling_pass(0.0)
        node = pod.node_id
        assert kk.reclaim_node(node, 10.0)
        assert pod.phase is PodPhase.PENDING
        assert pod.restart_count == 1
        assert len(kk.api.events_of(EventType.EVICTED)) == 1
        assert all(g.failed for g in kk.kubelets[node].node.gpus)
        assert not kk.reclaim_node(node, 20.0)     # already reclaimed

    def test_restore_brings_node_back(self):
        cluster = make_paper_cluster(num_nodes=2)
        kk = KubeKnots(cluster, make_scheduler("cbp"))
        kk.reclaim_node("node1", 0.0)
        kk.restore_node("node1")
        gpu = cluster.find_gpu("node1/gpu0")
        assert not gpu.failed and not gpu.cordoned
        assert gpu.can_fit(1.0)

    def test_reclaim_coevicts_gang_siblings_on_other_nodes(self):
        cluster = make_paper_cluster(num_nodes=3, gpus_per_node=1)
        kk = KubeKnots(cluster, GangScheduler(make_scheduler("cbp")))
        pods = TestGangScheduler()._gang_pods(kk, size=3, mem_mb=2_000.0)
        kk.scheduling_pass(0.0)
        assert all(p.node_id is not None for p in pods)
        victim_node = pods[0].node_id
        kk.reclaim_node(victim_node, 10.0)
        # Every member — including those hosted elsewhere — is requeued.
        assert all(p.phase is PodPhase.PENDING for p in pods)
        assert kk.api.num_pending() == 3

    def test_gang_coevicted_on_device_failure_during_step(self):
        cluster = make_paper_cluster(num_nodes=3, gpus_per_node=1)
        kk = KubeKnots(cluster, GangScheduler(make_scheduler("cbp")))
        pods = TestGangScheduler()._gang_pods(kk, size=2, mem_mb=2_000.0)
        kk.scheduling_pass(0.0)
        cluster.find_gpu(pods[0].gpu_id).fail()
        kk.step_kubelets(10.0, 10.0)
        assert all(p.phase is PodPhase.PENDING for p in pods)

    def test_sanitizer_checks_pass_on_clean_transitions(self, sanitized_obs):
        cluster = make_paper_cluster(num_nodes=2)
        kk = KubeKnots(cluster, make_scheduler("cbp"), obs=sanitized_obs)
        pod = kk.api.submit(make_spec(duration_ms=5_000.0), 0.0)
        kk.scheduling_pass(0.0)
        kk.reclaim_node(pod.node_id, 10.0)
        kk.restore_node("node1")
        assert sanitized_obs.sanitizer.violations == []

    def test_sanitizer_flags_silently_dropped_pod(self):
        from repro.analysis.sanitizer import Sanitizer, SanitizerError

        san = Sanitizer()
        with pytest.raises(SanitizerError, match="capacity_conservation"):
            san.check_pod_tracking({"pod-1", "pod-2"}, {"pod-1"}, set())

    def test_sanitizer_flags_allocations_on_failed_device(self):
        from repro.analysis.sanitizer import Sanitizer, SanitizerError
        from repro.cluster.gpu import GPU
        from repro.cluster.node import GpuNode

        node = GpuNode("n", [GPU("n/gpu0")])
        gpu = node.gpus[0]
        gpu.attach("pod-1", 100.0)
        gpu._failed = True   # corrupt: failed with residents still attached
        san = Sanitizer()
        with pytest.raises(SanitizerError, match="capacity_conservation"):
            san.check_node_capacity(node)
