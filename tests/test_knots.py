"""Tests for the Knots runtime (monitoring plane glue)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.orchestrator as orchestrator_module
from repro.cluster.cluster import Cluster, make_paper_cluster
from repro.cluster.node import GpuNode
from repro.core.knots import GpuView, Knots, KnotsConfig
from repro.core.schedulers import SCHEDULERS, CBPScheduler, make_scheduler
from repro.obs.context import Observability
from repro.scenario.gangs import GangScheduler, apply_gang_mix
from repro.scenario.spec import SCENARIOS
from repro.sim.simulator import DeviceFault, KubeKnotsSimulator, SimConfig
from repro.workloads.appmix import generate_appmix_workload
from repro.workloads.base import ResourceDemand
from tests.test_sim_equivalence import assert_kk_identical


def walk_gpus_by_free_memory(cluster) -> list[GpuView]:
    """The oracle: ``Sort_by_Free_Memory`` as a walk over every GPU
    object, one view per device, failed and cordoned devices dropped,
    sorted by free memory descending with gpu_id tie-breaks."""
    views = [
        GpuView(
            gpu_id=gpu.gpu_id,
            node_id=node.node_id,
            mem_capacity_mb=gpu.mem_capacity_mb,
            free_alloc_mb=gpu.free_mem_mb,
            mem_used_mb=gpu.last_sample.mem_used_mb,
            sm_util=gpu.last_sample.sm_util,
            num_containers=len(gpu.containers),
            asleep=gpu.asleep,
            failed=gpu.failed,
            cordoned=gpu.cordoned,
        )
        for node in sorted(cluster, key=lambda n: n.node_id)
        for gpu in node.gpus
    ]
    views = [v for v in views if not v.failed and not v.cordoned]
    return sorted(views, key=lambda v: (-v.free_alloc_mb, v.gpu_id))


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
            stats = k.query(f"{node_id}/gpu0", now=40.0)
            assert [len(w) for w in stats.values()] == [5] * 5
            np.testing.assert_array_equal(stats["sm_util"].times, [0.0, 10.0, 20.0, 30.0, 40.0])

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


@pytest.fixture
def two_nodes():
    """node1 and node2, one P100 each, 4,000 MB reserved on node1/gpu0."""
    cluster = Cluster([GpuNode.build(f"node{i}") for i in (1, 2)])
    cluster.find_gpu("node1/gpu0").attach("p", 4_000)
    return cluster, Knots(cluster)


class TestSortByFreeMemory:
    def test_snapshot_reflects_allocations(self, two_nodes):
        _, k = two_nodes
        views = {v.gpu_id: v for v in k.all_gpus_by_free_memory()}
        assert views["node1/gpu0"].free_alloc_mb == 16_384 - 4_000
        assert views["node2/gpu0"].free_alloc_mb == 16_384

    def test_sorted_by_free_memory_descending(self, two_nodes):
        _, k = two_nodes
        order = [v.gpu_id for v in k.all_gpus_by_free_memory()]
        assert order == ["node2/gpu0", "node1/gpu0"]

    def test_sorted_by_free_memory_keeps_sleepers_drops_failed(self, two_nodes):
        cluster, k = two_nodes
        cluster.find_gpu("node2/gpu0").sleep()
        views = k.all_gpus_by_free_memory()
        assert [(v.gpu_id, v.asleep) for v in views] == [
            ("node2/gpu0", True), ("node1/gpu0", False),
        ]
        cluster.find_gpu("node1/gpu0").fail()
        assert [v.gpu_id for v in k.all_gpus_by_free_memory()] == ["node2/gpu0"]

    def test_fields_are_python_scalars(self, two_nodes):
        _, k = two_nodes
        view = k.all_gpus_by_free_memory()[0]
        assert [type(x) for x in view] == [str, str, float, float, float, float, int, bool, bool, bool]

    def test_each_call_counts_as_a_snapshot(self):
        cluster = make_paper_cluster(num_nodes=2)
        obs = Observability(trace=False, audit=False)
        k = Knots(cluster, obs=obs)
        k.all_gpus_by_free_memory()
        k.all_gpus_by_free_memory()
        assert "aggregator_snapshots_total 2" in obs.metrics.render()


#: One step of a random cluster history: (operation, device, MB).  The
#: MB values are few, so equal free memory (and equal sort keys) is common.
_OPS = ("attach", "detach", "resize", "sleep", "wake", "fail", "repair",
        "cordon", "uncordon", "arbitrate")
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(_OPS),
        st.integers(0, 23),
        st.sampled_from([0.0, 1_024.0, 4_096.0, 8_192.0]),
    ),
    max_size=40,
)


def _apply(gpu, op: str, mb: float, uid: str) -> None:
    resident = next(iter(gpu.containers), None)
    if op == "attach":
        if gpu.can_fit(mb):
            gpu.attach(uid, mb)
    elif op == "detach":
        if resident is not None:
            gpu.detach(resident)
    elif op == "resize":
        if resident is not None and mb - gpu.containers[resident].alloc_mb <= gpu.free_mem_mb:
            gpu.resize(resident, mb)
    elif op == "sleep":
        if not gpu.containers:
            gpu.sleep()
    elif op == "wake":
        gpu.asleep = False
    elif op == "fail":
        gpu.fail()
    elif op == "repair":
        gpu.repair()
    elif op in ("cordon", "uncordon"):
        gpu.cordoned = op == "cordon"
    else:
        gpu.arbitrate({
            u: ResourceDemand(sm=mb / 8_192.0, mem_mb=mb, tx_mbps=0.0, rx_mbps=0.0)
            for u in gpu.containers
        })


class TestColumnsMatchObjectWalk:
    @settings(max_examples=80, deadline=None)
    @given(_STEPS)
    def test_random_histories(self, steps):
        # Twelve nodes: node10-node12 sort before node2 as strings.
        cluster = make_paper_cluster(num_nodes=12, gpus_per_node=2)
        k = Knots(cluster)
        gpus = list(cluster.gpus())
        assert k.all_gpus_by_free_memory() == walk_gpus_by_free_memory(cluster)
        for n, (op, i, mb) in enumerate(steps):
            _apply(gpus[i], op, mb, f"p{n}")
            assert k.all_gpus_by_free_memory() == walk_gpus_by_free_memory(cluster)


class WalkKnots(Knots):
    """Knots whose device list is the object walk: the A/B oracle."""

    def all_gpus_by_free_memory(self) -> list[GpuView]:
        return walk_gpus_by_free_memory(self.cluster)


class CountingKnots(Knots):
    """The shipped Knots, counting the lists it builds."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls = 0

    def all_gpus_by_free_memory(self) -> list[GpuView]:
        self.calls += 1
        return super().all_gpus_by_free_memory()


_FAULTS = (
    DeviceFault(at_ms=300.0, gpu_id="node1/gpu0", duration_ms=900.0),
    DeviceFault(at_ms=2_500.0, gpu_id="node2/gpu1", duration_ms=400.0),
)


def _list_run(monkeypatch, knots_cls, scheduler_name, churn, mode):
    scenario = SCENARIOS["diurnal-gang"] if churn else None
    workload = generate_appmix_workload("app-mix-1", duration_s=2.0, seed=3)
    if scenario is not None:
        workload = apply_gang_mix(workload, scenario.gangs)
    obs = Observability(
        trace=False, metrics=False, audit=True, sanitize=mode == "sanitize"
    )
    monkeypatch.setattr(orchestrator_module, "Knots", knots_cls)
    sim = KubeKnotsSimulator(
        make_paper_cluster(num_nodes=8, gpus_per_node=2),
        make_scheduler(scheduler_name),
        workload,
        SimConfig(
            min_horizon_ms=12_000.0,
            faults=_FAULTS if churn else (),
            scenario=scenario,
        ),
        obs=obs,
    )
    if churn:
        assert isinstance(sim.orchestrator.scheduler, GangScheduler)
    result = sim.run()
    if obs.sanitizer is not None:
        assert obs.sanitizer.violations == []
    return sim.orchestrator.knots, result


#: Every (policy, churn, mode) run that takes the device list.  The
#: CBP/PP pass takes it only under the sanitizer, for its checks; with
#: churn the gang wrapper takes it in every mode.
_LIST_RUNS = [
    pytest.param(name, churn, mode, id=f"{name}-{'gang-faults' if churn else 'plain'}-{mode}")
    for mode in ("audit", "sanitize")
    for churn in (False, True)
    for name in sorted(SCHEDULERS)
    if churn or mode == "sanitize" or not issubclass(SCHEDULERS[name], CBPScheduler)
]


class TestColumnListIsExact:
    """Every registered policy, with and without capacity churn, gangs
    and device faults, under audit and under the sanitizer, runs the
    same with the column-built list as with the object walk."""

    @pytest.mark.parametrize("scheduler_name,churn,mode", _LIST_RUNS)
    def test_run_equals_object_walk_run(self, monkeypatch, scheduler_name, churn, mode):
        knots, columns = _list_run(monkeypatch, CountingKnots, scheduler_name, churn, mode)
        assert knots.calls > 0
        _, walk = _list_run(monkeypatch, WalkKnots, scheduler_name, churn, mode)
        assert_kk_identical(columns, walk, (scheduler_name, churn, mode))
