"""Fault-injection tests for the runtime sanitizer.

Each test plants exactly one invariant breach in an otherwise healthy
component and asserts the sanitizer trips that invariant — and only
that one — through the production call sites (engine step, kubelet
step, Knots query, DL-simulator loop), not by calling checks directly.
"""

from __future__ import annotations

import hashlib
import math

import pytest

from repro.analysis.sanitizer import INVARIANTS, Sanitizer, SanitizerError, Violation
from repro.cluster.cluster import make_heterogeneous_cluster, make_paper_cluster
from repro.cluster.node import GpuNode
from repro.core.knots import Knots, KnotsConfig
from repro.core.orchestrator import KubeKnots
from repro.core.schedulers import make_scheduler
from repro.core.schedulers.base import Scheduler, Sleep
from repro.kube.api import APIServer
from repro.kube.device_plugin import InvalidResizeError
from repro.kube.kubelet import Kubelet, KubeletConfig
from repro.obs.context import Observability
from repro.sim.dlsim import DLClusterSimulator, make_dl_policy
from repro.sim.engine import EventLoop, SimulationError
from repro.sim.simulator import KubeKnotsSimulator, SimConfig, run_appmix
from repro.workloads.appmix import generate_appmix_workload
from repro.workloads.dlt import DLJob, DLJobKind
from tests.conftest import make_spec
from tests.test_simulator import tiny_workload


def bind_and_admit(api, kubelet, spec, now=0.0, alloc=None):
    pod = api.submit(spec, now)
    api.bind(pod, kubelet.node.node_id, f"{kubelet.node.node_id}/gpu0",
             alloc if alloc is not None else spec.requested_mem_mb, now)
    kubelet.admit(pod, now)
    return pod


def make_kubelet(sanitized_obs):
    node = GpuNode.build("n")
    api = APIServer()
    kubelet = Kubelet(node, api,
                      config=KubeletConfig(image_pull_ms=10.0, warm_start_ms=10.0),
                      obs=sanitized_obs)
    return node, api, kubelet


class TestEventLoopInvariants:
    def test_schedule_in_past_trips(self, sanitized_obs):
        loop = EventLoop(obs=sanitized_obs)
        loop.schedule(5.0, lambda: None)
        loop.run()
        assert loop.now == 5.0
        with pytest.raises(SanitizerError) as exc:
            loop.schedule_at(loop.now - 1.0, lambda: None)
        assert exc.value.violation.invariant == "schedule_in_past"

    def test_negative_delay_trips(self, sanitized_obs):
        loop = EventLoop(obs=sanitized_obs)
        with pytest.raises(SanitizerError) as exc:
            loop.schedule(-1.0, lambda: None)
        assert exc.value.violation.invariant == "schedule_in_past"

    def test_without_sanitizer_same_misuse_is_a_simulation_error(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.schedule(-1.0, lambda: None)

    def test_heap_counter_corruption_trips(self, sanitized_obs):
        loop = EventLoop(obs=sanitized_obs)
        sanitized_obs.sanitizer.heap_audit_interval = 1  # audit every fire
        for t in (1.0, 2.0, 3.0):
            loop.schedule(t, lambda: None)
        loop._pending += 2  # planted corruption of the O(1) live counter
        with pytest.raises(SanitizerError) as exc:
            loop.run()
        assert exc.value.violation.invariant == "heap_consistency"

    def test_healthy_loop_is_audited_clean(self, sanitized_obs):
        loop = EventLoop(obs=sanitized_obs)
        sanitized_obs.sanitizer.heap_audit_interval = 1
        handles = [loop.schedule(float(t), lambda: None) for t in range(1, 20)]
        handles[7].cancel()  # cancellation must not desync the counter
        loop.run()
        assert sanitized_obs.sanitizer.violations == []
        assert sanitized_obs.sanitizer.checks > 0


class TestGpuMemoryConservation:
    def test_planted_overcommit_trips_on_kubelet_step(self, sanitized_obs):
        node, api, kubelet = make_kubelet(sanitized_obs)
        pod = bind_and_admit(api, kubelet, make_spec(duration_ms=100.0))
        gpu = node.gpus[0]
        # Planted breach: blow the reservation past device capacity
        # behind the accounting's back.
        gpu.containers[pod.uid].alloc_mb = gpu.mem_capacity_mb + 1_000.0
        with pytest.raises(SanitizerError) as exc:
            kubelet.step(20.0, 10.0)
        assert exc.value.violation.invariant == "memory_conservation"

    def test_planted_negative_reservation_trips(self, sanitized_obs):
        node, api, kubelet = make_kubelet(sanitized_obs)
        pod = bind_and_admit(api, kubelet, make_spec(duration_ms=100.0))
        node.gpus[0].containers[pod.uid].alloc_mb = -50.0
        with pytest.raises(SanitizerError) as exc:
            kubelet.step(20.0, 10.0)
        assert exc.value.violation.invariant == "memory_conservation"
        assert "negative reservation" in str(exc.value)

    def test_admit_checks_the_device(self, sanitized_obs):
        node, api, kubelet = make_kubelet(sanitized_obs)
        bind_and_admit(api, kubelet, make_spec("a", duration_ms=100.0))
        assert sanitized_obs.sanitizer.checks > 0
        assert sanitized_obs.sanitizer.violations == []


class TestSmShares:
    def test_arbitrate_granting_over_one_trips(self, sanitized_obs, monkeypatch):
        node, api, kubelet = make_kubelet(sanitized_obs)
        pod = bind_and_admit(api, kubelet, make_spec(duration_ms=100.0))
        kubelet.step(10.0, 10.0)  # past the pull deadline: pod is RUNNING
        gpu = node.gpus[0]
        monkeypatch.setattr(
            gpu, "arbitrate", lambda demands: ({pod.uid: 1.5}, None, None)
        )
        with pytest.raises(SanitizerError) as exc:
            kubelet.step(20.0, 10.0)
        assert exc.value.violation.invariant == "sm_shares"
        assert exc.value.violation.details["share"] == 1.5


class TestTelemetryStaleness:
    def test_stale_window_trips_on_query(self, sanitized_obs):
        cluster = make_paper_cluster(num_nodes=1)
        knots = Knots(cluster,
                      KnotsConfig(heartbeat_ms=10.0, window_ms=20_000.0),
                      obs=sanitized_obs)
        knots.heartbeat(0.0)
        gpu_id = next(iter(cluster.gpus())).gpu_id
        # Fresh read: newest sample is 0 old.
        knots.query(gpu_id, 0.0)
        # 10 s later nothing has heartbeat: the newest sample is 1000
        # heartbeats old but still inside the 20 s query window.
        with pytest.raises(SanitizerError) as exc:
            knots.query(gpu_id, 10_000.0)
        assert exc.value.violation.invariant == "telemetry_staleness"

    def test_memory_window_checks_too(self, sanitized_obs):
        cluster = make_paper_cluster(num_nodes=1)
        knots = Knots(cluster,
                      KnotsConfig(heartbeat_ms=10.0, window_ms=20_000.0),
                      obs=sanitized_obs)
        knots.heartbeat(0.0)
        with pytest.raises(SanitizerError) as exc:
            knots.memory_window(next(iter(cluster.gpus())).gpu_id, 10_000.0)
        assert exc.value.violation.invariant == "telemetry_staleness"

    def test_empty_window_is_exempt(self, sanitized_obs):
        cluster = make_paper_cluster(num_nodes=1)
        knots = Knots(cluster, KnotsConfig(heartbeat_ms=10.0), obs=sanitized_obs)
        # No heartbeat has happened: windows are empty, not stale.
        knots.query(next(iter(cluster.gpus())).gpu_id, 10_000.0)
        assert sanitized_obs.sanitizer.violations == []


class TestDlSimulatorInvariants:
    @staticmethod
    def jobs():
        return [DLJob(0, DLJobKind.TRAINING, 0.0, 1, 10.0),
                DLJob(1, DLJobKind.INFERENCE, 1.0, 1, 0.1)]

    def test_planted_negative_pool_load_trips(self, sanitized_obs):
        sim = DLClusterSimulator(self.jobs(), make_dl_policy("res-ag"),
                                 n_nodes=1, gpus_per_node=4, obs=sanitized_obs)
        sim.pool.load[0] = -1  # planted accounting corruption
        with pytest.raises(SanitizerError) as exc:
            sim.run()
        assert exc.value.violation.invariant == "pool_accounting"

    def test_clean_run_is_audited_clean(self, sanitized_obs):
        sim = DLClusterSimulator(self.jobs(), make_dl_policy("cbp-pp"),
                                 n_nodes=1, gpus_per_node=4, obs=sanitized_obs)
        result = sim.run()
        assert all(j.finish_s is not None for j in result.jobs)
        assert sanitized_obs.sanitizer.violations == []
        assert sanitized_obs.sanitizer.checks > 0


class LateSleeper(Scheduler):
    """Breaks the idle-pass contract of ``Scheduler.schedule``: with
    nothing pending it sleeps a device once ``now`` passes a threshold,
    a time-driven action no node epoch records."""

    name = "late-sleeper"

    def __init__(self, after_ms: float) -> None:
        self.after_ms = after_ms

    def schedule(self, ctx):
        if ctx.pending or ctx.now < self.after_ms:
            return []
        return [Sleep("node1/gpu0")]


class TestIdlePassNoop:
    def test_acting_on_a_skipped_pass_trips(self, sanitized_obs):
        kk = KubeKnots(make_paper_cluster(num_nodes=2), LateSleeper(after_ms=100.0),
                       obs=sanitized_obs)
        for now in (0.0, 20.0, 40.0):   # one executed no-op, then skips
            assert kk.scheduling_pass(now) == []
        assert sanitized_obs.sanitizer.violations == []
        with pytest.raises(SanitizerError) as exc:
            kk.scheduling_pass(120.0)
        assert exc.value.violation.invariant == "idle_pass_noop"

    def test_actions_of_a_skipped_pass_are_not_applied(self):
        obs = Observability(trace=False, metrics=False, audit=True,
                            sanitize=True, halt_on_violation=False)
        kk = KubeKnots(make_paper_cluster(num_nodes=2), LateSleeper(after_ms=100.0), obs=obs)
        assert kk.scheduling_pass(0.0) == []
        assert kk.scheduling_pass(120.0) == []
        assert [v.invariant for v in obs.sanitizer.violations] == ["idle_pass_noop"]
        assert not kk.cluster.find_gpu("node1/gpu0").asleep

    @pytest.mark.parametrize("name", ["cbp", "peak-prediction"])
    def test_contract_keeping_policies_skip_clean(self, name):
        obs = Observability(trace=False, metrics=True, audit=True, sanitize=True)
        kk = KubeKnots(make_paper_cluster(num_nodes=2), make_scheduler(name), obs=obs)
        for now in (0.0, 20.0, 40.0, 60.0, 80.0):
            kk.scheduling_pass(now)
        assert obs.metrics.get("scheduler_passes_skipped_total").value() >= 3
        assert obs.sanitizer.violations == []


class TestMirrorConsistency:
    def _hosting(self, obs):
        """A sanitized orchestrator with one pod bound to node1/gpu0."""
        kk = KubeKnots(make_paper_cluster(num_nodes=2), make_scheduler("cbp"), obs=obs)
        pod = kk.api.submit(make_spec(duration_ms=5_000.0), 0.0)
        kk.scheduling_pass(0.0)
        assert pod.gpu_id is not None
        return kk, pod

    def test_reservation_written_behind_the_mirror_trips(self, sanitized_obs):
        kk, pod = self._hosting(sanitized_obs)
        gpu = kk.cluster.find_gpu(pod.gpu_id)
        # Planted drift: shrink the reservation without going through
        # GPU.resize, so ClusterState never re-sums it.
        gpu.containers[pod.uid].alloc_mb /= 2
        kk.api.submit(make_spec("next", duration_ms=5_000.0), 20.0)
        with pytest.raises(SanitizerError) as exc:
            kk.scheduling_pass(20.0)
        violation = exc.value.violation
        assert violation.invariant == "mirror_consistency"
        assert violation.details["gpu"] == pod.gpu_id
        assert violation.details["field"] == "free_alloc_mb"

    def test_sample_column_drift_trips(self):
        obs = Observability(trace=False, metrics=False, audit=True,
                            sanitize=True, halt_on_violation=False)
        kk, pod = self._hosting(obs)
        state = kk.cluster.state
        state.mem_used_mb[state.index[pod.gpu_id]] += 1.0
        kk.knots.all_gpus_by_free_memory()
        assert [(v.invariant, v.details["field"]) for v in obs.sanitizer.violations] == [
            ("mirror_consistency", "mem_used_mb"),
        ]

    def test_consistent_mirror_is_checked_clean(self, sanitized_obs):
        kk, _ = self._hosting(sanitized_obs)
        checks = sanitized_obs.sanitizer.checks
        views = kk.knots.all_gpus_by_free_memory()
        # One mirror check and one view check per listed device.
        assert sanitized_obs.sanitizer.checks == checks + 2 * len(views)
        assert sanitized_obs.sanitizer.violations == []


class TestResizeGuards:
    def test_negative_resize_is_a_typed_error(self):
        node = GpuNode.build("n")
        api = APIServer()
        kubelet = Kubelet(node, api, config=KubeletConfig(image_pull_ms=10.0))
        pod = bind_and_admit(api, kubelet, make_spec(duration_ms=100.0))
        with pytest.raises(InvalidResizeError):
            kubelet.resize(pod, -100.0, 5.0)
        # Backward compatible: it is still a ValueError.
        with pytest.raises(ValueError):
            kubelet.resize(pod, -100.0, 5.0)

    def test_overcapacity_resize_is_a_typed_error(self):
        node = GpuNode.build("n")
        api = APIServer()
        kubelet = Kubelet(node, api, config=KubeletConfig(image_pull_ms=10.0))
        pod = bind_and_admit(api, kubelet, make_spec(duration_ms=100.0))
        cap = node.gpus[0].mem_capacity_mb
        with pytest.raises(InvalidResizeError):
            kubelet.resize(pod, cap * 2, 5.0)


class TestReporting:
    def test_violation_lands_in_audit_log(self):
        obs = Observability(trace=False, metrics=False, audit=True,
                            sanitize=True, halt_on_violation=False)
        loop = EventLoop(obs=obs)
        with pytest.raises(SimulationError):
            # halt=False: the sanitizer records, the engine still refuses.
            loop.schedule(-1.0, lambda: None)
        records = obs.audit.violations()
        assert len(records) == 1
        assert records[0].kind == "violation"
        assert records[0].evidence["invariant"] == "schedule_in_past"
        san = obs.sanitizer
        assert san.summary() == {"schedule_in_past": 1}

    def test_collect_mode_accumulates_instead_of_raising(self):
        san = Sanitizer(halt=False)
        san.check_shares("g0", {"a": 2.0, "b": -0.5})
        assert [v.invariant for v in san.violations] == ["sm_shares", "sm_shares"]

    def test_unknown_invariant_is_rejected(self):
        san = Sanitizer(halt=False)
        with pytest.raises(ValueError):
            san.violation("not_an_invariant", "nope")

    def test_violation_render_carries_evidence(self):
        v = Violation(invariant="sm_shares", ts=12.0, message="too big",
                      details={"share": 1.5})
        assert "[sm_shares]" in v.render()
        assert "share=1.5" in v.render()

    def test_invariant_vocabulary_is_stable(self):
        assert set(INVARIANTS) == {
            "memory_conservation", "sm_shares", "schedule_in_past",
            "time_monotonicity", "heap_consistency", "telemetry_staleness",
            "pool_accounting", "fast_forward_quiescence",
            "capacity_conservation", "idle_pass_noop", "mirror_consistency",
        }


class TestCleanEndToEnd:
    def test_sanitized_fig9_style_run_is_clean(self, sanitized_obs):
        cluster = make_paper_cluster(num_nodes=3)
        sim = KubeKnotsSimulator(cluster, make_scheduler("peak-prediction"),
                                 tiny_workload(), obs=sanitized_obs)
        result = sim.run()
        assert len(result.completed()) == 8
        assert sanitized_obs.sanitizer.violations == []
        assert sanitized_obs.sanitizer.checks > 0


def _fingerprint(result, checks: int) -> str:
    """sha256 over a run's results and its sanitizer check count, floats
    at ten significant digits (a last-bit difference from another SIMD
    reduction order does not show; a changed decision or sample does)."""
    h = hashlib.sha256()

    def put(*fields: str) -> None:
        h.update(("\x1f".join(fields) + "\n").encode())

    def f(x) -> str:
        return "-" if x is None else format(float(x), ".10g")

    put(result.scheduler, f(result.makespan_ms), str(result.oom_kills),
        str(result.evictions), str(result.resizes), str(checks))
    for p in result.pods:
        put(p.uid, p.phase.value, str(p.gpu_id), f(p.alloc_mb), f(p.progress_ms),
            str(p.restart_count), f(p.submitted_ms), f(p.started_ms), f(p.finished_ms))
    for gpu_id, joules in sorted(result.energy_j_per_gpu.items()):
        put(gpu_id, f(joules))
    for series in (result.gpu_util_series, result.gpu_mem_series):
        for gpu_id, values in sorted(series.items()):
            put(gpu_id, str(len(values)), f(math.fsum(values.tolist())))
    times = result.sample_times_ms
    put(str(len(times)), f(math.fsum(times.tolist())))
    return h.hexdigest()


class TestSanitizedGolden:
    """Pinned fingerprints of three sanitized runs.  A sanitized run
    steps every device every tick, empty ones included, so a shortcut in
    the object tick that a dark run never takes shows here (a memo of
    ``GPU.arbitrate`` keyed on the demands alone changes the first).  In
    the third, a 16,220 MB ``djinn/key`` pod waits from 2.65 s to the
    horizon for a profile its image never gets: its queue is held, the
    sanitizer re-runs and checks 198 held passes, and the run
    fast-forwards around the held queue."""

    @pytest.mark.parametrize(
        "mix, scheduler, load, checks, digest",
        [
            ("app-mix-3", "peak-prediction", 1.0, 19_091,
             "339351bd4045fd961542a41b70e738e8d5c3640ae69585dbee7eccfb964a3016"),
            ("app-mix-1", "cbp", 0.3, 38_555,
             "11c7a724bd9b89fc33a98d3becbe43f2396db753005e078c979bc4de3dd13386"),
            ("app-mix-1", "cbp", 0.05, 27_475,
             "a08c15dc4922576300de820bce747b03617c4fc650df728e7cdc780242610201"),
        ],
        ids=["pp-app-mix-3", "cbp-app-mix-1", "cbp-held-queue"],
    )
    def test_sanitized_run_matches_its_pin(self, sanitized_obs, mix, scheduler, load, checks, digest):
        result = run_appmix(
            mix, make_scheduler(scheduler), duration_s=8, seed=3, num_nodes=6,
            gpus_per_node=2, load_factor=load,
            config=SimConfig(min_horizon_ms=20_000, horizon_factor=1), obs=sanitized_obs,
        )
        san = sanitized_obs.sanitizer
        assert san.violations == []
        assert san.checks == checks
        assert _fingerprint(result, san.checks) == digest


def test_uniform_keeps_reservations_within_small_devices(sanitized_obs):
    """Uniform on a fleet with 12,288 MB M40s and K80s beside P100s and
    V100s: app-mix-1's largest requests (16,220 MB) go only to devices
    that can hold them, so the sanitized run completes clean."""
    workload = generate_appmix_workload("app-mix-1", duration_s=2, seed=3, load_factor=8)
    sim = KubeKnotsSimulator(
        make_heterogeneous_cluster(("P100", "M40", "V100", "K80") * 2),
        make_scheduler("uniform"), workload, SimConfig(), obs=sanitized_obs,
    )
    assert max(spec.requested_mem_mb for _, spec in workload) > 12_288
    sim.run()
    assert sanitized_obs.sanitizer.violations == []
    assert sanitized_obs.sanitizer.checks > 0
