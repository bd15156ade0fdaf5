"""Tests for the Kube-Knots orchestrator (action application, pass skipping,
the quiescence predicate)."""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.sim.simulator as simulator_module
from repro.cluster.cluster import make_paper_cluster
from repro.core.orchestrator import KubeKnots
from repro.core.schedulers import (
    SCHEDULERS,
    PeakPredictionScheduler,
    UniformScheduler,
    make_scheduler,
)
from repro.core.schedulers.base import Bind, Resize, Sleep, Wake
from repro.kube.api import EventType
from repro.kube.kubelet import KubeletConfig
from repro.kube.pod import PodPhase
from repro.obs.context import Observability
from repro.scenario.gangs import GangScheduler, apply_gang_mix
from repro.scenario.spec import SCENARIOS
from repro.sim.simulator import DeviceFault, KubeKnotsSimulator, SimConfig
from repro.workloads.appmix import generate_appmix_workload
from tests.conftest import make_spec
from tests.test_sim_equivalence import assert_kk_identical


@pytest.fixture
def kk():
    return KubeKnots(make_paper_cluster(num_nodes=2), make_scheduler("peak-prediction"))


class TestActionApplication:
    def test_bind_routes_to_kubelet(self, kk):
        pod = kk.api.submit(make_spec(), 0.0)
        kk._apply(Bind(pod.uid, "node1/gpu0", 1_000.0), 0.0)
        assert pod.phase is PodPhase.SCHEDULED
        assert kk.kubelets["node1"].num_hosted() == 1
        assert kk.cluster.find_gpu("node1/gpu0").allocated_mem_mb == 1_000.0

    def test_resize_routes_to_plugin(self, kk):
        pod = kk.api.submit(make_spec(), 0.0)
        kk._apply(Bind(pod.uid, "node1/gpu0", 4_000.0), 0.0)
        kk._apply(Resize(pod.uid, "node1/gpu0", 1_500.0), 1.0)
        assert pod.alloc_mb == 1_500.0
        assert kk.cluster.find_gpu("node1/gpu0").allocated_mem_mb == 1_500.0

    def test_sleep_and_wake(self, kk):
        gpu = kk.cluster.find_gpu("node2/gpu0")
        kk._apply(Sleep("node2/gpu0"), 0.0)
        assert gpu.asleep
        kk._apply(Wake("node2/gpu0"), 1.0)
        assert not gpu.asleep

    def test_sleep_skipped_for_occupied_device(self, kk):
        pod = kk.api.submit(make_spec(), 0.0)
        kk._apply(Bind(pod.uid, "node1/gpu0", 100.0), 0.0)
        kk._apply(Sleep("node1/gpu0"), 1.0)
        assert not kk.cluster.find_gpu("node1/gpu0").asleep


class TestContext:
    def test_context_sees_residents(self, kk):
        pod = kk.api.submit(make_spec(image="img/x"), 0.0)
        kk._apply(Bind(pod.uid, "node1/gpu0", 500.0), 0.0)
        ctx = kk.build_context(1.0)
        residents = ctx.residents_on("node1/gpu0")
        assert len(residents) == 1
        assert residents[0].image == "img/x"
        assert residents[0].alloc_mb == 500.0

    def test_context_lists_pending(self, kk):
        kk.api.submit(make_spec("a"), 0.0)
        kk.api.submit(make_spec("b"), 0.0)
        ctx = kk.build_context(0.0)
        assert len(ctx.pending) == 2


class TestExecutionLoop:
    def test_completed_pod_feeds_profiles(self, kk):
        for node in kk.kubelets.values():
            node.prewarm({"img/learn"})
        pod = kk.api.submit(make_spec(image="img/learn", duration_ms=40.0), 0.0)
        kk.scheduling_pass(0.0)
        t = 0.0
        while not pod.done and t < 2_000.0:
            kk.step_kubelets(t, 10.0)
            t += 10.0
        assert pod.done
        assert "img/learn" in kk.knots.profiles

    def test_plugin_mode_follows_scheduler(self):
        exclusive = KubeKnots(make_paper_cluster(num_nodes=1), UniformScheduler())
        assert not exclusive.kubelets["node1"].plugin.sharing_enabled
        shared = KubeKnots(make_paper_cluster(num_nodes=1), make_scheduler("cbp"))
        assert shared.kubelets["node1"].plugin.sharing_enabled


# -- idle-pass skipping ------------------------------------------------------------


class ScheduleSpy:
    """Counts calls into one policy instance's ``schedule``."""

    def __init__(self, scheduler) -> None:
        self.calls = 0
        inner = scheduler.schedule

        def schedule(ctx):
            self.calls += 1
            return inner(ctx)

        scheduler.schedule = schedule


#: Devices never fall asleep on their own, so the only epoch moves in
#: these tests are the ones a test makes.
NO_AUTO_SLEEP = KubeletConfig(auto_pstate_idle_ms=1e12)


def settle(kk, spy, now: float) -> float:
    """Run passes 20 ms apart until one is skipped; returns the next
    pass time."""
    for _ in range(10):
        calls = spy.calls
        kk.scheduling_pass(now)
        now += 20.0
        if spy.calls == calls:
            return now
    raise AssertionError("passes never settled into skipping")


@pytest.fixture
def idle():
    """CBP over four nodes: a long resident on node1, a short one on
    node2, node3 awake and empty, node4 asleep.  Nothing is pending."""
    kk = KubeKnots(make_paper_cluster(num_nodes=4), make_scheduler("cbp"),
                   kubelet_config=NO_AUTO_SLEEP)
    for kubelet in kk.kubelets.values():
        kubelet.prewarm({"img/toy"})
    pods = {
        "long": kk.api.submit(make_spec("long", duration_ms=60_000.0), 0.0),
        "short": kk.api.submit(make_spec("short", duration_ms=100.0), 0.0),
    }
    kk._apply(Bind(pods["long"].uid, "node1/gpu0", 2_500.0), 0.0)
    kk._apply(Bind(pods["short"].uid, "node2/gpu0", 2_500.0), 0.0)
    kk.cluster.find_gpu("node4/gpu0").sleep()
    spy = ScheduleSpy(kk.scheduler)
    return kk, spy, pods


def _gpu(kk, gpu_id):
    return kk.cluster.find_gpu(gpu_id)


#: Epoch-moving events that leave nothing pending (bind, sleep, wake,
#: fail, repair, cordon, reclaim, restore) or requeue a pod (eviction),
#: plus a new submission.  ``(setup, event)``: the setup runs before
#: the passes settle, the event after.
EVENTS = {
    "bind": (None, lambda kk, pods, now: kk._apply(
        Bind(kk.api.submit(make_spec("late"), now).uid, "node3/gpu0", 1_000.0), now)),
    "eviction": (None, lambda kk, pods, now: kk.kubelets["node1"].evict_pod(
        pods["long"].uid, now)),
    "sleep": (None, lambda kk, pods, now: _gpu(kk, "node3/gpu0").sleep()),
    "wake": (None, lambda kk, pods, now: setattr(_gpu(kk, "node4/gpu0"), "asleep", False)),
    "fail": (None, lambda kk, pods, now: kk.fail_gpu("node3/gpu0")),
    "repair": (lambda kk, now: kk.fail_gpu("node3/gpu0"),
               lambda kk, pods, now: kk.repair_gpu("node3/gpu0")),
    "cordon": (None, lambda kk, pods, now: kk.cordon_node("node3")),
    "reclaim": (None, lambda kk, pods, now: kk.reclaim_node("node3", now)),
    "restore": (lambda kk, now: kk.reclaim_node("node3", now),
                lambda kk, pods, now: kk.restore_node("node3")),
    "submission": (None, lambda kk, pods, now: kk.api.submit(make_spec("new"), now)),
}


class TestIdlePassSkip:
    def test_repeat_noop_pass_does_not_call_policy(self):
        kk = KubeKnots(make_paper_cluster(num_nodes=2), make_scheduler("cbp"))
        spy = ScheduleSpy(kk.scheduler)
        assert kk.scheduling_pass(0.0) == []
        assert spy.calls == 1
        assert kk.scheduling_pass(20.0) == []
        assert spy.calls == 1

    def test_observed_skip_is_counted_and_opens_no_pass(self):
        obs = Observability(trace=True, metrics=True, audit=True)
        kk = KubeKnots(make_paper_cluster(num_nodes=2), make_scheduler("cbp"), obs=obs)
        for now in (0.0, 20.0, 40.0):
            assert kk.scheduling_pass(now) == []
        assert obs.metrics.get("scheduler_passes_total").value() == 1
        assert obs.metrics.get("scheduler_passes_skipped_total").value() == 2
        assert obs.audit.pass_id == 0             # one begin_pass
        spans = [e for e in obs.tracer.events if e["name"] == "scheduling_pass"]
        assert [e["ph"] for e in spans] == ["B", "E"]

    def test_a_held_queue_skips_its_repeat_pass(self, idle):
        kk, spy, _ = idle
        kk.api.submit(make_spec("huge", requested_mem_mb=16_384.0, mem_mb=16_000.0), 0.0)
        assert kk.scheduling_pass(0.0) == []      # a new pod: the pass runs
        assert spy.calls == 1
        assert kk.scheduling_pass(20.0) == []     # unplaceable, nothing changed: held
        assert spy.calls == 1
        assert kk.api.num_pending() == 1 and kk.queue_held()

    @pytest.mark.parametrize("event", sorted(EVENTS))
    def test_epoch_moving_event_rearms_the_policy(self, idle, event):
        kk, spy, pods = idle
        setup, act = EVENTS[event]
        if setup is not None:
            setup(kk, 0.0)
        now = settle(kk, spy, 0.0)
        calls = spy.calls
        act(kk, pods, now)
        kk.scheduling_pass(now + 20.0)
        assert spy.calls == calls + 1, f"{event}: the pass after it was skipped"

    @pytest.mark.parametrize(
        "kind", [EventType.SUCCEEDED, EventType.OOM_KILLED], ids=["completion", "oom-kill"]
    )
    def test_kubelet_event_rearms_the_policy(self, idle, kind):
        kk, spy, _ = idle
        if kind is EventType.OOM_KILLED:
            # Its memory outgrows the device: the kubelet kills it as
            # soon as it runs, long before the short resident completes.
            hog = kk.api.submit(make_spec("hog", duration_ms=60_000.0, mem_mb=20_000.0), 0.0)
            kk._apply(Bind(hog.uid, "node3/gpu0", 1_000.0), 0.0)
        now = settle(kk, spy, 0.0)
        calls = spy.calls
        while not kk.api.events_of(kind):
            assert now < 5_000.0, f"no {kind} event"
            kk.step_kubelets(now, 10.0)
            if not kk.api.events_of(kind):
                kk.scheduling_pass(now)
                assert spy.calls == calls, "a pass ran with nothing changed"
            now += 10.0
        kk.scheduling_pass(now)
        assert spy.calls == calls + 1

    def test_pp_sleeps_a_device_that_empties_while_idle(self):
        kk = KubeKnots(make_paper_cluster(num_nodes=3), PeakPredictionScheduler(),
                       kubelet_config=NO_AUTO_SLEEP)
        for kubelet in kk.kubelets.values():
            kubelet.prewarm({"img/toy"})
        long = kk.api.submit(make_spec("long", duration_ms=60_000.0), 0.0)
        short = kk.api.submit(make_spec("short", duration_ms=100.0), 0.0)
        kk._apply(Bind(long.uid, "node1/gpu0", 2_500.0), 0.0)
        kk._apply(Bind(short.uid, "node2/gpu0", 2_500.0), 0.0)
        spy = ScheduleSpy(kk.scheduler)
        now = settle(kk, spy, 0.0)
        assert _gpu(kk, "node3/gpu0").asleep          # the first pass consolidated
        calls = spy.calls
        while not short.done:
            kk.step_kubelets(now, 10.0)
            now += 10.0
        actions = kk.scheduling_pass(now)
        assert spy.calls == calls + 1
        assert Sleep("node2/gpu0") in actions
        assert _gpu(kk, "node2/gpu0").asleep
        assert not _gpu(kk, "node1/gpu0").asleep


# -- held queues ------------------------------------------------------------------


def _huge():
    """A pod no P100 takes under CBP: its request is over the 95% usage
    headroom, and its image has no profile to shrink it."""
    return make_spec("huge", image="img/huge", requested_mem_mb=16_384.0, mem_mb=16_000.0)


@pytest.fixture
def held(idle):
    """The ``idle`` fixture with an unplaceable pod pending: once the
    passes settle, its queue is held."""
    kk, spy, pods = idle
    pods["huge"] = kk.api.submit(_huge(), 0.0)
    return kk, spy, pods


#: ``EVENTS`` plus the input a held queue adds to the idle-pass key: a
#: profile update (here for the pending pod's image, as a completion
#: records it).
HELD_EVENTS = {
    **EVENTS,
    "profile": (None, lambda kk, pods, now: kk.knots.profiles.record_trace(
        "img/huge", make_spec("done", image="img/huge").trace)),
}


def _resag_held():
    """Res-Ag over two nodes with a resident on node1 and a pod larger
    than any device pending: Res-Ag takes Algorithm 1's views, so its
    hold key covers the sample columns."""
    kk = KubeKnots(make_paper_cluster(num_nodes=2), make_scheduler("res-ag"),
                   kubelet_config=NO_AUTO_SLEEP)
    resident = kk.api.submit(make_spec("long", duration_ms=60_000.0), 0.0)
    kk._apply(Bind(resident.uid, "node1/gpu0", 2_500.0), 0.0)
    kk.api.submit(make_spec("huge", requested_mem_mb=20_000.0, mem_mb=18_000.0), 0.0)
    return kk, ScheduleSpy(kk.scheduler)


def _resample(kk, gpu_id: str) -> None:
    """Write another sample for one device: a sample column moves, no
    node epoch does."""
    gpu = _gpu(kk, gpu_id)
    epoch_gen = kk.cluster.state.epoch_gen
    gpu.last_sample = replace(gpu.last_sample, sm_util=gpu.last_sample.sm_util + 0.25)
    assert kk.cluster.state.epoch_gen == epoch_gen


class TestHeldQueue:
    @pytest.mark.parametrize("event", sorted(HELD_EVENTS))
    def test_an_input_change_rearms_a_held_queue(self, held, event):
        kk, spy, pods = held
        setup, act = HELD_EVENTS[event]
        if setup is not None:
            setup(kk, 0.0)
        now = settle(kk, spy, 0.0)
        assert pods["huge"].phase is PodPhase.PENDING
        calls = spy.calls
        act(kk, pods, now)
        kk.scheduling_pass(now + 20.0)
        assert spy.calls == calls + 1, f"{event}: the pass after it was skipped"

    def test_a_requeue_rearms_a_held_queue(self, held):
        kk, spy, _ = held
        # Its memory outgrows the device: the kubelet kills it as soon as
        # it runs, and the API server puts it back in the queue.
        hog = kk.api.submit(make_spec("hog", duration_ms=60_000.0, mem_mb=20_000.0), 0.0)
        kk._apply(Bind(hog.uid, "node3/gpu0", 1_000.0), 0.0)
        now = settle(kk, spy, 0.0)
        calls = spy.calls
        while not kk.api.events_of(EventType.OOM_KILLED):
            assert now < 5_000.0, "no OOM kill"
            kk.step_kubelets(now, 10.0)
            if not kk.api.events_of(EventType.OOM_KILLED):
                kk.scheduling_pass(now)
                assert spy.calls == calls, "a pass ran with nothing changed"
            now += 10.0
        assert kk.api.events_of(EventType.REQUEUED)
        kk.scheduling_pass(now)
        assert spy.calls == calls + 1

    def test_a_sample_change_rearms_a_policy_that_reads_the_views(self):
        kk, spy = _resag_held()
        now = settle(kk, spy, 0.0)
        calls = spy.calls
        _resample(kk, "node1/gpu0")
        kk.scheduling_pass(now)
        assert spy.calls == calls + 1

    def test_a_sample_change_leaves_a_policy_that_reads_no_views_held(self, held):
        kk, spy, _ = held
        now = settle(kk, spy, 0.0)
        calls = spy.calls
        _resample(kk, "node1/gpu0")
        kk.scheduling_pass(now)
        assert spy.calls == calls                 # dark CBP reads no sample column

    def test_a_pass_that_read_a_ring_window_is_never_held(self):
        # One device, hosting a pod of the pending pod's image at its
        # profiled size (nothing to harvest): the correlation gate
        # rejects the pod (rho = 1), PP's forecast branch reads the
        # device's memory window, and there is no device to wake.
        kk = KubeKnots(make_paper_cluster(num_nodes=1), PeakPredictionScheduler(),
                       kubelet_config=NO_AUTO_SLEEP)
        kk.knots.profiles.record_trace("img/toy", make_spec(peak_mem_mb=3_000.0).trace)
        resident = kk.api.submit(make_spec("long", duration_ms=60_000.0), 0.0)
        kk._apply(Bind(resident.uid, "node1/gpu0", 2_000.0), 0.0)
        pending = kk.api.submit(make_spec("next", peak_mem_mb=3_000.0), 0.0)
        spy = ScheduleSpy(kk.scheduler)
        for i, now in enumerate((0.0, 20.0, 40.0)):
            reads = kk.knots.window_reads
            assert kk.scheduling_pass(now) == []
            assert kk.knots.window_reads > reads
            assert spy.calls == i + 1
        assert pending.phase is PodPhase.PENDING
        assert not kk.queue_held()
        assert kk.idle_until() == float("-inf")

    def test_a_held_queue_alone_is_idle(self):
        kk, now = settled()
        kk.api.submit(_huge(), now)
        now = tick(kk, now)                       # the pass runs and fails
        assert kk._repeats_noop()
        assert kk.idle_until() == kk.kubelets["node1"].quiet_horizon(0.0, 10.0)

    def test_sanitized_runs_are_idle_only_with_the_queue_held(self, sanitized_obs):
        kk, now = settled(obs=sanitized_obs)
        for gpu_id in ("node1/gpu0", "node2/gpu0"):
            _gpu(kk, gpu_id).sleep()
        assert kk.idle_until() == float("inf")
        kk.api.submit(_huge(), now)
        assert kk.idle_until() == float("-inf")   # no pass has seen the pod
        kk.scheduling_pass(now)
        assert kk.queue_held()
        assert kk.idle_until() == float("inf")

    def test_the_sanitizers_rerun_writes_no_audit_record_and_moves_no_metric(self):
        obs = Observability(trace=False, metrics=True, audit=True, sanitize=True)
        kk = KubeKnots(make_paper_cluster(num_nodes=2), make_scheduler("cbp"), obs=obs)
        kk.api.submit(_huge(), 0.0)
        assert kk.scheduling_pass(0.0) == []
        records = len(obs.audit.records)
        assert obs.audit.rejections()             # the executed pass logged its reject
        metrics = obs.metrics.render()
        checks = obs.sanitizer.checks
        idle_checks = []
        check_idle_pass = obs.sanitizer.check_idle_pass
        obs.sanitizer.check_idle_pass = lambda actions: (
            idle_checks.append(actions), check_idle_pass(actions))
        for now in (20.0, 40.0):
            assert kk.scheduling_pass(now) == []
        assert idle_checks == [[], []]            # both skips were re-run and checked
        assert obs.sanitizer.checks > checks
        assert len(obs.audit.records) == records
        skipped = "scheduler_passes_skipped_total"
        assert obs.metrics.get(skipped).value() == 2
        assert _without(obs.metrics.render(), skipped) == _without(metrics, skipped)
        assert obs.sanitizer.violations == []


def _without(text: str, name: str) -> list[str]:
    """Prometheus text lines that do not mention ``name``."""
    return [line for line in text.splitlines() if name not in line]


# -- the quiescence predicate ---------------------------------------------------


def tick(kk, now: float) -> float:
    """One kubelet step and one pass at ``now``; returns the next tick."""
    kk.step_kubelets(now, 10.0)
    kk.scheduling_pass(now)
    return now + 10.0


def settled(obs=None, prewarm=True):
    """CBP over two idle nodes after three ticks: every node stepped once
    and the passes repeat a no-op.  Returns the orchestrator and the
    next tick."""
    kk = KubeKnots(make_paper_cluster(num_nodes=2), make_scheduler("cbp"), obs=obs)
    if prewarm:
        for kubelet in kk.kubelets.values():
            kubelet.prewarm({"img/toy"})
    now = 0.0
    for _ in range(3):
        now = tick(kk, now)
    return kk, now


class TestIdleUntil:
    def test_a_settled_cluster_waits_for_its_auto_pstate_deadline(self):
        kk, _ = settled()
        # Both devices idle since 0 ms, stepped at 0 ms: the 2 s deadline
        # less half a tick, as the kubelet computes it.
        assert kk.idle_until() == kk.kubelets["node1"].quiet_horizon(0.0, 10.0) == 1_995.0

    def test_a_pending_pod_is_not_idle(self):
        kk, now = settled()
        kk.api.submit(make_spec(), now)
        assert kk.idle_until() == float("-inf")

    @pytest.mark.parametrize("phase", [PodPhase.SCHEDULED, PodPhase.RUNNING],
                             ids=["pulling", "running"])
    def test_a_hosted_pod_is_not_idle(self, phase):
        kk, now = settled(prewarm=phase is PodPhase.RUNNING)
        pod = kk.api.submit(make_spec(duration_ms=60_000.0), now)
        for _ in range(6):                    # bind, start, then passes settle
            now = tick(kk, now)
        assert pod.phase is phase
        assert kk._repeats_noop()
        assert kk.idle_until() == float("-inf")

    def test_a_pass_that_acted_is_not_idle(self):
        kk = KubeKnots(make_paper_cluster(num_nodes=3), make_scheduler("peak-prediction"))
        assert [type(a) for a in kk.scheduling_pass(0.0)] == [Sleep, Sleep]
        kk.step_kubelets(0.0, 10.0)
        assert kk.idle_until() == float("-inf")
        tick(kk, 10.0)                        # a no-op pass follows
        assert kk.idle_until() == kk._quiet_until.min() == 1_995.0

    def test_an_epoch_move_no_step_has_seen_is_not_idle(self):
        kk, now = settled()
        _gpu(kk, "node1/gpu0").sleep()
        kk.scheduling_pass(now)               # runs (the epoch moved), a no-op
        assert kk._repeats_noop()
        assert kk.idle_until() == float("-inf")
        kk.step_kubelets(now + 10.0, 10.0)    # node1 steps and sees it
        assert kk.idle_until() == kk.kubelets["node2"].quiet_horizon(0.0, 10.0)

    def test_the_horizon_passes_and_the_device_parks(self):
        kk, now = settled()
        _gpu(kk, "node2/gpu0").fail()
        now = tick(kk, now)
        horizon = kk.idle_until()
        assert horizon == 1_995.0 and kk._quiet_until[1] == float("inf")
        while now < horizon:
            now = tick(kk, now)
        assert not _gpu(kk, "node1/gpu0").asleep
        while True:
            kk.step_kubelets(now, 10.0)
            if _gpu(kk, "node1/gpu0").asleep:
                break
            kk.scheduling_pass(now)
            now += 10.0
        assert now >= 2_000.0
        assert kk.idle_until() == float("-inf")   # the sleep moved an epoch
        kk.scheduling_pass(now)
        assert kk.idle_until() == float("inf")    # every device parked

    def test_sanitized_runs_are_idle_only_with_every_device_parked(self, sanitized_obs):
        kk, now = settled(obs=sanitized_obs)
        assert kk._repeats_noop()
        assert kk.idle_until() == float("-inf")   # node1/gpu0 is awake
        kk.fail_gpu("node1/gpu0")
        _gpu(kk, "node2/gpu0").sleep()
        # No step or pass has seen either change; sanitized runs step
        # every node every tick, so only the devices count.
        assert kk.idle_until() == float("inf")
        _gpu(kk, "node2/gpu0").asleep = False
        assert kk.idle_until() == float("-inf")


class NeverSkipKubeKnots(KubeKnots):
    """The orchestrator with every pass executed: the A/B oracle."""

    def _repeats_noop(self) -> bool:
        return False


def _ab_run(monkeypatch, orchestrator_cls, scheduler_name, faults=(), scenario=None):
    workload = generate_appmix_workload("app-mix-1", duration_s=2.0, seed=3)
    if scenario is not None:
        workload = apply_gang_mix(workload, scenario.gangs)
    monkeypatch.setattr(simulator_module, "KubeKnots", orchestrator_cls)
    sim = KubeKnotsSimulator(
        make_paper_cluster(num_nodes=8, gpus_per_node=2),
        make_scheduler(scheduler_name),
        workload,
        SimConfig(min_horizon_ms=12_000.0, faults=faults, scenario=scenario),
    )
    spy = ScheduleSpy(sim.orchestrator.scheduler)
    return sim, sim.run(), spy.calls


AB_CASES = {
    **{name: {"scheduler_name": name} for name in SCHEDULERS},
    "gang+cbp/diurnal-gang": {"scheduler_name": "cbp", "scenario": SCENARIOS["diurnal-gang"]},
    "pp/device-faults": {
        "scheduler_name": "peak-prediction",
        "faults": (
            DeviceFault(at_ms=300.0, gpu_id="node1/gpu0", duration_ms=900.0),
            DeviceFault(at_ms=2_500.0, gpu_id="node2/gpu1", duration_ms=400.0),
        ),
    },
}


class TestSkipIsExact:
    @pytest.mark.parametrize("case", sorted(AB_CASES))
    def test_skipping_run_equals_never_skipping_run(self, monkeypatch, case):
        kw = AB_CASES[case]
        sim, skipping, calls = _ab_run(monkeypatch, KubeKnots, **kw)
        _, oracle, oracle_calls = _ab_run(monkeypatch, NeverSkipKubeKnots, **kw)
        if "scenario" in kw:
            assert isinstance(sim.orchestrator.scheduler, GangScheduler)
        assert calls < oracle_calls, f"{case}: no pass was skipped"
        assert_kk_identical(skipping, oracle, case)
