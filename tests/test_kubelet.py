"""Tests for the kubelet (node agent)."""

from __future__ import annotations

import pytest

from repro.cluster.node import GpuNode
from repro.kube.api import APIServer, EventType
from repro.kube.kubelet import Kubelet, KubeletConfig
from repro.kube.pod import PodPhase
from tests.conftest import make_spec


def bind_and_admit(api, kubelet, spec, now=0.0, alloc=None):
    pod = api.submit(spec, now)
    api.bind(pod, kubelet.node.node_id, f"{kubelet.node.node_id}/gpu0",
             alloc if alloc is not None else spec.requested_mem_mb, now)
    kubelet.admit(pod, now)
    return pod


@pytest.fixture
def setup():
    node = GpuNode.build("n")
    api = APIServer()
    kubelet = Kubelet(node, api, config=KubeletConfig(image_pull_ms=100.0, warm_start_ms=10.0))
    return node, api, kubelet


class TestAdmission:
    def test_cold_start_delays_execution(self, setup):
        node, api, kubelet = setup
        pod = bind_and_admit(api, kubelet, make_spec(duration_ms=50.0))
        kubelet.step(0.0, 10.0)
        assert pod.phase is PodPhase.SCHEDULED  # still pulling
        kubelet.step(100.0, 10.0)
        assert pod.phase is PodPhase.RUNNING

    def test_warm_start_is_fast(self, setup):
        node, api, kubelet = setup
        kubelet.prewarm({"img/toy"})
        pod = bind_and_admit(api, kubelet, make_spec(image="img/toy"))
        kubelet.step(10.0, 10.0)
        assert pod.phase is PodPhase.RUNNING

    def test_second_pod_of_image_is_warm(self, setup):
        node, api, kubelet = setup
        first = bind_and_admit(api, kubelet, make_spec("a", image="img/x", duration_ms=30.0))
        assert kubelet.has_image("img/x")
        kubelet.step(100.0, 10.0)  # first starts after cold pull
        spec = make_spec("b", image="img/x")
        pod = api.submit(spec, 100.0)
        api.bind(pod, "n", "n/gpu0", spec.requested_mem_mb, 100.0)
        kubelet.admit(pod, 100.0)
        kubelet.step(110.0, 10.0)
        assert pod.phase is PodPhase.RUNNING

    def test_wrong_node_rejected(self, setup):
        node, api, kubelet = setup
        pod = api.submit(make_spec(), 0.0)
        api.bind(pod, "other", "other/gpu0", 100.0, 0.0)
        with pytest.raises(ValueError):
            kubelet.admit(pod, 0.0)


class TestExecution:
    def test_uncontended_pod_completes_on_time(self, setup):
        node, api, kubelet = setup
        kubelet.prewarm({"img/toy"})
        pod = bind_and_admit(api, kubelet, make_spec(duration_ms=50.0, sm=0.4))
        t = 0.0
        while not pod.done and t < 1_000.0:
            kubelet.step(t, 10.0)
            t += 10.0
        assert pod.done
        # ~10 ms warm start + 50 ms work, on 10 ms ticks
        assert pod.finished_ms <= 100.0

    def test_contention_stretches_runtime(self, setup):
        node, api, kubelet = setup
        kubelet.prewarm({"img/a", "img/b"})
        a = bind_and_admit(api, kubelet, make_spec("a", image="img/a", duration_ms=100.0, sm=0.9, mem_mb=1000))
        b = bind_and_admit(api, kubelet, make_spec("b", image="img/b", duration_ms=100.0, sm=0.9, mem_mb=1000))
        t = 0.0
        while not (a.done and b.done) and t < 5_000.0:
            kubelet.step(t, 10.0)
            t += 10.0
        # two 0.9-SM pods time-share: both take much longer than solo
        assert a.finished_ms > 180.0 and b.finished_ms > 180.0

    def test_oom_victim_reported_and_freed(self, setup):
        node, api, kubelet = setup
        kubelet.prewarm({"img/a", "img/b"})
        bind_and_admit(api, kubelet, make_spec("a", image="img/a", mem_mb=9_000), alloc=9_000)
        victim = bind_and_admit(
            api, kubelet, make_spec("b", image="img/b", mem_mb=9_000), alloc=7_000
        )
        for t in (0.0, 10.0, 20.0):
            kubelet.step(t, 10.0)
        assert victim.restart_count == 1
        assert victim.uid in [p.uid for p in api.pending_pods()]
        assert kubelet.num_hosted() == 1

    def test_hosted_pods_filter_by_gpu(self, setup):
        node, api, kubelet = setup
        pod = bind_and_admit(api, kubelet, make_spec())
        assert kubelet.hosted_pods("n/gpu0")[0] is pod
        assert kubelet.hosted_pods("n/gpu9") == []


class TestAutoPState:
    def test_idle_device_falls_asleep(self, setup):
        node, api, kubelet = setup
        cfg_idle = kubelet.config.auto_pstate_idle_ms
        t = 0.0
        while t <= cfg_idle + 20.0:
            kubelet.step(t, 10.0)
            t += 10.0
        assert node.gpus[0].asleep

    def test_busy_device_stays_awake(self, setup):
        node, api, kubelet = setup
        kubelet.prewarm({"img/toy"})
        bind_and_admit(api, kubelet, make_spec(duration_ms=10_000.0))
        for t in range(0, 3_000, 10):
            kubelet.step(float(t), 10.0)
        assert not node.gpus[0].asleep

    def test_resize_notifies_api(self, setup):
        node, api, kubelet = setup
        pod = bind_and_admit(api, kubelet, make_spec(mem_mb=2_000), alloc=4_000)
        harvested = kubelet.resize(pod, 2_500, 5.0)
        assert harvested == 1_500
        assert pod.alloc_mb == 2_500
        assert len(api.events_of(EventType.RESIZED)) == 1


class TestParkedDeviceSkip:
    """A sleeping, empty device is not stepped when ``prev_now`` is
    given; the replay of the asleep refresh keeps its idle clock exact."""

    WAKE_AT = 300.0

    def _drive(self, skipping: bool):
        """Tick a two-device node whose n/gpu1 sleeps until a Wake at
        :attr:`WAKE_AT`, the way the orchestrator does (``prev_now`` and
        a quiet horizon per step) or as a full walk (no ``prev_now``)."""
        node = GpuNode.build("n", num_gpus=2)
        api = APIServer()
        kubelet = Kubelet(node, api, config=KubeletConfig(
            image_pull_ms=10.0, warm_start_ms=10.0, auto_pstate_idle_ms=200.0))
        kubelet.prewarm({"img/toy"})
        bind_and_admit(api, kubelet, make_spec(duration_ms=10_000.0))
        parked = node.gpus[1]
        parked.sleep()
        stepped: list[float] = []
        step_device = kubelet.step_device

        def spy(gpu, now, *args):
            if gpu is parked:
                stepped.append(now)
            step_device(gpu, now, *args)

        kubelet.step_device = spy
        trace = []
        prev = None
        for t in range(0, 1_000, 10):
            now = float(t)
            if now == self.WAKE_AT:
                parked.asleep = False   # what an applied Wake does
            kubelet.step(now, 10.0, prev if skipping else None)
            if skipping:
                kubelet.quiet_horizon(now, 10.0)
            prev = now
            trace.append((now, parked.asleep, kubelet._idle_since[parked.gpu_id]))
        return trace, stepped

    def test_woken_device_restarts_idle_clock_as_under_full_walk(self):
        skip_trace, skip_steps = self._drive(skipping=True)
        full_trace, full_steps = self._drive(skipping=False)
        # Parked from the first tick (which writes its asleep sample)
        # until the Wake: never stepped.
        assert [t for t in skip_steps if t < self.WAKE_AT] == [0.0]
        assert len(full_steps) == len(full_trace)
        # The same power states throughout ...
        assert [s[:2] for s in skip_trace] == [s[:2] for s in full_trace]
        # ... and, from the Wake until it falls asleep again, the same
        # idle clock: restarted from the last tick it slept through.
        resleep = next(t for t, asleep, _ in full_trace if t > self.WAKE_AT and asleep)
        assert resleep == self.WAKE_AT - 10.0 + 200.0
        awake = [s for s in full_trace if self.WAKE_AT <= s[0] <= resleep]
        assert [s for s in skip_trace if self.WAKE_AT <= s[0] <= resleep] == awake
        assert awake[0][2] == self.WAKE_AT - 10.0
