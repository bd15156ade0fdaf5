"""Kubelet: the per-node agent executing pods on GPUs.

Responsibilities mirrored from the paper's setup (Sec. V-B):

* **image pulls** — the first pod of an image on a node pays a
  cold-start pull latency (dependent docker layers such as TensorFlow);
  later pods of the same image start warm.  Host->GPU data transfer is
  *not* hidden: it is the load phase of every workload trace.
* **execution** — each tick the kubelet collects the instantaneous
  demand of every running pod from its trace, lets the GPU arbitrate
  (time-shared SM, space-shared memory), and advances each pod's
  progress by the share it was granted.
* **OOM handling** — a capacity violation kills the victim container;
  the kubelet frees it and reports the kill so the API server requeues
  the pod at the back of the line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.node import GpuNode
from repro.kube.api import APIServer
from repro.kube.device_plugin import SharedGPUDevicePlugin
from repro.kube.pod import Pod, PodPhase
from repro.obs.context import NOOP, Observability
from repro.obs.metrics import DEFAULT_BUCKETS_MS

__all__ = ["Kubelet", "KubeletConfig"]


@dataclass(frozen=True)
class KubeletConfig:
    """Node-agent timing knobs."""

    image_pull_ms: float = 2_000.0   # cold-start docker pull ("order of seconds")
    warm_start_ms: float = 20.0      # container create/start when layers cached
    #: Hardware power management: a device with nothing resident for
    #: this long drops to its deepest performance state (p_state 12)
    #: on its own — the driver does this regardless of scheduler.
    auto_pstate_idle_ms: float = 2_000.0


class Kubelet:
    """Node agent for one :class:`GpuNode`."""

    def __init__(
        self,
        node: GpuNode,
        api: APIServer,
        plugin: SharedGPUDevicePlugin | None = None,
        config: KubeletConfig | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.node = node
        self.api = api
        self.plugin = plugin or SharedGPUDevicePlugin(node)
        self.config = config or KubeletConfig()
        self.obs = obs or NOOP
        #: Optional shared network fabric (scenario runs): when set,
        #: cold image pulls are charged per-link transfer costs instead
        #: of the constant ``image_pull_ms``.
        self.network = None
        #: Optional vectorized execution quantum
        #: (:class:`repro.cluster.quantum.QuantumEngine`).  When set,
        #: admit/start/release/resize write through so the engine's
        #: pod-major arrays mirror the dicts below — the dicts stay the
        #: source of truth either way.
        self.engine = None
        self._image_cache: set[str] = set()
        self._pods: dict[str, Pod] = {}
        self._start_deadline: dict[str, float] = {}
        self._idle_since: dict[str, float] = {g.gpu_id: 0.0 for g in node.gpus}
        #: Devices that were asleep (and healthy) at the end of the last
        #: executed step — see the ``prev_now`` refresh in :meth:`step`.
        self._asleep_refresh: list[str] = []
        metrics = self.obs.metrics
        self._m_admitted = metrics.counter("pods_admitted_total", "Pods admitted onto a node")
        self._m_completed = metrics.counter("pods_completed_total", "Pods that ran to completion")
        self._m_oom = metrics.counter("pods_oom_killed_total", "Pods killed by capacity violations")
        self._m_evicted = metrics.counter("pods_evicted_total", "Pods evicted by device failures")
        self._m_resizes = metrics.counter("pod_resizes_total", "Container reservation resizes (harvests)")
        self._m_queue_wait = metrics.histogram(
            "pod_queue_wait_ms", "Submit-to-admit queueing delay", buckets=DEFAULT_BUCKETS_MS
        )

    # -- admission (called right after the scheduler binds a pod) ----------

    def admit(self, pod: Pod, now: float) -> None:
        """Take ownership of a bound pod: allocate GPU memory, start pull."""
        if pod.node_id != self.node.node_id:
            raise ValueError(f"{pod.uid} bound to {pod.node_id}, not {self.node.node_id}")
        if pod.gpu_id is None:
            raise ValueError(f"{pod.uid} has no GPU assignment")
        self.plugin.allocate(pod.gpu_id, pod.uid, pod.alloc_mb)
        san = self.obs.sanitizer
        if san is not None:
            san.check_gpu(self.node.find_gpu(pod.gpu_id))
        cold = pod.spec.image not in self._image_cache
        if cold and self.network is not None:
            delay = self.network.pull_ms(self.node.node_id, now)
        else:
            delay = self.config.image_pull_ms if cold else self.config.warm_start_ms
        self._image_cache.add(pod.spec.image)
        self._pods[pod.uid] = pod
        deadline = now + delay
        self._start_deadline[pod.uid] = deadline
        if self.engine is not None:
            self.engine.on_admit(pod, deadline)
        if self.obs.enabled:
            self._m_admitted.inc()
            self._m_queue_wait.observe(max(now - pod.submitted_ms, 0.0))
            tracer = self.obs.tracer
            if tracer.enabled:
                tracer.async_begin(
                    f"pod:{pod.spec.image}", pod.uid, cat="pod",
                    args={"gpu": pod.gpu_id, "alloc_mb": pod.alloc_mb, "cold_pull": cold},
                    ts=now,
                )

    def resize(self, pod: Pod, new_alloc_mb: float, now: float) -> float:
        """Resize a hosted pod's reservation (harvesting hook)."""
        if pod.uid not in self._pods:
            raise KeyError(f"{pod.uid} not hosted on {self.node.node_id}")
        delta = self.plugin.resize(pod.gpu_id, pod.uid, new_alloc_mb)
        san = self.obs.sanitizer
        if san is not None:
            san.check_gpu(self.node.find_gpu(pod.gpu_id))
        self.api.notify_resized(pod, new_alloc_mb, now)
        if self.engine is not None:
            self.engine.on_resize(pod.uid, float(new_alloc_mb))
        if self.obs.enabled:
            self._m_resizes.inc()
            tracer = self.obs.tracer
            if tracer.enabled:
                tracer.instant(
                    "resize", cat="harvest",
                    args={"pod": pod.uid, "gpu": pod.gpu_id, "new_alloc_mb": new_alloc_mb},
                    ts=now,
                )
        return delta

    # -- execution ----------------------------------------------------------

    def step(self, now: float, dt_ms: float, prev_now: float | None = None) -> list[Pod]:
        """Advance all hosted pods by one tick.

        Returns pods OOM-killed this tick (already freed and reported).

        ``prev_now`` is the previous tick's timestamp, passed by the
        orchestrator when intermediate ticks may have been skipped
        (see :meth:`quiet_horizon`): a sleeping device has its
        ``idle_since`` refreshed every tick it stays asleep, so after a
        skip the refresh is replayed once here.  Any device that
        changed state since the last executed step did so after
        ``prev_now`` (a state change re-arms stepping immediately), so
        the end-of-last-step snapshot is exact.

        Running pods are grouped by device in one pass over the hosted
        pods (dict order kept).  With ``prev_now`` given and no
        sanitizer armed, a parked device (``GPU.parked``: asleep, empty,
        healthy and holding its asleep idle sample) is not stepped:
        stepping it would only set its ``idle_since`` to ``now``, and the
        next step's ``prev_now`` replay restores that value before
        anything reads it.
        """
        if prev_now is not None:
            for gpu_id in self._asleep_refresh:
                self._idle_since[gpu_id] = prev_now
        if self._start_deadline:
            self.start_due_pods(now)

        victims: list[Pod] = []
        san = self.obs.sanitizer
        running_on: dict[str, list[Pod]] = {}
        for pod in self._pods.values():
            if pod.phase is PodPhase.RUNNING:
                running_on.setdefault(pod.gpu_id, []).append(pod)
        skip_parked = prev_now is not None and san is None
        for gpu in self.node.gpus:
            running = running_on.get(gpu.gpu_id, ())
            if skip_parked and not running and gpu.parked():
                continue
            self.step_device(gpu, now, dt_ms, victims, san, running)
        return victims

    def start_due_pods(self, now: float) -> None:
        """Start every pod whose image pull deadline has passed.

        Also the vectorized quantum's entry point: the engine calls it
        only for nodes its pull-deadline mask flagged, so the common
        all-pods-running tick never scans the dict.
        """
        engine = self.engine
        for uid, deadline in list(self._start_deadline.items()):
            if now >= deadline:
                pod = self._pods[uid]
                self.api.notify_started(pod, now)
                del self._start_deadline[uid]
                if engine is not None:
                    engine.on_pod_started(pod)

    def step_device(
        self, gpu, now: float, dt_ms: float, victims: list[Pod], san=None,
        running=None,
    ) -> None:
        """Advance one device by one tick (the object execution path).

        The single per-device implementation: :meth:`step` calls it for
        every device it steps, and the vectorized quantum replays it
        verbatim for devices hit by a rare event (OOM, completion,
        failure), so both modes share one set of semantics.
        ``running`` is the device's RUNNING pods in hosting order;
        :meth:`step` passes the lists it grouped, and a direct call
        leaves it ``None`` to have them collected here.  OOM/eviction
        victims are appended to ``victims``.
        """
        pods = self._pods
        if gpu.failed:
            # The device fell off the bus: every hosted pod dies.
            if pods:
                engine = self.engine
                for pod in [p for p in pods.values() if p.gpu_id == gpu.gpu_id]:
                    del pods[pod.uid]
                    self._start_deadline.pop(pod.uid, None)
                    if engine is not None:
                        engine.on_release(pod.uid)
                    self.api.notify_evicted(pod, now)
                    victims.append(pod)
                    if self.obs.enabled:
                        self._m_evicted.inc()
                        self._pod_trace_end(pod, "evicted", now)
            gpu.last_sample = gpu.idle_sample()
            return
        if running is None:
            running = (
                [
                    p
                    for p in pods.values()
                    if p.gpu_id == gpu.gpu_id and p.phase is PodPhase.RUNNING
                ]
                if pods
                else ()
            )
        if san is None and not running and not gpu.containers:
            # Idle device: ``arbitrate({})`` reduces to the idle
            # sample (every sum is empty, the power model sees the
            # same ``asleep`` flag), so write that directly — and
            # only when the memoized sample isn't already in place.
            sample = gpu.idle_sample()
            if gpu.last_sample is not sample:
                gpu.last_sample = sample
            if gpu.containers or gpu.asleep:
                self._idle_since[gpu.gpu_id] = now
            elif now - self._idle_since[gpu.gpu_id] >= self.config.auto_pstate_idle_ms:
                gpu.sleep()
            return
        demands = {p.uid: p.spec.trace.demand_at(p.progress_ms) for p in running}
        shares, _sample, violation = gpu.arbitrate(demands)
        if san is not None:
            san.check_shares(gpu.gpu_id, shares)

        if violation is not None:
            victim = self._pods[violation.victim_uid]
            self._release(victim)
            self.api.notify_oom_killed(victim, now)
            victims.append(victim)
            if self.obs.enabled:
                self._m_oom.inc()
                tracer = self.obs.tracer
                if tracer.enabled:
                    tracer.instant(
                        "oom_kill", cat="pod",
                        args={"pod": victim.uid, "gpu": gpu.gpu_id}, ts=now,
                    )
                self._pod_trace_end(victim, "oom-killed", now)

        for pod in running:
            if pod.uid == (violation.victim_uid if violation else None):
                continue
            pod.progress_ms += dt_ms * shares[pod.uid]
            if pod.progress_ms >= pod.spec.trace.total_ms:
                self._release(pod)
                self.api.notify_succeeded(pod, now)
                if self.obs.enabled:
                    self._m_completed.inc()
                    self._pod_trace_end(pod, "succeeded", now)

        if san is not None:
            san.check_gpu(gpu)
        # Hardware power management: devices idle long enough fall
        # into deep sleep on their own (attach() wakes them).
        if gpu.containers or gpu.asleep:
            self._idle_since[gpu.gpu_id] = now
        elif now - self._idle_since[gpu.gpu_id] >= self.config.auto_pstate_idle_ms:
            gpu.sleep()

    def quiet_horizon(self, now: float, dt_ms: float) -> float:
        """Absolute time before which :meth:`step` is skipped.

        With no hosted pods, a step only (a) re-arbitrates empty devices
        and (b) fires the auto-pstate transition once an awake device
        has idled long enough, so the step is skipped until the earliest
        such transition.  (a) is not always a no-op: a device whose last
        pod finished in the last executed step still holds that step's
        busy ``last_sample`` (SM, memory and power) and keeps it, in the
        telemetry ring and the energy record, until the node steps
        again.  A sanitized run steps every node every tick and records
        the idle sample instead (ROADMAP: "Quiescence skipping holds
        stale busy samples").  Returns ``-inf`` when the node must step every tick, ``+inf``
        when no timed transition is pending (external mutations bump the
        node epoch, which re-arms stepping).

        The transition estimate backs off half a tick (``step`` compares
        ``now - idle_since`` while we compare ``now`` against
        ``idle_since + auto``; the two can disagree by one ulp) and
        always lies at least half a tick ahead, so a conservative
        wake-up re-runs the exact legacy check and still makes progress.
        """
        self._asleep_refresh = [g.gpu_id for g in self.node.gpus if g.resting()]
        if self._pods:
            return float("-inf")
        t_min = float("inf")
        auto_ms = self.config.auto_pstate_idle_ms
        idle_since = self._idle_since
        for gpu in self.node.gpus:
            if gpu.containers:
                return float("-inf")
            if gpu.failed or gpu.asleep:
                continue
            t = idle_since[gpu.gpu_id] + auto_ms
            if t < t_min:
                t_min = t
        if t_min == float("inf"):
            return t_min
        return max(t_min - 0.5 * dt_ms, now + 0.5 * dt_ms)

    def _release(self, pod: Pod) -> None:
        self.plugin.free(pod.gpu_id, pod.uid)
        del self._pods[pod.uid]
        self._start_deadline.pop(pod.uid, None)
        if self.engine is not None:
            self.engine.on_release(pod.uid)

    # -- forced eviction (capacity reclaim, gang co-eviction) ---------------

    def evict_pod(self, uid: str, now: float) -> Pod | None:
        """Evict one hosted pod (freed, reported, requeued).

        Used when a node is reclaimed out from under its pods and when a
        gang member dies elsewhere and its siblings must requeue with
        it.  Returns the evicted pod, or ``None`` if ``uid`` is not
        hosted here (it may have completed in the same tick).
        """
        pod = self._pods.get(uid)
        if pod is None:
            return None
        self._release(pod)
        self.api.notify_evicted(pod, now)
        if self.obs.enabled:
            self._m_evicted.inc()
            self._pod_trace_end(pod, "evicted", now)
        return pod

    def _pod_trace_end(self, pod: Pod, outcome: str, now: float) -> None:
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.async_end(
                f"pod:{pod.spec.image}", pod.uid, cat="pod",
                args={"outcome": outcome}, ts=now,
            )

    # -- introspection used by schedulers/orchestrator ----------------------

    def hosted_pods(self, gpu_id: str | None = None) -> list[Pod]:
        pods = list(self._pods.values())
        if gpu_id is not None:
            pods = [p for p in pods if p.gpu_id == gpu_id]
        return pods

    def num_hosted(self) -> int:
        return len(self._pods)

    def hosted_map(self) -> dict[str, Pod]:
        """Live uid -> pod mapping (the pass assembler's read-only view;
        cheaper than the :meth:`hosted_pods` list copy on wide clusters)."""
        return self._pods

    def has_image(self, image: str) -> bool:
        return image in self._image_cache

    def prewarm(self, images: set[str] | list[str]) -> None:
        """Pre-populate the image cache (steady-state experiments).

        The paper's evaluation excludes the one-time docker-pull cost:
        "the subsequent queries using the same image do not incur this
        cold-start latency" (Sec. V-B) — prewarming models a cluster
        that has been serving these images for a while.
        """
        self._image_cache.update(images)
