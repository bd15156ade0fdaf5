"""API server: pod store, pending queue, binding, event log.

A deliberately small slice of the Kubernetes control plane — exactly
the surface Kube-Knots touches: submit pods, list pending pods, bind a
pod to a node ("ship the container via the python client API call" in
Algorithm 1), observe lifecycle events.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from repro.kube.pod import Pod, PodPhase, PodSpec

__all__ = ["EventType", "PodEvent", "APIServer"]


class EventType(Enum):
    SUBMITTED = "submitted"
    BOUND = "bound"
    STARTED = "started"
    SUCCEEDED = "succeeded"
    OOM_KILLED = "oom-killed"
    EVICTED = "evicted"
    REQUEUED = "requeued"
    RESIZED = "resized"


@dataclass(frozen=True)
class PodEvent:
    time: float
    type: EventType
    pod_uid: str
    detail: str = ""


class APIServer:
    """Cluster-wide pod bookkeeping."""

    def __init__(self) -> None:
        self._pods: dict[str, Pod] = {}
        self._pending: deque[str] = deque()
        self.events: list[PodEvent] = []
        # Pods not yet SUCCEEDED, maintained on submit/succeed so the
        # per-tick ``all_done`` termination check is O(1) instead of a
        # scan over every pod ever submitted.
        self._n_unfinished = 0
        # Completions since the last ``drain_succeeded`` call, plus each
        # pod's submission rank — the orchestrator's per-tick profile
        # recording used to diff two full scans of every pod ever
        # submitted, which dominates dense ticks at cluster scale.
        self._succ_fresh: list[Pod] = []
        self._order: dict[str, int] = {}
        # Gang membership: gang_id -> member uids, in submission order.
        self._gangs: dict[str, list[str]] = {}
        #: Moves whenever the pending queue does: every ``submit``,
        #: ``requeue`` and ``bind``.  Equal across two reads only when
        #: no pod entered or left the queue in between.
        self.pending_gen = 0

    # -- submission ---------------------------------------------------------

    def submit(self, spec: PodSpec, now: float) -> Pod:
        """Create a pod from a spec and enqueue it."""
        pod = Pod(spec=spec)
        pod.mark_submitted(now)
        self._pods[pod.uid] = pod
        self._order[pod.uid] = len(self._order)
        self._n_unfinished += 1
        if spec.gang is not None:
            self._gangs.setdefault(spec.gang.gang_id, []).append(pod.uid)
        self._pending.append(pod.uid)
        self.pending_gen += 1
        self._log(now, EventType.SUBMITTED, pod.uid)
        return pod

    def requeue(self, pod: Pod, now: float) -> None:
        """Put an OOM-killed pod at the back of the pending queue."""
        if pod.uid not in self._pods:
            raise KeyError(f"unknown pod {pod.uid}")
        pod.phase = PodPhase.PENDING
        self._pending.append(pod.uid)
        self.pending_gen += 1
        self._log(now, EventType.REQUEUED, pod.uid, f"restart #{pod.restart_count}")

    # -- queries --------------------------------------------------------------

    def pod(self, uid: str) -> Pod:
        return self._pods[uid]

    def pods(self) -> list[Pod]:
        return list(self._pods.values())

    def pending_pods(self) -> list[Pod]:
        """Pods awaiting placement, in FIFO (submission/requeue) order."""
        return [self._pods[uid] for uid in self._pending]

    def num_pending(self) -> int:
        return len(self._pending)

    def num_bound(self) -> int:
        """Pods bound to a device and not finished: every unfinished pod
        not in the pending queue (an OOM-killed or evicted pod is
        requeued at once)."""
        return self._n_unfinished - len(self._pending)

    def unfinished(self) -> list[Pod]:
        return [p for p in self._pods.values() if p.phase is not PodPhase.SUCCEEDED]

    def gang_members(self, gang_id: str) -> list[Pod]:
        """All submitted members of a gang, in submission order."""
        return [self._pods[uid] for uid in self._gangs.get(gang_id, [])]

    def all_done(self) -> bool:
        return self._n_unfinished == 0

    def drain_succeeded(self) -> list[Pod]:
        """Pods that reached SUCCEEDED since the last drain.

        Returned in submission order — the same order a scan over
        :meth:`pods` would visit them — so order-sensitive consumers
        (the profile store's running means) see identical sequences.
        """
        fresh = self._succ_fresh
        if not fresh:
            return fresh
        self._succ_fresh = []
        order = self._order
        fresh.sort(key=lambda p: order[p.uid])
        return fresh

    # -- binding (scheduler -> node) -----------------------------------------

    def bind(self, pod: Pod, node_id: str, gpu_id: str, alloc_mb: float, now: float) -> None:
        """Bind a pending pod to a device with a memory reservation."""
        if pod.phase is not PodPhase.PENDING:
            raise ValueError(f"cannot bind {pod.uid} in phase {pod.phase}")
        try:
            self._pending.remove(pod.uid)
        except ValueError:
            raise ValueError(f"{pod.uid} not in pending queue") from None
        self.pending_gen += 1
        pod.mark_scheduled(now, node_id, gpu_id, alloc_mb)
        self._log(now, EventType.BOUND, pod.uid, f"{gpu_id} alloc={alloc_mb:.0f}MB")

    # -- status updates (kubelet -> API) ---------------------------------------

    def notify_started(self, pod: Pod, now: float) -> None:
        pod.mark_running(now)
        self._log(now, EventType.STARTED, pod.uid)

    def notify_succeeded(self, pod: Pod, now: float) -> None:
        if pod.phase is not PodPhase.SUCCEEDED:
            self._n_unfinished -= 1
            self._succ_fresh.append(pod)
        pod.mark_succeeded(now)
        self._log(now, EventType.SUCCEEDED, pod.uid)

    def notify_oom_killed(self, pod: Pod, now: float) -> None:
        pod.mark_oom_killed()
        self._log(now, EventType.OOM_KILLED, pod.uid)
        self.requeue(pod, now)

    def notify_evicted(self, pod: Pod, now: float) -> None:
        """Device-failure eviction: back of the queue, like an OOM kill."""
        pod.mark_evicted()
        self._log(now, EventType.EVICTED, pod.uid)
        self.requeue(pod, now)

    def notify_resized(self, pod: Pod, new_alloc_mb: float, now: float) -> None:
        old = pod.alloc_mb
        pod.alloc_mb = new_alloc_mb
        self._log(now, EventType.RESIZED, pod.uid, f"{old:.0f} -> {new_alloc_mb:.0f} MB")

    def _log(self, time: float, type_: EventType, uid: str, detail: str = "") -> None:
        self.events.append(PodEvent(time, type_, uid, detail))

    def events_of(self, type_: EventType) -> list[PodEvent]:
        return [e for e in self.events if e.type is type_]
