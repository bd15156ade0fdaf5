"""Scheduler interface and the action vocabulary.

Schedulers are pure policies: they receive a :class:`SchedulingContext`
(pending pods + the Knots view of the cluster) and return a list of
:class:`Action` values — bind, resize, sleep, wake — which the
orchestrator then applies through the Kubernetes substrate.  Keeping
policies side-effect-free makes every scheduling decision unit-testable
against a hand-built context.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence, Union

from repro.core.knots import Knots
from repro.kube.pod import Pod
from repro.obs.context import NOOP, Observability
from repro.workloads.base import QoSClass

__all__ = [
    "Bind",
    "Resize",
    "Sleep",
    "Wake",
    "Action",
    "ResidentPod",
    "SchedulingContext",
    "Scheduler",
    "resident_pressure",
]


@dataclass(frozen=True)
class Bind:
    """Place a pending pod on a device with a memory reservation."""

    pod_uid: str
    gpu_id: str
    alloc_mb: float


@dataclass(frozen=True)
class Resize:
    """Dynamically resize a resident container's reservation (harvest)."""

    pod_uid: str
    gpu_id: str
    new_alloc_mb: float


@dataclass(frozen=True)
class Sleep:
    """Put a drained device into deep sleep (p_state 12)."""

    gpu_id: str


@dataclass(frozen=True)
class Wake:
    """Wake a sleeping device for incoming load."""

    gpu_id: str


Action = Union[Bind, Resize, Sleep, Wake]


@dataclass(frozen=True)
class ResidentPod:
    """What a scheduler may know about a pod already on a device."""

    uid: str
    image: str
    alloc_mb: float
    qos_class: QoSClass


@dataclass
class SchedulingContext:
    """Inputs to one scheduling pass."""

    now: float
    pending: list[Pod]
    knots: Knots
    residents: dict[str, list[ResidentPod]]   # gpu_id -> resident pods

    def residents_on(self, gpu_id: str) -> list[ResidentPod]:
        return self.residents.get(gpu_id, [])


def resident_pressure(profiles, residents) -> tuple[float, float, list[float], int]:
    """Profile-based load of one device's residents.

    Returns ``(expected SM, peak SM, peak-memory overshoots, latency-
    critical count)``.  nvidia-smi style utilization saturates at 100 %
    no matter how oversubscribed a device is; for placement the
    scheduler needs the *demand* behind it, which Knots reconstructs
    from the residents' image profiles.  Each overshoot is how far a
    resident's peak memory exceeds its reservation (the two-peak
    capacity guard's input).
    """
    pressure = 0.0
    peak_pressure = 0.0
    overshoots: list[float] = []
    lc = 0
    for res in residents:
        if res.qos_class is QoSClass.LATENCY_CRITICAL:
            lc += 1
        profile = profiles.get(res.image)
        if profile is not None and profile.observations:
            sm_p75, sm_peak, peak_mem_mb = profile.pressure_stats()
            pressure += sm_p75
            peak_pressure += sm_peak
            overshoots.append(max(peak_mem_mb - res.alloc_mb, 0.0))
        else:
            pressure += 0.3   # unknown image: assume moderate load
            peak_pressure += 0.5
            overshoots.append(0.0)   # reservation is its own request
    return pressure, peak_pressure, overshoots, lc


class Scheduler(ABC):
    """Base class for all placement policies.

    **Device-state contract.**  A policy reads device state through
    ``ctx.knots``: the :class:`~repro.cluster.state.ClusterState`
    columns (``knots.state``, ``knots.all_gpus_by_free_memory()``) and
    the telemetry ring (``knots.query``, ``knots.memory_window``) —
    never through the GPU objects.  The vectorized execution quantum
    (:mod:`repro.cluster.quantum`) keeps those exact but lets
    ``gpu.last_sample`` go stale between rare events, and it engages in
    every dark, unsanitized run whatever the policy.
    """

    #: Human-readable name used in reports and experiment tables.
    name: str = "scheduler"

    #: Whether the policy needs the shared-GPU device plugin.  The
    #: orchestrator configures every node's plugin from this flag.
    requires_sharing: bool = True

    #: Observability bundle (tracer/metrics/decision audit).  Defaults
    #: to the shared no-op bundle; the orchestrator rebinds it via
    #: :meth:`bind_observability` so policies stay constructible bare.
    obs: Observability = NOOP

    @abstractmethod
    def schedule(self, ctx: SchedulingContext) -> list[Action]:
        """Produce placement/resize/power actions for this pass.

        **Idle-pass contract.**  With nothing pending, the returned
        actions may depend only on cluster state that bumps a
        ``ClusterState.node_epoch`` entry when it changes: reservations,
        the resident pods, and the asleep, failed and cordoned flags —
        not on ``ctx.now``, telemetry or policy-internal counters.  The
        orchestrator relies on it to skip a pass when nothing is
        pending, no node epoch moved since the last executed pass, and
        that pass also had nothing pending and returned no actions; the
        sanitizer's ``idle_pass_noop`` invariant checks every such skip.
        Every shipped policy keeps it: CBP, Res-Ag, Uniform and the gang
        wrapper return nothing when nothing is pending, and PP's
        consolidation sleeps drained devices by resident count and the
        three flags alone.
        """

    # -- observability hook --------------------------------------------------

    def bind_observability(self, obs: Observability) -> None:
        """Attach an observability bundle to this policy instance.

        Policies record one audit record per placement/rejection/resize
        through ``self.obs.audit``; subclasses needing pre-created
        instruments override :meth:`_setup_observability`.
        """
        self.obs = obs
        self._setup_observability(obs)

    def _setup_observability(self, obs: Observability) -> None:
        """Subclass hook: create counters/histograms once at bind time."""

    def _audit_bind(self, pod: Pod, gpu_id: str, alloc_mb: float,
                    queue_depth: int, evidence: dict | None = None) -> None:
        self.obs.audit.record(
            "bind",
            pod_uid=pod.uid,
            image=pod.spec.image,
            qos=pod.spec.qos_class.value,
            gpu_id=gpu_id,
            alloc_mb=alloc_mb,
            queue_depth=queue_depth,
            evidence=evidence,
        )

    def _audit_reject(self, pod: Pod, queue_depth: int,
                      evidence: dict | None = None) -> None:
        self.obs.audit.record(
            "reject",
            pod_uid=pod.uid,
            image=pod.spec.image,
            qos=pod.spec.qos_class.value,
            queue_depth=queue_depth,
            evidence=evidence,
        )

    # -- shared helpers -----------------------------------------------------

    @staticmethod
    def split_by_qos(pending: Sequence[Pod]) -> tuple[list[Pod], list[Pod]]:
        """(latency-critical, batch), each preserving queue order."""
        lc = [p for p in pending if p.spec.qos_class is QoSClass.LATENCY_CRITICAL]
        batch = [p for p in pending if p.spec.qos_class is QoSClass.BATCH]
        return lc, batch

    @staticmethod
    def ffd_order(pods: Sequence[Pod]) -> list[Pod]:
        """First-fit-decreasing order by requested memory (Sec. IV-B).

        Ties break on uid for determinism.
        """
        return sorted(pods, key=lambda p: (-p.spec.requested_mem_mb, p.uid))
