"""Runtime simulation sanitizer — ASan for the Kube-Knots simulators.

The lint pass (:mod:`repro.analysis.lint`) proves what it can from the
AST; everything else — conservation of per-GPU memory, sane SM shares,
a monotone event clock, fresh telemetry — is checked *while the
simulation runs* by this module.  The checks are the invariants the
paper's results silently rely on:

``memory_conservation``
    After every admit/resize/release: per-device
    Σ allocations <= capacity, free memory >= 0, no negative
    reservation.
``sm_shares``
    Every share granted by ``GPU.arbitrate`` lies in [0, 1].
``schedule_in_past``
    No event is scheduled at ``t < now`` (the engine's own guard,
    routed through the sanitizer so the violation is audited).
``time_monotonicity``
    The event loop never fires an event behind its clock, and the
    DL simulator's advance-and-recompute step never moves backwards.
``heap_consistency``
    The event loop's O(1) live-event counter agrees with the heap.
``telemetry_staleness``
    A scheduler never acts on a telemetry window whose newest sample
    is older than one heartbeat (plus slack) — the Fig. 5 data path
    must be live, not a stale cache.
``pool_accounting``
    The DL pool's per-device training/inference counters never go
    negative.
``fast_forward_quiescence``
    In a sanitized run the cluster simulator only fast-forwards its
    tick chains when the cluster is provably quiescent (no pod bound,
    every device asleep or failed, any pending pods held) and only to a
    strictly later time.  (Dark and observed runs also skip spans with
    a device awake; see ``KubeKnots.idle_until``.)
``capacity_conservation``
    After a capacity transition (cordon/reclaim/restore): no failed
    device still holds allocations, per-node Σ allocations fits the
    node's *live* (post-reclaim) capacity, and every accepted,
    unfinished pod is still accounted for — pending or hosted, never
    silently dropped.
``idle_pass_noop``
    A scheduling pass the orchestrator skips as a repeat of the last
    no-op pass (no input that pass read moved: node epochs, the pending
    queue, the profiles and, where it read them, the sample columns)
    really is one: the policy, asked anyway, returns no actions.
``mirror_consistency``
    Every device view of Algorithm 1's sorted list, built from the
    ``ClusterState`` columns, equals what its GPU object reports: free
    memory, the latest sample's used memory and SM utilization, the
    container count, and the asleep, failed and cordoned flags.

A :class:`Sanitizer` rides on the :class:`repro.obs.Observability`
bundle (``Observability(sanitize=True)``); every instrumented call site
costs one ``is None`` check when sanitizing is off.  Violations are
recorded into the decision audit log (kind ``"violation"``) and then
raised as :class:`SanitizerError` (set ``halt=False`` to collect
instead of raising).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.cluster.gpu import GPU
    from repro.obs.audit import DecisionAuditLog
    from repro.telemetry.tsdb import SeriesWindow

__all__ = ["INVARIANTS", "Violation", "SanitizerError", "Sanitizer"]

#: The sanitizer's invariant vocabulary.
INVARIANTS = (
    "memory_conservation",
    "sm_shares",
    "schedule_in_past",
    "time_monotonicity",
    "heap_consistency",
    "telemetry_staleness",
    "pool_accounting",
    "fast_forward_quiescence",
    "capacity_conservation",
    "idle_pass_noop",
    "mirror_consistency",
)

_EPS = 1e-6


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with the evidence at the point of failure."""

    invariant: str
    ts: float
    message: str
    details: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        extras = ", ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        return f"[{self.invariant}] t={self.ts:g}: {self.message}" + (
            f" ({extras})" if extras else ""
        )


class SanitizerError(RuntimeError):
    """Raised at the first invariant breach (when ``halt`` is set)."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(violation.render())
        self.violation = violation

    def __reduce__(self):
        # Default exception pickling would replay __init__ with the
        # *rendered message* instead of the Violation, so a breach
        # raised inside a sweep worker would cross the process-pool
        # boundary as a TypeError.  Rebuild from the Violation itself.
        return (SanitizerError, (self.violation,))


class Sanitizer:
    """Invariant checker threaded through the simulators via ``obs``.

    Parameters
    ----------
    audit:
        Decision audit log to record violations into (kind
        ``"violation"``); optional.
    clock:
        Shared sim clock violations are stamped from; optional.
    halt:
        Raise :class:`SanitizerError` at the first breach (default).
        With ``halt=False`` violations accumulate in ``self.violations``
        — the collection mode the fault-injection tests use.
    staleness_slack:
        Telemetry windows may lag by ``slack * heartbeat`` before the
        staleness invariant trips (heartbeat and scheduling passes are
        not phase-locked).
    """

    def __init__(
        self,
        audit: "DecisionAuditLog | None" = None,
        clock=None,
        halt: bool = True,
        staleness_slack: float = 2.0,
    ) -> None:
        self.audit = audit
        self.clock = clock
        self.halt = halt
        self.staleness_slack = float(staleness_slack)
        self.violations: list[Violation] = []
        self.checks = 0
        #: Engine heap audits are O(pending); run one every this many steps.
        self.heap_audit_interval = 64

    # -- reporting ----------------------------------------------------------

    @property
    def now(self) -> float:
        return float(self.clock.now) if self.clock is not None else 0.0

    def violation(self, invariant: str, message: str, **details: Any) -> None:
        """Record one breach; raise when halting."""
        if invariant not in INVARIANTS:
            raise ValueError(f"unknown invariant {invariant!r}; known: {INVARIANTS}")
        v = Violation(invariant=invariant, ts=self.now, message=message, details=details)
        self.violations.append(v)
        if self.audit is not None:
            self.audit.record(
                "violation",
                evidence={"invariant": invariant, "message": message, **details},
            )
        if self.halt:
            raise SanitizerError(v)

    def summary(self) -> dict[str, int]:
        """``{invariant: count}`` over recorded violations, plus totals."""
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.invariant] = out.get(v.invariant, 0) + 1
        return out

    # -- GPU / node accounting ----------------------------------------------

    def check_gpu(self, gpu: "GPU") -> None:
        """Memory conservation on one device (after admit/resize/release)."""
        self.checks += 1
        allocated = 0.0
        for alloc in gpu.containers.values():
            if alloc.alloc_mb < -_EPS:
                self.violation(
                    "memory_conservation",
                    f"negative reservation on {gpu.gpu_id}",
                    gpu=gpu.gpu_id, pod=alloc.pod_uid, alloc_mb=alloc.alloc_mb,
                )
            allocated += alloc.alloc_mb
        if allocated > gpu.mem_capacity_mb + _EPS:
            self.violation(
                "memory_conservation",
                f"allocations exceed capacity on {gpu.gpu_id}",
                gpu=gpu.gpu_id,
                allocated_mb=allocated,
                capacity_mb=gpu.mem_capacity_mb,
            )
        if gpu.free_mem_mb < -_EPS:
            self.violation(
                "memory_conservation",
                f"negative free memory on {gpu.gpu_id}",
                gpu=gpu.gpu_id, free_mb=gpu.free_mem_mb,
            )

    def check_node(self, node) -> None:
        for gpu in node.gpus:
            self.check_gpu(gpu)

    def check_view(self, view) -> None:
        """Device-view consistency: the head-node's view of a device
        must itself conserve memory (Fig. 5's data path can only
        corrupt a scheduler if the *view* is wrong)."""
        self.checks += 1
        if view.free_alloc_mb < -_EPS:
            self.violation(
                "memory_conservation",
                f"aggregator view reports negative free memory for {view.gpu_id}",
                gpu=view.gpu_id, free_alloc_mb=view.free_alloc_mb,
            )
        if view.mem_used_mb > view.mem_capacity_mb + _EPS:
            self.violation(
                "memory_conservation",
                f"aggregator view reports usage above capacity for {view.gpu_id}",
                gpu=view.gpu_id,
                mem_used_mb=view.mem_used_mb,
                capacity_mb=view.mem_capacity_mb,
            )

    def check_mirror(self, view, gpu: "GPU") -> None:
        """A device view built from the ``ClusterState`` mirror equals
        what its GPU object reports, exactly (code that writes a
        reservation behind the device's back leaves the mirror stale)."""
        self.checks += 1
        sample = gpu.last_sample
        device = (
            ("free_alloc_mb", gpu.free_mem_mb),
            ("mem_used_mb", sample.mem_used_mb),
            ("sm_util", sample.sm_util),
            ("num_containers", len(gpu.containers)),
            ("asleep", gpu.asleep),
            ("failed", gpu.failed),
            ("cordoned", gpu.cordoned),
        )
        for name, expected in device:
            mirrored = getattr(view, name)
            if mirrored != expected:
                self.violation(
                    "mirror_consistency",
                    f"ClusterState mirror disagrees with {view.gpu_id} on {name}",
                    gpu=view.gpu_id, field=name, mirror=mirrored, device=expected,
                )

    def check_shares(self, gpu_id: str, shares: Mapping[str, float]) -> None:
        """Every granted SM share lies in [0, 1]."""
        self.checks += 1
        for uid, share in shares.items():
            if share < -_EPS or share > 1.0 + _EPS:
                self.violation(
                    "sm_shares",
                    f"share outside [0, 1] on {gpu_id}",
                    gpu=gpu_id, pod=uid, share=share,
                )

    # -- capacity transitions -------------------------------------------------

    def check_node_capacity(self, node) -> None:
        """Capacity conservation after a cordon/reclaim/restore: a failed
        (reclaimed) device holds no allocations and the node's total
        allocation fits its *live* capacity."""
        self.checks += 1
        live_capacity = 0.0
        allocated = 0.0
        for gpu in node.gpus:
            dev_alloc = sum(a.alloc_mb for a in gpu.containers.values())
            if gpu.failed:
                if dev_alloc > _EPS:
                    self.violation(
                        "capacity_conservation",
                        f"reclaimed device {gpu.gpu_id} still holds allocations",
                        gpu=gpu.gpu_id, allocated_mb=dev_alloc,
                    )
            else:
                live_capacity += gpu.mem_capacity_mb
            allocated += dev_alloc
        if allocated > live_capacity + _EPS:
            self.violation(
                "capacity_conservation",
                f"allocations exceed live capacity on {node.node_id}",
                node=node.node_id,
                allocated_mb=allocated,
                live_capacity_mb=live_capacity,
            )

    def check_pod_tracking(
        self, unfinished: set, pending: set, hosted: set
    ) -> None:
        """No accepted pod is silently dropped across a capacity
        transition: every unfinished pod is pending or hosted."""
        self.checks += 1
        lost = unfinished - pending - hosted
        if lost:
            self.violation(
                "capacity_conservation",
                "unfinished pods neither pending nor hosted after a capacity transition",
                lost=sorted(lost)[:8], count=len(lost),
            )

    # -- event-loop invariants ----------------------------------------------

    def check_schedule(self, now: float, when: float) -> None:
        """No event may target a time before the loop's clock."""
        self.checks += 1
        if when < now - _EPS:
            self.violation(
                "schedule_in_past",
                "event scheduled before current time",
                now=now, when=when,
            )

    def check_event_time(self, now: float, event_time: float) -> None:
        """The loop's clock never moves backwards across fired events."""
        self.checks += 1
        if event_time < now - _EPS:
            self.violation(
                "time_monotonicity",
                "event fires behind the loop clock",
                now=now, event_time=event_time,
            )

    def check_heap(self, pending_counter: int, live_in_heap: int) -> None:
        """O(1) live counter vs an actual heap census."""
        self.checks += 1
        if pending_counter != live_in_heap:
            self.violation(
                "heap_consistency",
                "live-event counter disagrees with heap census",
                counter=pending_counter, heap=live_in_heap,
            )

    # -- telemetry freshness -------------------------------------------------

    def check_window_fresh(
        self, gpu_id: str, metric: str, window: "SeriesWindow", now: float, heartbeat: float
    ) -> None:
        """The newest sample must be at most ``slack`` heartbeats old.

        Empty windows are exempt: a fresh node legitimately looks empty
        to Knots before its first heartbeat, and schedulers
        handle that case explicitly.
        """
        self.checks += 1
        if len(window) == 0:
            return
        age = now - float(window.times[-1])
        if age > self.staleness_slack * heartbeat + _EPS:
            self.violation(
                "telemetry_staleness",
                f"scheduler read a stale {metric} window for {gpu_id}",
                gpu=gpu_id, metric=metric, age=age, heartbeat=heartbeat,
            )

    # -- DL pool accounting --------------------------------------------------

    def check_dl_pool(self, load: Iterable[int], dli: Iterable[int]) -> None:
        """Per-device job counters never go negative."""
        self.checks += 1
        for g, n in enumerate(load):
            if n < 0:
                self.violation(
                    "pool_accounting", "negative training load", gpu=g, load=int(n)
                )
        for g, n in enumerate(dli):
            if n < 0:
                self.violation(
                    "pool_accounting", "negative inference count", gpu=g, dli=int(n)
                )

    def check_dl_time(self, now: float, t_next: float) -> None:
        """The DL simulator's advance step never moves backwards."""
        self.checks += 1
        if t_next < now - _EPS:
            self.violation(
                "time_monotonicity",
                "DL simulator stepping backwards",
                now=now, t_next=t_next,
            )

    # -- idle fast-forward and skipped passes ---------------------------------

    def check_fast_forward(
        self, now: float, target: float, no_pod_bound: bool, devices_parked: bool,
        queue_held: bool,
    ) -> None:
        """A fast-forward must jump strictly forward and only from a
        quiescent cluster (no pod bound, all devices asleep or failed,
        and any pending pods held: no pass could place one before an
        input changes) — otherwise skipped ticks would not have been
        no-ops."""
        self.checks += 1
        if target <= now + _EPS:
            self.violation(
                "fast_forward_quiescence",
                "fast-forward target not ahead of current time",
                now=now, target=target,
            )
        if not (no_pod_bound and devices_parked and queue_held):
            self.violation(
                "fast_forward_quiescence",
                "fast-forward attempted on a non-quiescent cluster",
                no_pod_bound=no_pod_bound, devices_parked=devices_parked,
                queue_held=queue_held,
            )

    def check_idle_pass(self, actions: Sequence[Any]) -> None:
        """A skipped scheduling pass must be a no-op: the policy, asked
        what it would have done, returns no actions (the orchestrator
        drops whatever it returns)."""
        self.checks += 1
        if actions:
            self.violation(
                "idle_pass_noop",
                "policy acted on a pass skipped as a repeat no-op",
                actions=len(actions), first=repr(actions[0]),
            )
