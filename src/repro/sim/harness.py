"""Shared event-loop harness for the simulators.

Both simulators run on :class:`repro.sim.engine.EventLoop`; this module
holds the scaffolding they share:

* **phase priorities** — events landing on the same simulated instant
  fire in the fixed phase order of the original tick loop
  (faults → repairs → submissions → execution quantum → heartbeat →
  telemetry record → scheduling pass → end-of-tick bookkeeping).
* :class:`TickHarness` — owns the per-tick chains of a fixed-quantum
  simulator and the grid bookkeeping (``last_tick`` / ``next_tick``)
  that quantizes raw-time events onto the tick grid.
* :class:`PhaseGate` — the cadence of a recurring phase with its own
  interval (heartbeats, scheduling passes) run inside the tick
  callback: it executes at the first tick at or after each due time,
  exactly like the old loop's ``if t >= next_due: ...;
  next_due = t + interval`` bookkeeping.
* :class:`GridOneShot` — a single raw-time event (a device fault, a
  repair) deferred onto the tick grid the same way.
* :class:`FaultPlan` — schedules a failure-injection plan as
  first-class events; each applied fault schedules a **cancellable**
  repair event, replacing the old per-tick list-scan-and-``remove``
  repair bookkeeping.
* :class:`CapacityPlan` — the fault plan generalized to node-granular
  capacity transitions (drain/reclaim/restore) driven by a scenario's
  pre-computed event schedule.
* :func:`run_until_idle` — drive a loop until it drains or a handler
  calls :meth:`~repro.sim.engine.EventLoop.stop`.

Quantization contract: an event scheduled at raw time ``r`` that fires
between tick ``t`` and tick ``t + tick_ms`` re-schedules itself for the
pending tick (``TickHarness.next_tick``), so its *effect* lands at the
first tick ``>= r`` — the same instant the old per-tick polling loop
would have acted on it.  Same-seed runs therefore stay bit-identical to
the reference loops in :mod:`repro.sim.reference`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol

from repro.sim.engine import EventHandle, EventLoop, RepeatingEvent, SimulationError

__all__ = [
    "PHASE_FAULT",
    "PHASE_REPAIR",
    "PHASE_SUBMIT",
    "PHASE_QUANTUM",
    "PHASE_HEARTBEAT",
    "PHASE_RECORD",
    "PHASE_SCHEDULE",
    "PHASE_TICK_END",
    "TickHarness",
    "PhaseGate",
    "GridOneShot",
    "FaultPlan",
    "CapacityPlan",
    "run_until_idle",
]

# Phase order of the original tick loop, as same-instant priorities.
PHASE_FAULT = 0
PHASE_REPAIR = 1
PHASE_SUBMIT = 2
PHASE_QUANTUM = 3
PHASE_HEARTBEAT = 4
PHASE_RECORD = 5
PHASE_SCHEDULE = 6
PHASE_TICK_END = 7


class _FaultLike(Protocol):
    at_ms: float
    gpu_id: str
    duration_ms: float


class _CapacityEventLike(Protocol):
    at_ms: float
    node_id: str
    kind: str  # "drain" | "reclaim" | "restore"


class TickHarness:
    """Tick-grid scaffolding on a shared :class:`EventLoop`.

    Owns the execution-quantum chain plus any extra per-tick chains
    (:meth:`every_tick`) and grid-quantized one-shots (:meth:`at`).
    :meth:`skip_to` moves every per-tick chain at once — the idle
    fast-forward hook.
    """

    __slots__ = ("loop", "tick_ms", "last_tick", "_user_quantum", "_quantum", "_chains")

    def __init__(
        self,
        loop: EventLoop,
        tick_ms: float,
        quantum: Callable[[float], None],
        priority: int = PHASE_QUANTUM,
    ) -> None:
        self.loop = loop
        self.tick_ms = float(tick_ms)
        #: The most recent tick whose quantum has executed.
        self.last_tick: float | None = None
        self._user_quantum = quantum
        self._quantum = loop.every(
            self.tick_ms, self._on_quantum, start_at=loop.now, priority=priority
        )
        self._chains: list[RepeatingEvent] = [self._quantum]

    def _on_quantum(self, now: float) -> None:
        self.last_tick = now
        self._user_quantum(now)

    @property
    def next_tick(self) -> float:
        """The pending quantum's time: the first grid tick >= now."""
        return self._quantum.next_time

    def on_grid(self, now: float) -> bool:
        """True when ``now`` is a tick instant (whether or not this
        tick's quantum has fired yet)."""
        return now == self.last_tick or now == self._quantum.next_time

    def every_tick(self, callback: Callable[[float], None], priority: int) -> RepeatingEvent:
        """Register another per-tick chain (kept in lockstep by
        :meth:`skip_to`)."""
        chain = self.loop.every(
            self.tick_ms, callback, start_at=self.loop.now, priority=priority
        )
        self._chains.append(chain)
        return chain

    def at(
        self, when: float, callback: Callable[..., None], *args, priority: int
    ) -> "GridOneShot":
        return GridOneShot(self, when, callback, args, priority)

    def skip_to(self, when: float) -> None:
        """Jump every per-tick chain to ``when`` (a future grid tick)."""
        for chain in self._chains:
            chain.skip_to(when)


class PhaseGate:
    """Cadence bookkeeping for a periodic phase *fused into* a tick
    callback, instead of carrying its own event chain.

    When every same-instant event outside the tick callback uses a
    phase priority below the callback's (as the cluster simulator
    guarantees: faults/repairs/submissions are phases 0–2, the fused
    quantum..tick-end run is phases 3–7), the phases inside the tick
    are contiguous — no event can interleave between them — so a
    periodic phase reduces to the reference loop's plain
    ``if t >= next_due: ...; next_due = t + interval`` check.  This
    class is that check; the fast-forward path re-aims it with
    :meth:`resync`.  The simulator and the serve loop pace their
    heartbeats and scheduling passes with it.
    """

    __slots__ = ("interval", "next_due")

    def __init__(self, interval: float, start_due: float) -> None:
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        self.interval = float(interval)
        self.next_due = float(start_due)

    def due(self, now: float) -> bool:
        """True (advancing the cadence) when the phase runs this tick."""
        if now >= self.next_due:
            self.next_due = now + self.interval
            return True
        return False

    def resync(self, next_due: float) -> None:
        """Re-aim the cadence after a fast-forward advanced its due
        bookkeeping past the skipped span."""
        self.next_due = float(next_due)


class GridOneShot:
    """A single raw-time event deferred onto the tick grid.

    Cancellable until it executes — the repair half of a
    :class:`FaultPlan` entry is exactly this.
    """

    __slots__ = ("harness", "callback", "args", "priority", "_handle", "_done", "_cancelled")

    def __init__(
        self,
        harness: TickHarness,
        when: float,
        callback: Callable[..., None],
        args: tuple,
        priority: int,
    ) -> None:
        self.harness = harness
        self.callback = callback
        self.args = args
        self.priority = priority
        self._done = False
        self._cancelled = False
        self._handle: EventHandle = harness.loop.schedule_at(
            when, self._fire, priority=priority
        )

    @property
    def time(self) -> float:
        """Currently scheduled firing time (moves when deferred)."""
        return self._handle.time

    @property
    def pending(self) -> bool:
        return not self._done and not self._cancelled

    def _fire(self) -> None:
        harness = self.harness
        loop = harness.loop
        now = loop.now
        if not harness.on_grid(now):
            self._handle = loop.schedule_at(harness.next_tick, self._fire, priority=self.priority)
            return
        self._done = True
        self.callback(*self.args)

    def cancel(self) -> None:
        """Prevent execution.  Idempotent; no-op once executed."""
        if not self._done:
            self._cancelled = True
            self._handle.cancel()


class FaultPlan:
    """Failure-injection plan as first-class scheduled events.

    Each :class:`~repro.sim.simulator.DeviceFault` becomes a
    :class:`GridOneShot` at its (grid-quantized) injection time; when a
    fault actually fails a device (``fail_fn`` returned True), the
    matching repair is scheduled as a **cancellable** event
    ``duration_ms`` after the raw fault time.  This replaces the old
    per-tick ``for when, gpu_id in list(repairs): ... repairs.remove``
    scan, which was O(outstanding repairs) *every tick* and O(n²)
    across a fault storm.
    """

    __slots__ = ("harness", "_fail_fn", "_repair_fn", "_events", "_repairs")

    def __init__(
        self,
        harness: TickHarness,
        faults: Iterable[_FaultLike],
        fail_fn: Callable[[str], bool],
        repair_fn: Callable[[str], None],
    ) -> None:
        self.harness = harness
        self._fail_fn = fail_fn
        self._repair_fn = repair_fn
        self._events: list[GridOneShot] = []
        #: gpu_id -> pending repair event (a failed device has at most
        #: one outstanding repair: later faults on it are swallowed).
        self._repairs: dict[str, GridOneShot] = {}
        for fault in sorted(faults, key=lambda f: f.at_ms):
            self._events.append(
                harness.at(
                    max(fault.at_ms, 0.0), self._on_fault, fault, priority=PHASE_FAULT
                )
            )

    def _on_fault(self, fault: _FaultLike) -> None:
        if not self._fail_fn(fault.gpu_id):
            return  # already failed: the plan entry is swallowed
        when = max(fault.at_ms + fault.duration_ms, self.harness.loop.now)
        repair = self.harness.at(when, self._on_repair, fault.gpu_id, priority=PHASE_REPAIR)
        self._repairs[fault.gpu_id] = repair
        self._events.append(repair)

    def _on_repair(self, gpu_id: str) -> None:
        self._repairs.pop(gpu_id, None)
        self._repair_fn(gpu_id)

    def cancel_repair(self, gpu_id: str) -> bool:
        """Cancel the outstanding repair for ``gpu_id`` (the device
        then stays failed).  Returns True if one was cancelled."""
        repair = self._repairs.pop(gpu_id, None)
        if repair is None or not repair.pending:
            return False
        repair.cancel()
        return True

    @property
    def pending(self) -> int:
        """Fault/repair events still scheduled to fire."""
        return sum(1 for event in self._events if event.pending)

    def repair_pending(self, gpu_id: str) -> bool:
        return gpu_id in self._repairs and self._repairs[gpu_id].pending


class CapacityPlan:
    """A scheduled capacity plan (the :class:`FaultPlan` generalized to
    node-granular transitions).

    Each event is a pre-computed ``(at_ms, node_id, kind)`` triple —
    see :func:`repro.scenario.capacity.build_capacity_events` — turned
    into a :class:`GridOneShot`.  Kinds:

    ``drain``
        Cordon the node ahead of a reclaim (residents keep running,
        no new placements) — the drain-before-reclaim grace window.
    ``reclaim``
        Take the node away: evict its pods back to the pending queue,
        fail its devices.  Fires in the fault phase slot.
    ``restore``
        Bring the node back into service.  Fires in the repair phase
        slot, so a same-instant reclaim+restore nets out to a repaired
        node, exactly like a same-instant fault+repair.

    The plan only *schedules*; the transition callbacks (the
    orchestrator's ``cordon_node``/``reclaim_node``/``restore_node``)
    own the semantics, keeping this module free of any scenario import.
    """

    __slots__ = ("harness", "_drain_fn", "_reclaim_fn", "_restore_fn", "_events")

    _PHASES = {"drain": PHASE_FAULT, "reclaim": PHASE_FAULT, "restore": PHASE_REPAIR}

    def __init__(
        self,
        harness: TickHarness,
        events: Iterable[_CapacityEventLike],
        drain_fn: Callable[[str], object],
        reclaim_fn: Callable[[str], object],
        restore_fn: Callable[[str], object],
    ) -> None:
        self.harness = harness
        self._drain_fn = drain_fn
        self._reclaim_fn = reclaim_fn
        self._restore_fn = restore_fn
        self._events: list[GridOneShot] = []
        for event in sorted(events, key=lambda e: (e.at_ms, self._PHASES[e.kind], e.node_id)):
            self._events.append(
                harness.at(
                    max(event.at_ms, 0.0),
                    self._on_event,
                    event,
                    priority=self._PHASES[event.kind],
                )
            )

    def _on_event(self, event: _CapacityEventLike) -> None:
        # Transition callbacks are idempotent-tolerant: overlapping
        # windows may re-drain or re-restore a node; that is swallowed
        # by the orchestrator exactly like a duplicate fault.
        if event.kind == "drain":
            self._drain_fn(event.node_id)
        elif event.kind == "reclaim":
            self._reclaim_fn(event.node_id)
        elif event.kind == "restore":
            self._restore_fn(event.node_id)
        else:  # pragma: no cover - validated at construction
            raise SimulationError(f"unknown capacity event kind {event.kind!r}")

    @property
    def pending(self) -> int:
        """Capacity events still scheduled to fire."""
        return sum(1 for event in self._events if event.pending)


def run_until_idle(loop: EventLoop, max_events: int | None = None) -> int:
    """Run ``loop`` until it drains or a handler calls ``loop.stop()``.

    Returns the number of events fired.
    """
    return loop.run(max_events=max_events)
