"""Runtime lock-order / race detector — TSan for the serving layer.

The static concurrency rules (KK005–KK008, :mod:`repro.analysis.lint`)
prove what they can from one file's AST; this module checks the two
properties that only exist at runtime, across threads:

``lock_order``
    Every thread acquires tracked locks in a globally consistent
    order.  Each acquisition of lock *B* while holding lock *A* adds
    the edge ``A -> B`` to a process-wide lock-order graph; a new edge
    that closes a cycle (``A -> B`` recorded after ``B -> A``) is a
    *potential deadlock* — two threads interleaving those paths can
    block each other forever — and is reported even if the deadlock
    never actually fired in this run.
``owner_thread``
    Single-threaded resources (the :class:`~repro.sim.engine.EventLoop`
    while running, the Knots telemetry ring, the tracer's span stack) are
    only touched by the thread that owns them.  Ownership binds to the
    first touching thread (or is rebound explicitly at sanctioned
    hand-off points, e.g. :meth:`EventLoop.run` entry); any other
    thread touching the resource is a data race even if it "worked" —
    none of those structures take locks on their hot paths, by design.

Wiring mirrors the runtime :class:`~repro.analysis.sanitizer.Sanitizer`:
a :class:`RaceDetector` rides on the observability bundle
(``Observability(race_detect=True)``, CLI ``--race-detect``), records
every breach into the decision audit log (kind ``"violation"``) and
either raises :class:`RaceError` (``halt=True``, the unit-test mode) or
collects into :attr:`RaceDetector.violations` for an end-of-run report
(the serving default — killing a live service mid-drain from an
arbitrary thread would lose accepted requests; the CLI instead exits
with the distinct code 5).

Overhead when off is one ``is None`` check per instrumented call site;
:class:`TrackedLock` only exists when the detector built it.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Iterator

from repro.analysis.sanitizer import Violation

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.obs.audit import DecisionAuditLog

__all__ = [
    "RACE_INVARIANTS",
    "RaceError",
    "ThreadAffinity",
    "TrackedLock",
    "RaceDetector",
]

#: The detector's invariant vocabulary (disjoint from the sanitizer's
#: :data:`repro.analysis.sanitizer.INVARIANTS` — both report through
#: the same audit-log "violation" channel).
RACE_INVARIANTS = ("lock_order", "owner_thread")


class RaceError(RuntimeError):
    """Raised at the first breach when the detector halts."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(violation.render())
        self.violation = violation


class ThreadAffinity:
    """Owner-thread guard for a resource that must stay single-threaded.

    The first thread to :meth:`check` becomes the owner; a later check
    from any other thread reports an ``owner_thread`` violation.
    :meth:`rebind` transfers ownership to the calling thread — the
    sanctioned hand-off used at :meth:`EventLoop.run` entry, where the
    loop legitimately moves from its constructing thread to the thread
    that drives it.
    """

    __slots__ = ("detector", "resource", "_owner", "_owner_name")

    def __init__(self, detector: "RaceDetector", resource: str) -> None:
        self.detector = detector
        self.resource = resource
        self._owner: int | None = None
        self._owner_name = ""

    def rebind(self) -> None:
        """Make the calling thread the owner (a sanctioned hand-off)."""
        t = threading.current_thread()
        self._owner = t.ident
        self._owner_name = t.name

    def check(self, operation: str) -> None:
        """Verify the calling thread owns the resource (binds on first use)."""
        t = threading.current_thread()
        owner = self._owner
        if owner is None:
            self._owner = t.ident
            self._owner_name = t.name
            return
        if t.ident != owner:
            self.detector.violation(
                "owner_thread",
                f"{self.resource}.{operation} called from thread "
                f"{t.name!r} but owned by {self._owner_name!r}",
                resource=self.resource,
                operation=operation,
                owner=self._owner_name,
                intruder=t.name,
            )


class TrackedLock:
    """A ``threading.Lock`` shim feeding the lock-order graph.

    Drop-in for the subset of the ``Lock`` API this repo uses
    (``acquire``/``release``/context manager/``locked``); every
    successful acquisition reports the set of locks the calling thread
    already holds, which is where lock-order edges come from.
    """

    __slots__ = ("name", "detector", "_lock")

    def __init__(self, name: str, detector: "RaceDetector") -> None:
        self.name = name
        self.detector = detector
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._lock.acquire(blocking, timeout)
        if got:
            self.detector._on_acquire(self.name)
        return got

    def release(self) -> None:
        self.detector._on_release(self.name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrackedLock({self.name!r}, locked={self.locked()})"


class _HeldStack(threading.local):
    """Per-thread stack of currently held tracked-lock names."""

    def __init__(self) -> None:
        self.names: list[str] = []


class RaceDetector:
    """Process-wide lock-order graph plus owner-thread affinity guards.

    Parameters
    ----------
    audit:
        Decision audit log violations are recorded into (kind
        ``"violation"``); optional.
    clock:
        Shared sim clock violations are stamped from; optional.
    halt:
        Raise :class:`RaceError` at the first breach.  The default is
        ``False`` (collect) — the serving CLI reports at end of run and
        exits 5, because aborting a live drain from whichever thread
        happened to trip the check would drop accepted requests.
    """

    def __init__(
        self,
        audit: "DecisionAuditLog | None" = None,
        clock=None,
        halt: bool = False,
    ) -> None:
        self.audit = audit
        self.clock = clock
        self.halt = halt
        self.violations: list[Violation] = []
        self.acquisitions = 0
        #: lock name -> names acquired at least once while holding it.
        self._graph: dict[str, set[str]] = {}
        self._held = _HeldStack()
        #: Guards the graph and the violation list (a plain lock — the
        #: detector must not feed its own bookkeeping into the graph).
        self._meta = threading.Lock()
        self._reported_edges: set[tuple[str, str]] = set()
        self._affinities: dict[str, ThreadAffinity] = {}

    # -- construction of instrumented primitives -----------------------------

    def tracked(self, name: str) -> TrackedLock:
        """A new :class:`TrackedLock` participating in order tracking."""
        return TrackedLock(name, self)

    def affinity(self, resource: str) -> ThreadAffinity:
        """The (shared) owner-thread guard for ``resource``."""
        with self._meta:
            guard = self._affinities.get(resource)
            if guard is None:
                guard = self._affinities[resource] = ThreadAffinity(self, resource)
            return guard

    # -- lock-order bookkeeping ----------------------------------------------

    def _on_acquire(self, name: str) -> None:
        held = self._held.names
        cycle: list[str] | None = None
        with self._meta:
            self.acquisitions += 1
            edges = self._graph
            for prior in held:
                targets = edges.setdefault(prior, set())
                if name not in targets:
                    targets.add(name)
                    # Only a *new* edge can close a new cycle.
                    path = self._find_path(name, prior)
                    if path is not None and (prior, name) not in self._reported_edges:
                        self._reported_edges.add((prior, name))
                        cycle = [prior] + path
        held.append(name)
        if cycle is not None:
            self.violation(
                "lock_order",
                "lock-order cycle (potential deadlock): "
                + " -> ".join(cycle),
                cycle=cycle,
                thread=threading.current_thread().name,
            )

    def _on_release(self, name: str) -> None:
        held = self._held.names
        # Locks are almost always released LIFO; tolerate out-of-order
        # release (remove the most recent matching entry).
        for i in range(len(held) - 1, -1, -1):
            if held[i] == name:
                del held[i]
                return

    def _find_path(self, src: str, dst: str) -> list[str] | None:
        """DFS path ``src -> ... -> dst`` in the order graph (caller
        holds ``_meta``).  Returns the node list including both ends."""
        stack = [(src, [src])]
        seen = {src}
        while stack:
            node, path = stack.pop()
            if node == dst:
                return path
            for nxt in self._graph.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None

    def held_by_current_thread(self) -> tuple[str, ...]:
        """Names of tracked locks the calling thread holds (debugging)."""
        return tuple(self._held.names)

    def edges(self) -> dict[str, tuple[str, ...]]:
        """A snapshot of the lock-order graph."""
        with self._meta:
            return {k: tuple(sorted(v)) for k, v in self._graph.items()}

    # -- reporting ------------------------------------------------------------

    @property
    def now(self) -> float:
        return float(self.clock.now) if self.clock is not None else 0.0

    def violation(self, invariant: str, message: str, **details: Any) -> None:
        """Record one breach; raise when halting."""
        if invariant not in RACE_INVARIANTS:
            raise ValueError(
                f"unknown race invariant {invariant!r}; known: {RACE_INVARIANTS}"
            )
        v = Violation(invariant=invariant, ts=self.now, message=message, details=details)
        with self._meta:
            self.violations.append(v)
        if self.audit is not None:
            self.audit.record(
                "violation",
                evidence={"invariant": invariant, "message": message, **details},
            )
        if self.halt:
            raise RaceError(v)

    def summary(self) -> dict[str, int]:
        """``{invariant: count}`` over recorded violations."""
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.invariant] = out.get(v.invariant, 0) + 1
        return out

    def iter_violations(self) -> Iterator[Violation]:
        return iter(list(self.violations))
