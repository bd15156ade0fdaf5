"""Bounded admission queue between the front door and the event loop.

The HTTP front door (and the in-process load generator) run on their
own threads at wall clock; the Knots service drains the queue into the
simulation's API server from the tick chain.  The queue is therefore
the *only* cross-thread hand-off in the serving path, and it carries
the backpressure contract:

* :meth:`AdmissionQueue.offer` is non-blocking — a full queue returns
  ``False`` immediately, which the front door turns into ``429 Too Many
  Requests`` with a ``Retry-After`` derived from the observed drain
  rate.  Shedding at admission keeps the decision-latency SLO of the
  accepted requests intact instead of letting everyone queue forever.
* :meth:`close` flips the queue into drain mode: new offers are
  refused (the front door answers ``503``) while the service keeps
  draining what was already accepted — the graceful-shutdown half of
  the contract.  Every accepted item is eventually taken; nothing is
  dropped.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable

__all__ = ["AdmissionQueue", "Offer", "OFFER_ACCEPTED", "OFFER_FULL", "OFFER_CLOSED"]

#: :meth:`AdmissionQueue.offer` outcomes.
OFFER_ACCEPTED = "accepted"
OFFER_FULL = "full"
OFFER_CLOSED = "closed"

#: One admission verdict: outcome plus the Retry-After hint (seconds)
#: the front door should send on ``full``.
Offer = tuple[str, float]


class AdmissionQueue:
    """Thread-safe bounded FIFO with drain-rate-based Retry-After hints."""

    def __init__(
        self,
        capacity: int,
        clock: Callable[[], float] = time.monotonic,
        lock: Any | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"queue capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._clock = clock
        # ``lock`` is injectable so ``--race-detect`` can substitute a
        # repro.analysis.racedetect.TrackedLock and fold this queue into
        # the lock-order graph.
        self._lock = lock if lock is not None else threading.Lock()
        self._items: deque[Any] = deque()
        self._closed = False
        self.accepted_total = 0
        self.rejected_total = 0
        self.taken_total = 0
        # EWMA of the drain rate (items/s), updated on every non-empty
        # take; seeds the Retry-After estimate before any drain happens.
        self._drain_rate = 0.0
        self._last_take: float | None = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def offer(self, item: Any) -> Offer:
        """Try to enqueue ``item``; never blocks.

        Returns ``(outcome, retry_after_s)`` — ``retry_after_s`` is only
        meaningful on :data:`OFFER_FULL`.
        """
        with self._lock:
            if self._closed:
                return OFFER_CLOSED, 0.0
            if len(self._items) >= self.capacity:
                self.rejected_total += 1
                return OFFER_FULL, self._retry_after_locked()
            self._items.append(item)
            self.accepted_total += 1
            return OFFER_ACCEPTED, 0.0

    def take_all(self) -> list[Any]:
        """Drain everything currently queued (the tick chain's batch)."""
        now = self._clock()
        with self._lock:
            if not self._items:
                return []
            batch = list(self._items)
            self._items.clear()
            self.taken_total += len(batch)
            if self._last_take is not None:
                dt = now - self._last_take
                if dt > 0.0:
                    rate = len(batch) / dt
                    self._drain_rate = (
                        rate if self._drain_rate == 0.0
                        else 0.8 * self._drain_rate + 0.2 * rate
                    )
            self._last_take = now
            return batch

    def close(self) -> None:
        """Refuse new offers; queued items stay takeable.  Idempotent.

        It only sets a flag, without the lock, so a signal handler may
        call it on a thread that holds the lock (``take_all``).
        :meth:`offer` reads the flag under the lock: an offer that takes
        the lock after ``close`` returns is refused, and one that held
        it before queued its item for the drain.
        """
        self._closed = True

    def _retry_after_locked(self) -> float:
        """Seconds until roughly half the queue should have drained —
        long enough that an immediate retry won't bounce again, short
        enough that capacity freed by a burst ending is not wasted."""
        if self._drain_rate <= 0.0:
            return 1.0
        return min(max(0.5 * self.capacity / self._drain_rate, 0.05), 30.0)

    def retry_after_s(self) -> float:
        with self._lock:
            return self._retry_after_locked()
