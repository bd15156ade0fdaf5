"""Tests for the shared tick-grid harness (:mod:`repro.sim.harness`)."""

from __future__ import annotations

import pytest

from repro.sim.engine import EventLoop
from repro.sim.harness import (
    PHASE_FAULT,
    PHASE_QUANTUM,
    PHASE_REPAIR,
    FaultPlan,
    PhaseGate,
    TickHarness,
    run_until_idle,
)


class _Fault:
    def __init__(self, at_ms: float, gpu_id: str, duration_ms: float) -> None:
        self.at_ms = at_ms
        self.gpu_id = gpu_id
        self.duration_ms = duration_ms


def make_harness(tick_ms: float = 10.0, horizon: float = 200.0):
    """A harness whose quantum records tick times; a tick-end chain (the
    last phase slot, like the simulator's bookkeeping hook) stops the
    loop once ``horizon`` is reached."""
    loop = EventLoop()
    ticks: list[float] = []
    harness = TickHarness(loop, tick_ms, ticks.append)
    harness.every_tick(lambda now: loop.stop() if now >= horizon else None, priority=99)
    return loop, harness, ticks


class TestTickHarness:
    def test_quantum_fires_on_grid_from_time_zero(self):
        loop, harness, ticks = make_harness(tick_ms=10.0, horizon=40.0)
        run_until_idle(loop)
        assert ticks == [0.0, 10.0, 20.0, 30.0, 40.0]

    def test_next_tick_and_last_tick_bracket_now(self):
        loop, harness, _ = make_harness()
        seen = []
        loop.schedule_at(15.0, lambda: seen.append((harness.last_tick, harness.next_tick)))
        loop.schedule_at(16.0, loop.stop)
        run_until_idle(loop)
        assert seen == [(10.0, 20.0)]

    def test_on_grid_true_at_tick_instants_only(self):
        loop, harness, _ = make_harness()
        probes = []
        # Priority below the quantum's: fires before this tick's quantum.
        loop.schedule_at(20.0, lambda: probes.append(harness.on_grid(20.0)), priority=0)
        # And after the quantum, via a later phase slot.
        loop.schedule_at(20.0, lambda: probes.append(harness.on_grid(20.0)), priority=9)
        loop.schedule_at(25.0, lambda: probes.append(harness.on_grid(25.0)))
        loop.schedule_at(26.0, loop.stop)
        run_until_idle(loop)
        assert probes == [True, True, False]

    def test_skip_to_moves_every_per_tick_chain(self):
        """Skipping from the last phase of a tick (like the simulator's
        end-of-tick hook) jumps every chain to the target tick after
        all of the current tick's phases have run."""
        loop = EventLoop()
        ticks, records = [], []

        def tick_end(now: float) -> None:
            if now == 20.0:
                harness.skip_to(100.0)
            if now >= 110.0:
                loop.stop()

        harness = TickHarness(loop, 10.0, ticks.append)
        harness.every_tick(records.append, priority=5)
        harness.every_tick(tick_end, priority=9)
        run_until_idle(loop)
        assert ticks == [0.0, 10.0, 20.0, 100.0, 110.0]
        assert records == [0.0, 10.0, 20.0, 100.0, 110.0]


def _gated_beats(interval: float, horizon: float, tick_end=None):
    """Ticks at which a :class:`PhaseGate` checked in the tick callback
    runs its phase, on a 10 ms grid stopped at ``horizon``.
    ``tick_end(now, harness, gate)`` runs in the last phase slot."""
    loop = EventLoop()
    gate = PhaseGate(interval, start_due=0.0)
    beats: list[float] = []

    def on_tick(now: float) -> None:
        if gate.due(now):
            beats.append(now)

    def end(now: float) -> None:
        if tick_end is not None:
            tick_end(now, harness, gate)
        if now >= horizon:
            loop.stop()

    harness = TickHarness(loop, 10.0, on_tick)
    harness.every_tick(end, priority=99)
    run_until_idle(loop)
    return beats


class TestPhaseGate:
    def test_interval_multiple_of_tick_fires_each_due_tick(self):
        assert _gated_beats(20.0, horizon=60.0) == [0.0, 20.0, 40.0, 60.0]

    def test_off_grid_interval_lands_on_first_tick_after_due(self):
        """interval=25 on a 10ms grid: due times 0, 25, 55, ... execute
        at ticks 0, 30, 60 ... — `next_due = executed + interval`,
        exactly the old `if t >= next_due` bookkeeping."""
        assert _gated_beats(25.0, horizon=120.0) == [0.0, 30.0, 60.0, 90.0, 120.0]

    def test_resync_reaims_after_skip(self):
        def skip(now, harness, gate):
            if now == 20.0:
                harness.skip_to(100.0)
                gate.resync(120.0)

        assert _gated_beats(20.0, horizon=130.0, tick_end=skip) == [0.0, 20.0, 120.0]


class TestGridOneShot:
    def test_raw_time_defers_to_next_tick(self):
        loop, harness, ticks = make_harness(tick_ms=10.0, horizon=40.0)
        hits = []
        harness.at(13.0, lambda: hits.append(loop.now), priority=PHASE_FAULT)
        run_until_idle(loop)
        assert hits == [20.0]

    def test_on_grid_time_fires_at_that_tick(self):
        loop, harness, _ = make_harness(tick_ms=10.0, horizon=40.0)
        hits = []
        harness.at(20.0, lambda: hits.append(loop.now), priority=PHASE_FAULT)
        run_until_idle(loop)
        assert hits == [20.0]

    def test_cancel_before_fire(self):
        loop, harness, _ = make_harness(tick_ms=10.0, horizon=40.0)
        hits = []
        shot = harness.at(25.0, lambda: hits.append(loop.now), priority=PHASE_FAULT)
        loop.schedule_at(15.0, shot.cancel)
        run_until_idle(loop)
        assert hits == []
        assert not shot.pending


class TestFaultPlan:
    def test_fault_and_repair_fire_on_grid(self):
        loop, harness, _ = make_harness(tick_ms=10.0, horizon=100.0)
        log = []
        FaultPlan(
            harness,
            [_Fault(13.0, "g0", 25.0)],
            fail_fn=lambda g: (log.append(("fail", g, loop.now)), True)[1],
            repair_fn=lambda g: log.append(("repair", g, loop.now)),
        )
        run_until_idle(loop)
        # Fault at raw 13 lands on tick 20; repair due at raw 38 lands on 40.
        assert log == [("fail", "g0", 20.0), ("repair", "g0", 40.0)]

    def test_swallowed_fault_schedules_no_repair(self):
        loop, harness, _ = make_harness(tick_ms=10.0, horizon=100.0)
        log = []
        plan = FaultPlan(
            harness,
            [_Fault(10.0, "g0", 30.0), _Fault(20.0, "g0", 5.0)],
            fail_fn=lambda g: (log.append(("fail", loop.now)), loop.now == 10.0)[1],
            repair_fn=lambda g: log.append(("repair", loop.now)),
        )
        run_until_idle(loop)
        assert log == [("fail", 10.0), ("fail", 20.0), ("repair", 40.0)]
        assert plan.pending == 0

    def test_cancel_repair_keeps_device_failed(self):
        loop, harness, _ = make_harness(tick_ms=10.0, horizon=100.0)
        log = []
        plan = FaultPlan(
            harness,
            [_Fault(10.0, "g0", 30.0)],
            fail_fn=lambda g: True,
            repair_fn=lambda g: log.append(("repair", loop.now)),
        )
        loop.schedule_at(25.0, plan.cancel_repair, "g0")
        run_until_idle(loop)
        assert log == []
        assert not plan.repair_pending("g0")
        assert plan.cancel_repair("g0") is False  # idempotent

    def test_pending_counts_unfired_events(self):
        loop, harness, _ = make_harness(tick_ms=10.0, horizon=100.0)
        plan = FaultPlan(
            harness,
            [_Fault(10.0, "g0", 1000.0), _Fault(30.0, "g1", 1000.0)],
            fail_fn=lambda g: True,
            repair_fn=lambda g: None,
        )
        counts = []
        loop.schedule_at(5.0, lambda: counts.append(plan.pending), priority=9)
        loop.schedule_at(35.0, lambda: counts.append(plan.pending), priority=9)
        run_until_idle(loop)
        # Before any fault: 2 faults pending.  After both applied: the
        # two (still-future, beyond-horizon) repairs are pending.
        assert counts == [2, 2]

    def test_same_tick_fault_then_repair_order(self):
        """A zero-duration fault repairs at the same tick: the repair's
        PHASE_REPAIR slot fires after the fault's PHASE_FAULT slot."""
        loop, harness, _ = make_harness(tick_ms=10.0, horizon=60.0)
        log = []
        FaultPlan(
            harness,
            [_Fault(20.0, "g0", 0.0)],
            fail_fn=lambda g: (log.append("fail"), True)[1],
            repair_fn=lambda g: log.append("repair"),
        )
        run_until_idle(loop)
        assert log == ["fail", "repair"]
        assert PHASE_FAULT < PHASE_REPAIR < PHASE_QUANTUM


def test_run_until_idle_returns_events_fired():
    loop = EventLoop()
    for i in range(5):
        loop.schedule(float(i), lambda: None)
    assert run_until_idle(loop) == 5
