"""End-to-end cluster simulation driver (the ten-node experiments).

Ties the whole stack together: workload arrivals are submitted to the
API server, the Knots monitoring plane heartbeats device telemetry
into its telemetry ring, the scheduler runs its passes, kubelets execute
pods on the simulated GPUs, and energy/QoS/JCT accounting is collected
into a :class:`SimResult` that the experiment modules turn into the
paper's figures.

The driver is event-driven: submissions, Knots heartbeats, scheduling
passes, device faults/repairs and the execution/telemetry quantum are
first-class events on the shared :class:`repro.sim.engine.EventLoop`,
phase-ordered by the priorities in :mod:`repro.sim.harness`.  When the
cluster is provably quiescent (no unfinished pods, no fault or capacity
plan outstanding, and no kubelet step or scheduling pass able to act
before :meth:`~repro.core.orchestrator.KubeKnots.idle_until`) the
per-tick chains fast-forward to the earlier of the next arrival and
that instant.  The skipped span costs one write per store: one
telemetry-ring write for the heartbeats a scheduler could still read,
and one recorded series row with its tick count — same-seed outputs
stay bit-identical to the reference tick loop
(:func:`repro.sim.reference.run_tick_reference`, pinned by
``tests/test_sim_equivalence.py``) while idle spans cost events, not
ticks.  A device whose recorded rows never change gets its series as a
zero-stride view of its one value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.cluster import Cluster, make_paper_cluster
from repro.core.knots import KnotsConfig
from repro.core.orchestrator import KubeKnots
from repro.core.schedulers.base import Scheduler
from repro.kube.api import EventType
from repro.kube.kubelet import KubeletConfig
from repro.kube.pod import Pod
from repro.obs.context import NOOP, Observability
from repro.sim.engine import EventLoop
from repro.sim.harness import (
    CapacityPlan,
    FaultPlan,
    PhaseGate,
    TickHarness,
    run_until_idle,
)
from repro.units import ms_to_s
from repro.workloads.appmix import WorkloadItem
from repro.workloads.base import QoSClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenario.spec import Scenario

__all__ = ["DeviceFault", "SimConfig", "SimResult", "KubeKnotsSimulator", "run_appmix"]


@dataclass(frozen=True)
class DeviceFault:
    """One injected device failure: ``gpu_id`` dies at ``at_ms`` and is
    repaired (empty) ``duration_ms`` later."""

    at_ms: float
    gpu_id: str
    duration_ms: float = 5_000.0


@dataclass(frozen=True)
class SimConfig:
    """Simulation timing and bounds."""

    tick_ms: float = 10.0            # execution/telemetry quantum
    schedule_interval_ms: float = 20.0
    horizon_factor: float = 4.0      # run at most factor x arrival window
    min_horizon_ms: float = 60_000.0
    prewarm_images: bool = True      # steady state: docker layers cached
    faults: tuple[DeviceFault, ...] = ()   # failure-injection plan
    #: Jump the tick chains across provably idle spans: no unfinished
    #: pods, no fault or capacity plan outstanding, and no kubelet step
    #: or scheduling pass able to act before the span ends
    #: (``KubeKnots.idle_until``; under the sanitizer, every device
    #: asleep or failed).  Output-equivalent to ticking through the
    #: span; turn off to force every quantum to execute (e.g. when
    #: profiling the substrate).
    fast_forward: bool = True
    #: Cluster-scale overrides: when set, :func:`run_appmix` sizes the
    #: paper cluster from the config instead of its own arguments — the
    #: axis the ``bench/clusterscale`` suite and ``--nodes/--gpus`` CLI
    #: flags sweep.
    nodes: int | None = None
    gpus_per_node: int | None = None
    knots: KnotsConfig = field(default_factory=KnotsConfig)
    kubelet: KubeletConfig = field(default_factory=KubeletConfig)
    #: Scenario axes (capacity plan, network model, gang mix) threaded
    #: through the whole stack — see :mod:`repro.scenario`.  ``None``
    #: and the default scenario (all axes off) leave every code path
    #: inert: same-seed runs stay bit-identical to a pre-scenario
    #: build.
    scenario: "Scenario | None" = None


@dataclass
class SimResult:
    """Everything the experiments need from one run.

    The per-device series a run returns are read-only.  A device whose
    samples never changed over a run with idle spans holds a zero-stride
    view of its one value (``strides == (0,)``); reductions and
    elementwise ops give the same bits as on a materialized copy, and
    ``tobytes()`` or a pickle materializes it (an unpickled result holds
    ordinary writeable arrays).  Copy a series before writing into it.
    """

    scheduler: str
    pods: list[Pod]
    makespan_ms: float
    energy_j_per_gpu: dict[str, float]
    oom_kills: int
    evictions: int
    resizes: int
    gpu_util_series: dict[str, np.ndarray]    # gpu_id -> sm_util samples
    gpu_mem_series: dict[str, np.ndarray]     # gpu_id -> mem_util samples
    sample_times_ms: np.ndarray
    #: Ticks the vectorized execution quantum handled (0 when the
    #: engine was disengaged or never left the object path).  Substrate
    #: accounting, not an output — excluded from equality on purpose so
    #: fast-on and fast-off runs still compare identical.
    fast_quantum_ticks: int = field(default=0, compare=False)

    # Derived-metric caches: every figure asks for completed()/
    # latency_pods() repeatedly; pods never change after the run.
    _completed: list[Pod] | None = field(default=None, init=False, repr=False, compare=False)
    _latency: list[Pod] | None = field(default=None, init=False, repr=False, compare=False)

    # -- derived metrics -----------------------------------------------------

    def completed(self) -> list[Pod]:
        if self._completed is None:
            self._completed = [p for p in self.pods if p.done]
        return self._completed

    def latency_pods(self) -> list[Pod]:
        if self._latency is None:
            self._latency = [
                p for p in self.completed() if p.spec.qos_class is QoSClass.LATENCY_CRITICAL
            ]
        return self._latency

    def qos_violations(self) -> int:
        return sum(1 for p in self.latency_pods() if p.violates_qos())

    def qos_violations_per_kilo(self) -> float:
        """Violations per 1000 inference queries (Fig. 10a's unit)."""
        lc = self.latency_pods()
        if not lc:
            return 0.0
        return 1_000.0 * self.qos_violations() / len(lc)

    def total_energy_j(self) -> float:
        return float(sum(self.energy_j_per_gpu.values()))

    def jcts_ms(self, qos_class: QoSClass | None = None) -> np.ndarray:
        pods = self.completed()
        if qos_class is not None:
            pods = [p for p in pods if p.spec.qos_class is qos_class]
        return np.asarray([p.jct_ms() for p in pods])


#: Bytes of one recording block of one metric.  Benchmark-scale runs
#: fit one block, so a run without spans hands out views of it; a
#: block's untouched rows cost address space only.
_BLOCK_BYTES = 64 << 20

#: Rows transposed per copy when expanding spans (and compared per
#: step when looking for devices that never change).  A tile reads one
#: cache line per row for every eight devices, so 128 rows keep the
#: lines being read in L1 at any cluster width.  On a 2-vCPU Xeon, one
#: transpose of 13,000 rows of 512 devices took 49 ms and 128-row
#: tiles took 13 ms.
_TILE_ROWS = 128


class _DeviceSeries:
    """Every device's per-tick ``sm_util``/``mem_util``, recorded in place.

    Rows are written into ``(block_rows, devices)`` blocks, one pair of
    blocks per ``block_rows`` recorded rows.  A full block is never
    copied: the next row opens a new pair.  A fast-forwarded span writes
    its one (constant) row together with the number of ticks it covers.
    ``expected_rows`` (the horizon's tick count) caps the block size, so
    a short run on a small cluster does not hold a whole block.
    """

    def __init__(self, devices: int, expected_rows: float) -> None:
        self.devices = devices
        budget = _BLOCK_BYTES // (8 * max(devices, 1))
        self.block_rows = max(1, int(min(expected_rows, budget)))
        self._sm_blocks: list[np.ndarray] = []
        self._mem_blocks: list[np.ndarray] = []
        self._at = self.block_rows          # next row of the newest block
        #: ``(row, ticks)`` of every span row, in row order.
        self._spans: list[tuple[int, int]] = []

    @property
    def rows(self) -> int:
        """Rows recorded so far."""
        return (len(self._sm_blocks) - 1) * self.block_rows + self._at if self._sm_blocks else 0

    @property
    def ticks(self) -> int:
        """Ticks covered by the recorded rows."""
        return self.rows + sum(ticks - 1 for _, ticks in self._spans)

    def record(self, sm: np.ndarray, mem: np.ndarray) -> None:
        """One tick's row."""
        r = self._at
        if r == self.block_rows:
            self._sm_blocks.append(np.empty((self.block_rows, self.devices)))
            self._mem_blocks.append(np.empty((self.block_rows, self.devices)))
            r = 0
        self._sm_blocks[-1][r] = sm
        self._mem_blocks[-1][r] = mem
        self._at = r + 1

    def record_span(self, sm: np.ndarray, mem: np.ndarray, ticks: int) -> None:
        """One row that holds for ``ticks`` consecutive ticks."""
        self._spans.append((self.rows, ticks))
        self.record(sm, mem)

    def device_major(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Both metrics' per-device series, one read-only array per device.

        Without spans these are views of the recorded rows, concatenated
        only when the run filled several blocks.  With spans, a device
        whose recorded rows never change gets a zero-stride view of its
        one value, and the others are built once: block transposes for
        the live stretches and one broadcast fill per span.
        """
        if self._spans:
            return self._expand(self._sm_blocks), self._expand(self._mem_blocks)
        return self._rows_view(self._sm_blocks), self._rows_view(self._mem_blocks)

    def _rows_view(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        if blocks:
            filled = [*blocks[:-1], blocks[-1][: self._at]]
            out = (filled[0] if len(filled) == 1 else np.concatenate(filled)).T
        else:
            out = np.empty((self.devices, 0))
        out.flags.writeable = False
        return list(out)

    def _varying(self, blocks: list[np.ndarray]) -> np.ndarray:
        """Devices with a recorded row that differs from the first.

        Rows compare as bit patterns, so a ``-0.0`` after a ``0.0``
        counts as a change.  The scan goes ``_TILE_ROWS`` rows at a
        time, so its temporaries stay small at any run length.
        """
        first = blocks[0][0].view(np.int64)
        varying = np.zeros(self.devices, dtype=bool)
        for b, block in enumerate(blocks):
            stop = min(self.block_rows, self.rows - b * self.block_rows)
            for r in range(0, stop, _TILE_ROWS):
                rows = block[r:min(r + _TILE_ROWS, stop)].view(np.int64)
                varying |= (rows != first).any(axis=0)
        return varying

    def _expand(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        varying = self._varying(blocks)
        cols = np.flatnonzero(varying)
        out = np.empty((len(cols), self.ticks))
        size = self.block_rows
        row = col = 0
        for span_row, ticks in [*self._spans, (self.rows, 0)]:
            while row < span_row:               # live stretch, tile by tile
                b, r = divmod(row, size)
                n = min(span_row - row, size - r, _TILE_ROWS)
                out[:, col:col + n] = blocks[b][r:r + n, cols].T
                row += n
                col += n
            if ticks:
                b, r = divmod(row, size)
                out[:, col:col + ticks] = blocks[b][r, cols][:, None]
                row += 1
                col += ticks
        out.flags.writeable = False
        expanded = iter(out)
        first = blocks[0][0]
        shape = (self.ticks,)
        return [
            next(expanded) if varies else np.broadcast_to(first[d], shape)
            for d, varies in enumerate(varying)
        ]


class KubeKnotsSimulator:
    """Event-driven execution of one (cluster, scheduler, workload) run.

    Each live tick records every device's ``sm_util``/``mem_util`` row
    in place (:class:`_DeviceSeries`); an idle fast-forward records one
    row for its whole span and logs its observable heartbeats with one
    :meth:`~repro.core.knots.Knots.heartbeat_span`.
    :meth:`collect_result` expands the spans once, at the end.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        workload: list[WorkloadItem],
        config: SimConfig | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.config = config or SimConfig()
        self.obs = obs or NOOP
        scenario = self.config.scenario
        self._network = None
        self._capacity: CapacityPlan | None = None
        if scenario is not None and scenario.network is not None:
            from repro.scenario.network import NetworkFabric

            self._network = NetworkFabric(
                scenario.network, [node.node_id for node in cluster]
            )
        if scenario is not None and scenario.gangs is not None:
            from repro.scenario.gangs import GangScheduler

            rack_size = scenario.network.rack_size if scenario.network else 8
            scheduler = GangScheduler(
                scheduler, rack_size=rack_size, prefer=scenario.gangs.prefer
            )
        self.orchestrator = KubeKnots(
            cluster,
            scheduler,
            knots_config=self.config.knots,
            kubelet_config=self.config.kubelet,
            obs=self.obs,
        )
        self.cluster = cluster
        self.workload = sorted(workload, key=lambda item: item[0])
        if self._network is not None:
            # With a network model, image pulls are charged per-link
            # transfer costs instead of the flat prewarm shortcut.
            for kubelet in self.orchestrator.kubelets.values():
                kubelet.network = self._network
        elif self.config.prewarm_images:
            images = {spec.image for _, spec in self.workload}
            for kubelet in self.orchestrator.kubelets.values():
                kubelet.prewarm(images)
        self.state = cluster.state
        arrival_end = self.workload[-1][0] if self.workload else 0.0
        self._horizon = max(
            arrival_end * self.config.horizon_factor, self.config.min_horizon_ms
        )
        #: Telemetry accounting over the ClusterState sample mirrors:
        #: per-device energy, the sample times, and the sm/mem series
        #: (one row per live tick, one per fast-forwarded span).
        self._energy_arr = np.zeros(len(self.state))
        self._times: list[float] = []
        self._series = _DeviceSeries(len(self.state), self._horizon / self.config.tick_ms + 2)
        #: Run statistics (populated by :meth:`run`).
        self.events_fired = 0
        self.fast_forwards = 0
        self.ticks_skipped = 0
        self._m_ff = self.obs.metrics.counter(
            "sim_fast_forwards_total", "Idle spans fast-forwarded by the simulator"
        )
        self._m_skipped = self.obs.metrics.counter(
            "sim_ticks_skipped_total", "Tick quanta skipped by idle fast-forward"
        )

    def run(self) -> SimResult:
        from repro.kube.pod import reset_uid_counter

        # UIDs restart at pod-1 for every run so results are a function
        # of (workload, scheduler, config) alone — the sweep fabric's
        # cross-process bit-identity depends on it.
        reset_uid_counter()
        cfg = self.config
        api = self.orchestrator.api
        obs = self.obs
        tracer = obs.tracer
        if tracer.enabled:
            tracer.begin(
                "simulation", cat="sim",
                args={"scheduler": self.orchestrator.scheduler.name, "pods": len(self.workload)},
                ts=0.0,
            )
        self._makespan = 0.0
        self._next_submit = 0

        loop = EventLoop(obs=obs)
        self._loop = loop
        # Phases 3–7 (execution quantum … end-of-tick bookkeeping) run
        # *fused* inside the one quantum chain: every one-shot event
        # (fault, repair, submission) carries a phase priority below
        # PHASE_QUANTUM, so at any instant those phases are contiguous
        # and fusing them is order-preserving — one heap event per tick
        # instead of five.  Heartbeat/scheduling cadences keep the
        # reference loop's ``if t >= next_due`` bookkeeping via
        # :class:`PhaseGate`.
        harness = TickHarness(loop, cfg.tick_ms, self._on_tick)
        self._harness = harness
        self._hb = PhaseGate(cfg.knots.heartbeat_ms, start_due=loop.now)
        self._sched = PhaseGate(cfg.schedule_interval_ms, start_due=loop.now)
        self._faults = FaultPlan(harness, cfg.faults, self._fail_gpu, self._repair_gpu)
        scenario = cfg.scenario
        if scenario is not None and scenario.capacity is not None:
            from repro.scenario.capacity import build_capacity_events

            orch = self.orchestrator
            events = build_capacity_events(
                scenario.capacity,
                [node.node_id for node in self.cluster],
                self._horizon,
            )
            self._capacity = CapacityPlan(
                harness,
                events,
                orch.cordon_node,
                lambda node_id: orch.reclaim_node(node_id, loop.now),
                orch.restore_node,
            )

        self.events_fired = run_until_idle(loop)
        t_end = self._makespan

        if tracer.enabled:
            tracer.end(args={"makespan_ms": t_end}, ts=t_end)
        return self.collect_result(t_end)

    def collect_result(self, makespan_ms: float) -> SimResult:
        """Assemble the :class:`SimResult` from the recorded telemetry
        (shared with the reference driver).  A run without spans gets
        its per-device series as views of the recorded rows; a run with
        spans gets them built once, device-major, except that a device
        whose rows never changed gets a zero-stride view of its value."""
        quantum = getattr(self.orchestrator, "quantum", None)
        if quantum is not None:
            # Write array-side progress back to the surviving pod
            # objects so per-pod accounting matches the object path.
            quantum.flush()
        api = self.orchestrator.api
        gpu_ids = self.state.gpu_ids
        sm, mem = self._series.device_major()
        return SimResult(
            scheduler=self.orchestrator.scheduler.name,
            pods=api.pods(),
            makespan_ms=makespan_ms,
            energy_j_per_gpu={gid: float(self._energy_arr[i]) for i, gid in enumerate(gpu_ids)},
            oom_kills=len(api.events_of(EventType.OOM_KILLED)),
            evictions=len(api.events_of(EventType.EVICTED)),
            resizes=len(api.events_of(EventType.RESIZED)),
            gpu_util_series={gid: sm[i] for i, gid in enumerate(gpu_ids)},
            gpu_mem_series={gid: mem[i] for i, gid in enumerate(gpu_ids)},
            sample_times_ms=np.asarray(self._times),
            fast_quantum_ticks=quantum.fast_ticks if quantum is not None else 0,
        )

    # -- event handlers ------------------------------------------------------

    def _submit_due(self, now: float) -> None:
        """Submit every arrival at or before this tick, in arrival
        order — the reference loop's ``while`` check.  An arrival
        between ticks therefore lands at the first grid tick >= its
        raw time, the same instant the old per-tick polling loop (and
        the previous one-event-per-arrival scheme) submitted it."""
        api = self.orchestrator.api
        tracer = self.obs.tracer
        workload = self.workload
        i = self._next_submit
        n = len(workload)
        while i < n and workload[i][0] <= now:
            pod = api.submit(workload[i][1], now)
            i += 1
            if tracer.enabled:
                tracer.instant(
                    "submit", cat="workload",
                    args={"pod": pod.uid, "image": pod.spec.image}, ts=now,
                )
        self._next_submit = i

    def _on_tick(self, now: float) -> None:
        """One fused tick: due submissions, execution quantum, then the
        heartbeat, telemetry-record, scheduling and end-of-tick phases
        in the reference loop's order.  The heartbeat is paced by the
        Knots heartbeat interval (the scheduler only sees what the
        monitoring plane actually sampled); the scheduling pass by its
        own interval."""
        orch = self.orchestrator
        tick_ms = self.config.tick_ms
        if self._next_submit < len(self.workload):
            self._submit_due(now)
        orch.step_kubelets(now, tick_ms)
        if self._hb.due(now):
            orch.heartbeat(now)
        self._record(now, tick_ms)
        if self._sched.due(now):
            orch.scheduling_pass(now)
        self._on_tick_end(now)

    def _fail_gpu(self, gpu_id: str) -> bool:
        return self.orchestrator.fail_gpu(gpu_id)

    def _repair_gpu(self, gpu_id: str) -> None:
        self.orchestrator.repair_gpu(gpu_id)

    def _on_tick_end(self, now: float) -> None:
        """End-of-tick bookkeeping: termination checks (after the
        scheduling phase, like the old loop) and the idle fast-forward
        opportunity check."""
        t_next = now + self.config.tick_ms
        all_submitted = self._next_submit >= len(self.workload)
        if all_submitted and self.orchestrator.api.all_done():
            self._makespan = t_next
            self._loop.stop()
            return
        if t_next > self._horizon:
            self._makespan = t_next
            self._loop.stop()
            return
        # With every arrival submitted, a quiescent span can only end at
        # the stop check above — there is no future arrival to jump to.
        if self.config.fast_forward and not all_submitted:
            self._maybe_fast_forward(now, t_next)

    # -- idle fast-forward ---------------------------------------------------

    def _maybe_fast_forward(self, now: float, t_next: float) -> None:
        """Jump the tick chains across a provably idle span.

        Guards: every submitted pod has succeeded, no fault/repair event
        is outstanding (a repair would wake hardware mid-span) and no
        capacity transition either.  The span then runs up to the
        earlier of the next arrival and
        :meth:`~repro.core.orchestrator.KubeKnots.idle_until`, the first
        instant a kubelet step could run or a scheduling pass could do
        something other than repeat its last no-op.  Each skipped tick
        is therefore a no-op up to constant per-device telemetry (the
        cluster state columns do not move), which is accounted below
        with one write per store: one ring write for the tail's
        heartbeats (:meth:`~repro.core.knots.Knots.heartbeat_span`) and
        one series row with the span's tick count.  Floats stay
        bit-identical, because energy accumulates by the same repeated
        addition and the sample and heartbeat times come from the same
        ``t + tick_ms`` chain the live path uses.  A span that ends at
        an auto-pstate deadline resumes on the tick its node steps; the
        next span, if any, starts from there.
        """
        api = self.orchestrator.api
        if not api.all_done():
            return
        if self._faults.pending:
            return
        if self._capacity is not None and self._capacity.pending:
            return                      # a capacity transition would wake the span
        end = min(self.workload[self._next_submit][0], self.orchestrator.idle_until())
        if end <= t_next:
            return                      # an arrival, a kubelet or a pass is due next tick

        state = self.state
        cfg = self.config
        tick = cfg.tick_ms
        hb_ms = cfg.knots.heartbeat_ms
        san = self.obs.sanitizer
        slack = san.staleness_slack if san is not None else 2.0
        # Every TSDB read is bounded to the last ``window_ms``; only
        # heartbeats inside that window (plus staleness slack) before
        # the resume tick are observable.  Skip the rest.
        tail_from = end - cfg.knots.window_ms - (slack + 2.0) * hb_ms - 2.0 * tick
        next_hb = self._hb.next_due
        next_sched = self._sched.next_due
        times = self._times
        tail: list[float] = []
        horizon = self._horizon
        stopped = False
        skipped = 0
        tp = t_next
        while tp < end:
            times.append(tp)
            skipped += 1
            if tp >= next_hb:
                if tp >= tail_from:
                    tail.append(tp)
                next_hb = tp + hb_ms
            if tp >= next_sched:
                # The pass is skipped outright: nothing is pending and no
                # node epoch moves across the span, so by the idle-pass
                # contract of ``Scheduler.schedule`` the policy's answer
                # cannot change.  ``idle_until`` found it a repeat of the
                # last no-op; under the sanitizer nothing is resident and
                # every device is parked, so it is no action.
                next_sched = tp + cfg.schedule_interval_ms
            t_after = tp + tick
            if t_after > horizon:
                self._makespan = t_after
                stopped = True
                break
            tp = t_after

        # Per-device telemetry over the span is constant: no node steps
        # in it (under the sanitizer every node steps, but arbitration of
        # an empty, parked device is a fixed point), so the tail's
        # heartbeats log one unchanged sample and the span's series hold
        # one row.  Energy stays a *repeated* addition (never
        # ``inc * skipped``) so floats match the tick loop bit for bit.
        if tail:
            self.orchestrator.knots.heartbeat_span(tail)
        inc = self._device_power() * ms_to_s(tick)
        for _ in range(skipped):
            self._energy_arr += inc
        if skipped:
            self._series.record_span(state.sm_util, state.mem_util, skipped)

        if san is not None:
            # Quiescence as the GPU objects see it, not the columns the
            # guard above read.
            san.check_fast_forward(
                now, tp, api.all_done(),
                all(g.asleep or g.failed for g in self.cluster.gpus()),
            )
        self.fast_forwards += 1
        self.ticks_skipped += skipped
        if self.obs.enabled:
            self._m_ff.inc()
            self._m_skipped.inc(skipped)
            if self.obs.tracer.enabled:
                self.obs.tracer.instant(
                    "fast_forward", cat="sim",
                    args={"from_ms": now, "to_ms": tp, "ticks_skipped": skipped},
                )
        if stopped:
            self._loop.stop()
            return
        self._harness.skip_to(tp)
        self._hb.resync(next_hb)
        self._sched.resync(next_sched)

    # -- telemetry accounting ------------------------------------------------

    def _device_power(self) -> np.ndarray:
        """Each device's draw over the coming tick: its sample's power,
        or the sleep wattage for an empty sleeping device (its last
        arbitration already saw the sleep flag)."""
        state = self.state
        return np.where(
            (state.sample_containers > 0) | ~state.asleep,
            state.power_w,
            state.sleep_watts,
        )

    def _record(self, t: float, dt_ms: float) -> None:
        self._times.append(t)
        state = self.state
        power = self._device_power()
        self._energy_arr += power * ms_to_s(dt_ms)
        self._series.record(state.sm_util, state.mem_util)
        tracer = self.obs.tracer
        n = len(power)
        if tracer.enabled and n:
            # Counter tracks render as stacked area charts in Perfetto.
            # ``cumsum`` adds in device order, like a running total.
            tracer.counter(
                "cluster_utilization",
                {
                    "sm_util_mean": float(np.cumsum(state.sm_util)[-1]) / n,
                    "mem_util_mean": float(np.cumsum(state.mem_util)[-1]) / n,
                },
                ts=t,
            )
            tracer.counter("cluster_power_w", {"total": float(np.cumsum(power)[-1])}, ts=t)
            tracer.counter(
                "pending_pods", {"count": float(self.orchestrator.api.num_pending())}, ts=t
            )


def run_appmix(
    mix_name: str,
    scheduler: Scheduler,
    duration_s: float = 20.0,
    seed: int = 0,
    num_nodes: int = 10,
    config: SimConfig | None = None,
    load_factor: float = 1.0,
    gpus_per_node: int = 1,
    obs: Observability | None = None,
) -> SimResult:
    """Convenience wrapper: one Table-I mix on the paper cluster.

    ``config.nodes`` / ``config.gpus_per_node``, when set, override the
    same-named arguments — the single knob the CLI and bench suite turn
    to scale the cluster.
    """
    from repro.workloads.appmix import generate_appmix_workload

    cfg = config or SimConfig()
    if cfg.nodes is not None:
        num_nodes = cfg.nodes
    if cfg.gpus_per_node is not None:
        gpus_per_node = cfg.gpus_per_node
    cluster = make_paper_cluster(num_nodes=num_nodes, gpus_per_node=gpus_per_node)
    workload = generate_appmix_workload(mix_name, duration_s=duration_s, seed=seed, load_factor=load_factor)
    if cfg.scenario is not None and cfg.scenario.gangs is not None:
        from repro.scenario.gangs import apply_gang_mix

        workload = apply_gang_mix(workload, cfg.scenario.gangs)
    return KubeKnotsSimulator(cluster, scheduler, workload, cfg, obs=obs).run()
