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
cluster is provably quiescent (no unfinished pods, every device asleep
or failed, no fault plan outstanding) the per-tick chains fast-forward
to the next arrival, accounting for the skipped span in closed form —
same-seed outputs stay bit-identical to the reference tick loop
(:func:`repro.sim.reference.run_tick_reference`, pinned by
``tests/test_sim_equivalence.py``) while idle spans cost events, not
ticks.
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
    #: Jump the tick chains across provably idle spans (no unfinished
    #: pods, all devices asleep/failed, no fault plan outstanding).
    #: Output-equivalent to ticking through the span; turn off to force
    #: every quantum to execute (e.g. when profiling the substrate).
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
    """Everything the experiments need from one run."""

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


class KubeKnotsSimulator:
    """Event-driven execution of one (cluster, scheduler, workload) run."""

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
        #: Telemetry accounting over the ClusterState sample mirrors:
        #: per-device energy, and one sm/mem row per recorded span with
        #: the number of ticks it covers.
        self._energy_arr = np.zeros(len(self.state))
        self._sm_rows: list[np.ndarray] = []
        self._mem_rows: list[np.ndarray] = []
        self._row_counts: list[int] = []
        self._times: list[float] = []
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
        arrival_end = self.workload[-1][0] if self.workload else 0.0
        self._horizon = max(arrival_end * cfg.horizon_factor, cfg.min_horizon_ms)
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
        (shared with the reference driver)."""
        quantum = getattr(self.orchestrator, "quantum", None)
        if quantum is not None:
            # Write array-side progress back to the surviving pod
            # objects so per-pod accounting matches the object path.
            quantum.flush()
        api = self.orchestrator.api
        gpu_ids = self.state.gpu_ids
        if self._row_counts:
            counts = np.asarray(self._row_counts)
            # Transpose to device-major *before* expanding, so each
            # per-device series comes out a row view — one bulk op
            # instead of thousands of strided column extractions on
            # wide clusters.  Dense runs (every count 1) skip the
            # expansion entirely.
            sm = np.vstack(self._sm_rows).T
            mem = np.vstack(self._mem_rows).T
            if int(counts.sum()) != len(self._row_counts):
                sm = np.repeat(sm, counts, axis=1)
                mem = np.repeat(mem, counts, axis=1)
        else:
            sm = mem = np.empty((len(gpu_ids), 0))
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

        Guards: every submitted pod has succeeded (so no kubelet has
        work, no scheduler pass can act), every device is asleep or
        failed (so the driver's auto-p-state clock has already settled
        and arbitration is a fixed point), and no fault/repair event is
        outstanding (a repair would wake hardware mid-span).  Under
        those conditions each skipped tick is a no-op up to constant
        per-device telemetry, which is accounted in closed form below —
        bit-identical floats, because energy accumulates by the same
        repeated addition and the tick grid is produced by the same
        ``t + tick_ms`` chain the live path uses.
        """
        api = self.orchestrator.api
        if not api.all_done():
            return
        a_raw = self.workload[self._next_submit][0]
        if a_raw <= t_next:
            return                      # next arrival lands on the very next tick
        if self._faults.pending:
            return
        if self._capacity is not None and self._capacity.pending:
            return                      # a capacity transition would wake the span
        state = self.state
        if not bool(np.all(state.asleep | state.failed)):
            return                      # a device is awake: auto-p-state still settling

        cfg = self.config
        tick = cfg.tick_ms
        hb_ms = cfg.knots.heartbeat_ms
        san = self.obs.sanitizer
        slack = san.staleness_slack if san is not None else 2.0
        # Every TSDB read is bounded to the last ``window_ms``; only
        # heartbeats inside that window (plus staleness slack) before
        # the resume tick are observable.  Skip the rest.
        tail_from = a_raw - cfg.knots.window_ms - (slack + 2.0) * hb_ms - 2.0 * tick
        next_hb = self._hb.next_due
        next_sched = self._sched.next_due
        times = self._times
        horizon = self._horizon
        stopped = False
        skipped = 0
        tp = t_next
        while tp < a_raw:
            times.append(tp)
            skipped += 1
            if tp >= next_hb:
                if tp >= tail_from:
                    self.orchestrator.heartbeat(tp)
                next_hb = tp + hb_ms
            if tp >= next_sched:
                # The pass is skipped outright: nothing is pending and no
                # node epoch moves across the span, so by the idle-pass
                # contract of ``Scheduler.schedule`` the policy's answer
                # cannot change, and with no residents and every device
                # parked it is no action.
                next_sched = tp + cfg.schedule_interval_ms
            t_after = tp + tick
            if t_after > horizon:
                self._makespan = t_after
                stopped = True
                break
            tp = t_after

        # Per-device telemetry over the span is constant: arbitration of
        # an empty, parked device is a fixed point of the live path.
        # Energy stays a *repeated* addition (never ``inc * skipped``) so
        # floats match the tick loop bit for bit.
        inc = self._device_power() * ms_to_s(tick)
        for _ in range(skipped):
            self._energy_arr += inc
        if skipped:
            self._sm_rows.append(state.sm_util.copy())
            self._mem_rows.append(state.mem_util.copy())
            self._row_counts.append(skipped)

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
        self._sm_rows.append(state.sm_util.copy())
        self._mem_rows.append(state.mem_util.copy())
        self._row_counts.append(1)
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
