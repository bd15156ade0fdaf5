"""A/B bit-identity and property tests for the vectorized quantum.

The array-native execution quantum (:mod:`repro.cluster.quantum`) is a
pure substrate swap: a run with the engine engaged must produce
**bit-identical** :class:`SimResult` payloads — makespan, energy,
every telemetry series, every pod outcome — to the unmodified
per-pod ``Kubelet.step`` loop.  These tests pin that contract on the
scenario matrix the engine has to survive (dense ticks, device
faults, diurnal gang scheduling, occupancy-threshold crossings), plus
property tests tying the two batched kernels — phase-table lookup and
victim selection — to their scalar references.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import make_paper_cluster
from repro.cluster.gpu import GPU
from repro.cluster.quantum import demand_rows_at, pick_victim_slots
from repro.core.schedulers import SCHEDULERS, make_scheduler
from repro.obs import Observability
from repro.scenario.gangs import apply_gang_mix
from repro.scenario.spec import SCENARIOS
from repro.sim.simulator import DeviceFault, KubeKnotsSimulator, SimConfig
from repro.workloads.appmix import generate_appmix_workload
from repro.workloads.base import Phase, ResourceDemand, WorkloadTrace

from tests.conftest import make_spec
from tests.test_sim_equivalence import assert_kk_identical, pod_signature

FAULTS = (
    DeviceFault(at_ms=1_500.0, gpu_id="node1/gpu0"),
    DeviceFault(at_ms=2_500.0, gpu_id="node3/gpu2"),
)


def _build(
    sched_name: str = "cbp",
    n_nodes: int = 32,
    faults: tuple = (),
    scenario=None,
    load: float = 1.0,
    obs: Observability | None = None,
) -> KubeKnotsSimulator:
    workload = generate_appmix_workload(
        "app-mix-1", duration_s=4.0, seed=3, load_factor=load
    )
    if scenario is not None and scenario.gangs is not None:
        workload = apply_gang_mix(workload, scenario.gangs)
    return KubeKnotsSimulator(
        make_paper_cluster(num_nodes=n_nodes, gpus_per_node=8),
        make_scheduler(sched_name),
        workload,
        SimConfig(min_horizon_ms=20_000.0, faults=tuple(faults), scenario=scenario),
        obs=obs,
    )


def _run_pair(tag: str, min_batch: int | None = 0, **kw) -> None:
    """Run fast-on vs fast-off and require bit-identical results.

    ``min_batch=0`` forces every due tick through the vectorized path;
    ``None`` keeps the default occupancy crossover so mode transitions
    (legacy -> fast -> legacy) are exercised too.
    """
    fast = _build(**kw)
    engine = fast.orchestrator.quantum
    assert engine is not None, f"{tag}: engine did not engage"
    if min_batch is not None:
        engine.min_batch = min_batch
    result_fast = fast.run()
    if min_batch == 0:
        assert engine.fast_ticks > 0, f"{tag}: vectorized path never ran"

    slow = _build(**kw)
    slow.orchestrator.quantum = None
    for kubelet in slow.orchestrator.kubelets.values():
        kubelet.engine = None
    result_slow = slow.run()

    assert_kk_identical(result_fast, result_slow, tag)
    assert pod_signature(result_fast) == pod_signature(result_slow)


class TestBitIdentity:
    def test_cbp(self):
        _run_pair("cbp", sched_name="cbp")

    def test_peak_prediction(self):
        _run_pair("peak-prediction", sched_name="peak-prediction")

    def test_device_faults(self):
        """Failure eviction + requeue replays through the object path."""
        _run_pair("faults", sched_name="cbp", faults=FAULTS)

    def test_diurnal_gang(self):
        """The quantum engages under the gang wrapper too."""
        _run_pair("gang", sched_name="cbp", scenario=SCENARIOS["diurnal-gang"])

    def test_dense(self):
        """Overloaded cluster: OOM kills, evictions, queue churn."""
        _run_pair("dense", sched_name="cbp", load=8.0)

    @pytest.mark.parametrize("case", ["plain", "dense", "faults", "diurnal-gang"])
    @pytest.mark.parametrize("sched", ["res-ag", "uniform", "hetero-pp"])
    def test_every_policy(self, sched, case):
        """No policy reads the ``gpu.last_sample`` the quantum leaves
        stale, so the quantum is exact under the list-based policies and
        the heterogeneity-aware PP as well."""
        kw = {
            "plain": {},
            "dense": {"load": 8.0},
            "faults": {"faults": FAULTS},
            "diurnal-gang": {"scenario": SCENARIOS["diurnal-gang"]},
        }[case]
        _run_pair(f"{sched}-{case}", sched_name=sched, **kw)

    def test_dense_default_threshold(self):
        """Default ``min_batch`` crosses the occupancy threshold both
        ways mid-run — the progress-authority handoff (flush on the way
        down, resync on the way up) must not perturb anything."""
        _run_pair("dense-mbdef", min_batch=None, sched_name="cbp", load=8.0)


def _two_node_events(fast: bool) -> list[tuple]:
    """API events of a two-node run where pod-1 completes on node1 in
    the tick pod-2's start deadline passes on node2 (t = 120 ms).

    ``uniform`` gives each pod a device of its own in node order, so
    pod-2 lands on node2 while pod-1 still runs.  ``fast`` forces every
    tick through the quantum (``min_batch=0``); otherwise the object
    tick runs alone.
    """
    workload = [
        (0.0, make_spec(name="a", image="img/a", duration_ms=110.0, mem_mb=1_000.0)),
        (90.0, make_spec(name="b", image="img/b", duration_ms=100.0, mem_mb=1_000.0)),
    ]
    sim = KubeKnotsSimulator(
        make_paper_cluster(num_nodes=2, gpus_per_node=1),
        make_scheduler("uniform"),
        workload,
        SimConfig(min_horizon_ms=2_000.0),
    )
    if fast:
        sim.orchestrator.quantum.min_batch = 0
    else:
        sim.orchestrator.quantum = None
        for kubelet in sim.orchestrator.kubelets.values():
            kubelet.engine = None
    sim.run()
    return [(e.time, e.type.value, e.pod_uid, e.detail) for e in sim.orchestrator.api.events]


class TestEventOrder:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason='ROADMAP: "The quantum logs same-tick events in another order" — '
        "its tick starts every due pod on every node before any device steps, "
        "the object tick runs each node's starts and then its devices",
    )
    def test_same_tick_events_keep_node_order(self):
        """``SimResult`` equality misses this: the pods, energy and
        series agree, only the order of the API event log differs."""
        slow = _two_node_events(fast=False)
        same_tick = [(t, kind, uid) for t, kind, uid, _ in slow if t == 120.0]
        if same_tick != [(120.0, "succeeded", "pod-1"), (120.0, "started", "pod-2")]:
            pytest.fail(f"the scenario lost its same-tick events: {same_tick}")
        assert _two_node_events(fast=True) == slow


class TestEngagement:
    def test_engages_when_dark_and_vectorized(self):
        sim = _build()
        engine = sim.orchestrator.quantum
        assert engine is not None
        for kubelet in sim.orchestrator.kubelets.values():
            assert kubelet.engine is engine

    @pytest.mark.parametrize("sched", sorted(SCHEDULERS))
    def test_engages_in_a_dark_run_under_every_policy(self, sched):
        sim = _build(sched_name=sched)
        assert sim.orchestrator.quantum is not None

    def test_disengaged_under_observability(self):
        sim = _build(obs=Observability(trace=False, metrics=False, audit=True))
        assert sim.orchestrator.quantum is None

    def test_disengaged_under_sanitizer(self):
        sim = _build(
            obs=Observability(trace=False, metrics=False, audit=False, sanitize=True)
        )
        assert sim.orchestrator.quantum is None

    def test_gang_scheduler_delegates(self):
        """A gang-wrapped policy gets the quantum like any other."""
        sim = _build(scenario=SCENARIOS["diurnal-gang"])
        assert sim.orchestrator.scheduler.name == "gang+cbp"
        assert sim.orchestrator.quantum is not None

    def test_sparse_run_stays_legacy_at_default_threshold(self):
        """A load-1.0 run never reaches ``min_batch`` running pods, so
        the default threshold routes every tick through the object
        path — the engine is attached but the vector pass never fires."""
        sim = _build()
        result = sim.run()
        assert result is not None
        assert sim.orchestrator.quantum.fast_ticks == 0


# -- property tests: batched kernels vs scalar references -----------------


def _trace(durations, name="t") -> WorkloadTrace:
    phases = tuple(
        Phase(
            duration_ms=d,
            demand=ResourceDemand(
                sm=0.1 * (i + 1) % 1.0 or 0.05,
                mem_mb=100.0 * (i + 1),
                tx_mbps=5.0 * i,
                rx_mbps=3.0 * i,
            ),
        )
        for i, d in enumerate(durations)
    )
    return WorkloadTrace(name=name, phases=phases)


class TestDemandRowsAt:
    @pytest.mark.parametrize(
        "durations",
        [
            (100.0,),
            (100.0, 250.0, 50.0),
            (1.0, 1.0, 1.0, 1000.0),
        ],
    )
    def test_matches_scalar_lookup(self, durations):
        trace = _trace(durations)
        cum, rows = trace.demand_table()
        total = float(sum(durations))
        # Boundaries, interiors, zero, and past-the-end progress.
        probes = sorted(
            {0.0, total, total + 123.4}
            | {float(c) for c in cum}
            | {float(c) - 0.5 for c in cum}
            | {float(c) + 0.5 for c in cum}
        )
        probes = [p for p in probes if p >= 0.0]
        got = demand_rows_at(cum, rows, np.array(probes))
        for k, p in enumerate(probes):
            want = trace.demand_at(p)
            assert got[k, 0] == want.sm, p
            assert got[k, 1] == want.mem_mb, p
            assert got[k, 2] == want.tx_mbps, p
            assert got[k, 3] == want.rx_mbps, p

    def test_phase_boundary_is_right_exclusive(self):
        trace = _trace((100.0, 100.0))
        cum, rows = trace.demand_table()
        got = demand_rows_at(cum, rows, np.array([100.0]))
        assert got[0, 1] == trace.demand_at(100.0).mem_mb == 200.0


def _victim_fixture(demand_mem, alloc, attach_order):
    """A standalone GPU with containers attached in ``attach_order``,
    plus the pod-major arrays mirroring it (slot i == pod ``p{i}``)."""
    gpu = GPU("nodeX/gpu0", mem_capacity_mb=1_000.0)
    for i in attach_order:
        gpu.attach(f"p{i}", alloc_mb=alloc[i])
    demands = {
        f"p{i}": ResourceDemand(sm=0.1, mem_mb=demand_mem[i], tx_mbps=0, rx_mbps=0)
        for i in attach_order
    }
    n = len(alloc)
    dev = np.zeros(n, dtype=np.intp)
    d_mem = np.array([demand_mem[i] for i in range(n)], dtype=float)
    alloc_arr = np.array([alloc[i] for i in range(n)], dtype=float)
    seq = np.array(
        [gpu.containers[f"p{i}"].attach_seq for i in range(n)], dtype=np.int64
    )
    return gpu, demands, dev, d_mem, alloc_arr, seq


class TestPickVictimSlots:
    def test_prefers_over_reservation(self):
        # Slot 1 bursts past its reservation; slot 2 attached later but
        # stays within it — the burster must die, matching the legacy
        # "over first" pool restriction.
        gpu, demands, dev, d_mem, alloc, seq = _victim_fixture(
            demand_mem=[200.0, 500.0, 300.0],
            alloc=[300.0, 400.0, 300.0],
            attach_order=[0, 1, 2],
        )
        want = gpu._pick_victim(demands)
        got = pick_victim_slots(dev, d_mem, alloc, seq, np.array([0]))
        assert want == "p1"
        assert got == {0: 1}

    def test_all_within_reservation_falls_back_to_latest(self):
        gpu, demands, dev, d_mem, alloc, seq = _victim_fixture(
            demand_mem=[200.0, 200.0, 200.0],
            alloc=[300.0, 300.0, 300.0],
            attach_order=[0, 1, 2],
        )
        want = gpu._pick_victim(demands)
        got = pick_victim_slots(dev, d_mem, alloc, seq, np.array([0]))
        assert want == "p2"
        assert got == {0: 2}

    def test_tie_break_uses_attach_seq_not_slot_order(self):
        # Attach out of slot order: p0 attached last, so it has the
        # greatest attach_seq and loses the tie-break among equals.
        gpu, demands, dev, d_mem, alloc, seq = _victim_fixture(
            demand_mem=[400.0, 400.0, 400.0],
            alloc=[300.0, 300.0, 300.0],
            attach_order=[2, 1, 0],
        )
        want = gpu._pick_victim(demands)
        got = pick_victim_slots(dev, d_mem, alloc, seq, np.array([0]))
        assert want == "p0"
        assert got == {0: 0}

    def test_epsilon_guard_matches_legacy(self):
        # Demand exactly alloc + 1e-10 is *within* reservation under the
        # 1e-9 epsilon — both paths must fall back to the latest attach.
        gpu, demands, dev, d_mem, alloc, seq = _victim_fixture(
            demand_mem=[300.0 + 1e-10, 200.0],
            alloc=[300.0, 300.0],
            attach_order=[0, 1],
        )
        want = gpu._pick_victim(demands)
        got = pick_victim_slots(dev, d_mem, alloc, seq, np.array([0]))
        assert want == "p1"
        assert got == {0: 1}

    def test_multiple_devices(self):
        n = 4
        dev = np.array([0, 0, 3, 3], dtype=np.intp)
        d_mem = np.array([500.0, 200.0, 100.0, 100.0])
        alloc = np.array([300.0, 300.0, 300.0, 300.0])
        seq = np.array([1, 2, 3, 4], dtype=np.int64)
        got = pick_victim_slots(dev, d_mem, alloc, seq, np.array([0, 3]))
        # Device 0: slot 0 is the only burster.  Device 3: nobody
        # bursts, greatest attach_seq (slot 3) dies.
        assert got == {0: 0, 3: 3}
        assert n == len(dev)


class TestBincountOrderPin:
    def test_bincount_matches_sequential_sum(self):
        """The engine's segment sums rely on ``np.bincount`` weights
        accumulating in input order — the same left-to-right order as
        the object path's ``sum()`` over each device's demands dict.
        Pin that: a pairwise reduction of these weights rounds
        differently, so drift here would break bit-identity."""
        rng = np.random.default_rng(7)
        w = rng.uniform(0.01, 0.99, size=513)
        dev = np.zeros(w.size, dtype=np.intp)
        binned = np.bincount(dev, weights=w, minlength=1)[0]
        seq = 0.0
        for x in w:
            seq += x
        assert binned == seq
