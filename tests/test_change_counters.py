"""Results kept across ticks equal the results they stand for.

Each per-tick consumer keeps its last result while the ``ClusterState``
change counters it reads hold (``cluster/state.py``, "Change
counters"), and the telemetry ring requantizes a heartbeat's few moved
devices one at a time.  Every test below recomputes what a kept or
shortcut result stands for, at every step, and requires the same bits:

* the ring's few-mover requantization, against the write-every-column
  ring of ``tests/dense_ring.py``, under heartbeats that move from none
  to more than ``_FEW_MOVERS`` devices;
* the simulator's power vector and energy increment, against a fresh
  ``np.where`` over the state columns, on quantum and object ticks;
* the orchestrator's kept due set, against the full-width mask;
* the vectorized quantum's dirty marks: a fast tick that rewrites equal
  values marks nothing, and every heartbeat of a quantum-routed run
  equals a full requantization of the state columns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import make_paper_cluster
from repro.core.orchestrator import KubeKnots
from repro.core.schedulers import make_scheduler
from repro.kube.pod import PodPhase
from repro.obs.context import Observability
from repro.scenario.gangs import apply_gang_mix
from repro.scenario.spec import SCENARIOS
from repro.sim.simulator import DeviceFault, KubeKnotsSimulator, SimConfig
from repro.telemetry.matrix import _FEW_MOVERS, MatrixTelemetry
from repro.telemetry.nvml import METRICS
from repro.units import ms_to_s
from repro.workloads.appmix import generate_appmix_workload
from tests.conftest import make_spec
from tests.dense_ring import DenseRing, windows_of

# ---------------------------------------------------------------------------
# (a) Few-mover heartbeats against the dense ring
# ---------------------------------------------------------------------------

#: Values drawn a quarter of the time in place of a uniform one: signed
#: zeros, large and infinite memory, a NaN, and powers at milliwatt
#: edges (``151.7 * 1000`` floors to 151,699).
_SPECIAL = {
    "sm_util": [0.0, -0.0, 1.0, float("nan")],
    "mem_used_mb": [0.0, -0.0, 16_384.0, 1e15, 1e303, float("inf")],
    "power_w": [0.0, -0.0, 151.7, 25.0005, 0.001, 299.9999],
    "tx_mbps": [0.0, -0.0, 15_754.0],
    "rx_mbps": [0.0, -0.0, 0.1],
}
_HIGH = {"sm_util": 1.0, "mem_used_mb": 20_000.0, "power_w": 400.0, "tx_mbps": 16_000.0, "rx_mbps": 16_000.0}


def _write_movers(state, rng, movers) -> None:
    """Write new sample columns for ``movers`` and mark their rows, as
    the vectorized quantum does."""
    for i in movers:
        for column, special in _SPECIAL.items():
            if rng.random() < 0.25:
                value = special[int(rng.integers(len(special)))]
            else:
                value = float(rng.uniform(0.0, _HIGH[column]))
            getattr(state, column)[i] = value
        state.sample_dirty.add(int(i))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    # 12 devices (every append once took the full branch at two movers)
    # and 264 (a block narrower than the cluster, sparse branch to 32).
    nodes=st.sampled_from([(3, 4), (33, 8)]),
    counts=st.lists(st.integers(0, _FEW_MOVERS + 30), min_size=1, max_size=12),
)
def test_few_mover_heartbeats_equal_the_dense_ring(seed, nodes, counts):
    rng = np.random.default_rng(seed)
    cluster = make_paper_cluster(num_nodes=nodes[0], gpus_per_node=nodes[1])
    state = cluster.state
    n = len(state)
    ring = MatrixTelemetry(state, heartbeat_ms=100.0, window_ms=1_000.0)
    dense = DenseRing(state, heartbeat_ms=100.0, window_ms=1_000.0)
    _write_movers(state, rng, range(n))
    for row, count in enumerate([0, *counts]):
        if row:
            _write_movers(state, rng, rng.permutation(n)[: min(count, n)])
        marked = set(state.sample_dirty)
        dense.append_from_state(100.0 * row)
        state.sample_dirty |= marked           # both rings consume the marks
        ring.append_from_state(100.0 * row)
        assert state.sample_dirty == set()
    got, want = windows_of(ring), windows_of(dense)
    for metric in METRICS:
        assert got[metric].tobytes() == want[metric].tobytes(), metric


# ---------------------------------------------------------------------------
# Whole runs: a dark run with a fault plan and the diurnal-gang scenario
# ---------------------------------------------------------------------------


def _gang_fault_sim(obs: Observability | None = None) -> KubeKnotsSimulator:
    scenario = SCENARIOS["diurnal-gang"]
    workload = apply_gang_mix(
        generate_appmix_workload("app-mix-1", duration_s=2.0, seed=3, load_factor=2.0),
        scenario.gangs,
    )
    faults = (
        DeviceFault(at_ms=700.0, gpu_id="node2/gpu0", duration_ms=1_500.0),
        DeviceFault(at_ms=2_600.0, gpu_id="node5/gpu1", duration_ms=400.0),
    )
    return KubeKnotsSimulator(
        make_paper_cluster(num_nodes=8, gpus_per_node=2),
        make_scheduler("cbp"),
        workload,
        SimConfig(min_horizon_ms=9_000.0, faults=faults, scenario=scenario),
        obs=obs,
    )


def _sparse_sim() -> KubeKnotsSimulator:
    jobs = generate_appmix_workload("app-mix-1", duration_s=2.0, seed=5)[:5]
    workload = [(i * 4_000.0, spec) for i, (_, spec) in enumerate(jobs)]
    return KubeKnotsSimulator(
        make_paper_cluster(num_nodes=4, gpus_per_node=2),
        make_scheduler("peak-prediction"),
        workload,
        SimConfig(horizon_factor=1.0, min_horizon_ms=24_000.0),
    )


def _route(sim: KubeKnotsSimulator, tick: str) -> None:
    """Send every tick through the vectorized quantum or the object
    tick."""
    sim.orchestrator.quantum.min_batch = 0 if tick == "quantum" else 1 << 30


def _check_ticks(sim: KubeKnotsSimulator, tick: str) -> None:
    fast = sim.orchestrator.quantum.fast_ticks
    assert fast > 0 if tick == "quantum" else fast == 0


# ---------------------------------------------------------------------------
# (b) The kept power vector and energy increment
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tick", ["quantum", "object"])
def test_kept_power_equals_a_fresh_where(monkeypatch, tick):
    sim = _gang_fault_sim()
    _route(sim, tick)
    state = sim.state
    calls = kept = 0
    energy_increment = sim._energy_increment

    def checked(dt_ms):
        # Every ``_record`` and every fast-forwarded span asks for it.
        nonlocal calls, kept
        before = sim._power_gens
        inc = energy_increment(dt_ms)
        fresh = np.where(
            (state.sample_containers > 0) | ~state.asleep, state.power_w, state.sleep_watts
        )
        assert sim._device_power().tobytes() == fresh.tobytes()
        assert inc.tobytes() == (fresh * ms_to_s(dt_ms)).tobytes()
        calls += 1
        kept += before == (state.sample_gen, state.epoch_gen)
        return inc

    monkeypatch.setattr(sim, "_energy_increment", checked)
    result = sim.run()
    _check_ticks(sim, tick)
    assert calls == len(result.sample_times_ms) - sim.ticks_skipped + sim.fast_forwards
    assert 0 < kept < calls


# ---------------------------------------------------------------------------
# (c) The kept due set
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "case", ["gang-fault/quantum", "gang-fault/object", "gang-fault/observed", "sparse/object"]
)
def test_kept_due_set_equals_the_full_mask(monkeypatch, case):
    ticks = kept = 0
    due_nodes = KubeKnots._due_nodes

    def checked(self, now):
        nonlocal ticks, kept
        state = self.cluster.state
        full = np.flatnonzero((state.node_epoch != self._epoch_seen) | (self._quiet_until <= now))
        held = self._due_idx
        due = due_nodes(self, now)
        assert due.tolist() == full.tolist(), now
        ticks += 1
        kept += due is held
        return due

    monkeypatch.setattr(KubeKnots, "_due_nodes", checked)
    workload, tick = case.split("/")
    if tick == "observed":
        # An observed run takes the quantum like a dark one.
        sim = _gang_fault_sim(Observability())
        tick = "quantum"
    else:
        sim = _gang_fault_sim() if workload == "gang-fault" else _sparse_sim()
    _route(sim, tick)
    sim.run()
    _check_ticks(sim, tick)
    assert 0 < kept < ticks


# ---------------------------------------------------------------------------
# (d) The quantum's dirty marks
# ---------------------------------------------------------------------------


def test_a_fast_tick_rewriting_equal_values_marks_nothing():
    # One pod in a long steady phase: once it runs, every fast tick
    # writes its device's row with the values already there.
    cluster = make_paper_cluster(num_nodes=2, gpus_per_node=2)
    orch = KubeKnots(cluster, make_scheduler("cbp"))
    engine = orch.quantum
    engine.min_batch = 0
    pod = orch.api.submit(make_spec("steady", duration_ms=60_000.0), 0.0)
    orch.scheduling_pass(0.0)
    state = cluster.state
    now = 0.0
    while pod.phase is not PodPhase.RUNNING:
        now += 10.0
        orch.step_kubelets(now, 10.0)
        assert now < 10_000.0, "the pod never started"
    now += 10.0
    orch.step_kubelets(now, 10.0)            # the first tick it runs
    for _ in range(5):
        state.sample_dirty.clear()
        sample_gen, fast_ticks = state.sample_gen, engine.fast_ticks
        before = state.power_w.copy()
        now += 10.0
        orch.step_kubelets(now, 10.0)
        assert engine.fast_ticks == fast_ticks + 1
        assert state.power_w.tobytes() == before.tobytes()
        assert state.sample_dirty == set()
        assert state.sample_gen == sample_gen


def _full_row(state) -> dict[str, np.ndarray]:
    """Every device's quantized sample, read from every column: a fresh
    dense ring's first append ignores the dirty marks."""
    ring = DenseRing(state, heartbeat_ms=100.0, window_ms=1_000.0)
    marked = set(state.sample_dirty)
    ring.append_from_state(0.0)
    state.sample_dirty |= marked            # appends consume the marks
    return {metric: ring.data[metric][0].copy() for metric in METRICS}


def test_every_quantum_heartbeat_equals_a_full_requantization(monkeypatch):
    sim = _gang_fault_sim()
    _route(sim, "quantum")
    heartbeats = 0
    append_span = MatrixTelemetry.append_span

    def checked(ring, times):
        nonlocal heartbeats
        want = _full_row(ring.state)
        append_span(ring, times)
        if not len(times):
            return
        t = times[-1]
        for col in range(len(ring.state)):
            got = ring.query(col, METRICS, t, t)
            for metric in METRICS:
                assert got[metric].values[-1:].tobytes() == want[metric][col : col + 1].tobytes(), (
                    t, col, metric,
                )
        heartbeats += 1

    monkeypatch.setattr(MatrixTelemetry, "append_span", checked)
    sim.run()
    _check_ticks(sim, "quantum")
    assert heartbeats > 100
