"""End-to-end tests for the cluster simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import make_paper_cluster
from repro.core.schedulers import make_scheduler
from repro.sim.simulator import KubeKnotsSimulator, SimConfig, _DeviceSeries, run_appmix
from repro.workloads.appmix import generate_appmix_workload
from repro.workloads.base import QoSClass
from tests.conftest import make_spec


def tiny_workload(n_batch=3, n_lc=5):
    items = []
    t = 0.0
    for i in range(n_batch):
        items.append((t, make_spec(f"b{i}", image=f"img/b{i % 2}", duration_ms=300.0, mem_mb=2_000.0)))
        t += 50.0
    for i in range(n_lc):
        items.append(
            (t, make_spec(f"q{i}", image="img/q", duration_ms=40.0, mem_mb=500.0,
                          qos_threshold_ms=150.0))
        )
        t += 30.0
    return items


@pytest.mark.parametrize("name", ["uniform", "res-ag", "cbp", "peak-prediction"])
def test_all_schedulers_complete_tiny_workload(name):
    cluster = make_paper_cluster(num_nodes=3)
    sim = KubeKnotsSimulator(cluster, make_scheduler(name), tiny_workload())
    result = sim.run()
    assert len(result.completed()) == len(result.pods) == 8
    assert result.scheduler == name
    assert result.total_energy_j() > 0


def test_deterministic_given_seed():
    a = run_appmix("app-mix-3", make_scheduler("cbp"), duration_s=4.0, seed=7)
    b = run_appmix("app-mix-3", make_scheduler("cbp"), duration_s=4.0, seed=7)
    assert a.makespan_ms == b.makespan_ms
    assert a.total_energy_j() == pytest.approx(b.total_energy_j())
    assert sorted(p.jct_ms() for p in a.completed()) == sorted(p.jct_ms() for p in b.completed())


def test_different_seeds_differ():
    a = run_appmix("app-mix-3", make_scheduler("cbp"), duration_s=4.0, seed=7)
    b = run_appmix("app-mix-3", make_scheduler("cbp"), duration_s=4.0, seed=8)
    assert len(a.pods) != len(b.pods) or a.makespan_ms != b.makespan_ms


def test_result_series_aligned():
    result = run_appmix("app-mix-3", make_scheduler("peak-prediction"), duration_s=4.0, seed=1)
    n = len(result.sample_times_ms)
    for series in result.gpu_util_series.values():
        assert len(series) == n
    for series in result.gpu_mem_series.values():
        assert len(series) == n


def test_latency_pods_counted():
    result = run_appmix("app-mix-1", make_scheduler("peak-prediction"), duration_s=4.0, seed=1)
    lc = result.latency_pods()
    assert lc
    assert all(p.spec.qos_class is QoSClass.LATENCY_CRITICAL for p in lc)
    assert 0.0 <= result.qos_violations_per_kilo() <= 1_000.0


def test_cold_start_slower_than_prewarm():
    workload = tiny_workload()
    cluster_a = make_paper_cluster(num_nodes=3)
    warm = KubeKnotsSimulator(
        cluster_a, make_scheduler("cbp"), workload, SimConfig(prewarm_images=True)
    ).run()
    cluster_b = make_paper_cluster(num_nodes=3)
    cold = KubeKnotsSimulator(
        cluster_b, make_scheduler("cbp"), tiny_workload(), SimConfig(prewarm_images=False)
    ).run()
    assert np.median(cold.jcts_ms()) > np.median(warm.jcts_ms())


def test_horizon_bounds_runaway():
    """A pod that can never fit must not hang the simulation."""
    cluster = make_paper_cluster(num_nodes=1)
    impossible = make_spec("huge", mem_mb=16_384.0, requested_mem_mb=16_384.0)
    blocker = make_spec("other", mem_mb=16_384.0, requested_mem_mb=16_384.0)
    sim = KubeKnotsSimulator(
        cluster,
        make_scheduler("uniform"),
        [(0.0, impossible), (0.0, blocker)],
        SimConfig(min_horizon_ms=2_000.0, horizon_factor=1.0),
    )
    result = sim.run()
    assert result.makespan_ms <= 2_500.0


def test_appmix_workload_shapes():
    items = generate_appmix_workload("app-mix-1", duration_s=5.0, seed=0)
    times = [t for t, _ in items]
    assert times == sorted(times)
    classes = {spec.qos_class for _, spec in items}
    assert QoSClass.LATENCY_CRITICAL in classes and QoSClass.BATCH in classes
    lc_fraction = sum(
        1 for _, s in items if s.qos_class is QoSClass.LATENCY_CRITICAL
    ) / len(items)
    assert 0.6 < lc_fraction < 0.95   # the 80/20 Pareto split


def test_multi_gpu_nodes_end_to_end():
    """Nodes with several devices schedule and complete normally."""
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import GpuNode

    cluster = Cluster([GpuNode.build("node1", num_gpus=2), GpuNode.build("node2", num_gpus=2)])
    sim = KubeKnotsSimulator(cluster, make_scheduler("peak-prediction"), tiny_workload())
    result = sim.run()
    assert len(result.completed()) == len(result.pods)
    used_gpus = {p.gpu_id for p in result.pods}
    assert len(used_gpus) >= 2


# ---------------------------------------------------------------------------
# Series recording: in-place row blocks vs the stacked-and-repeated rows
# ---------------------------------------------------------------------------


def _expand_oracle(rows, counts, devices):
    """The per-device series as the row-list recorder built them."""
    if not rows:
        return np.empty((devices, 0))
    return np.repeat(np.vstack(rows).T, np.asarray(counts), axis=1)


def _check_series(plan, devices, block_rows, seed=0):
    """Record ``plan`` (one entry per row: ``None`` for a live tick, a
    tick count for a span) and compare with the oracle, bit for bit."""
    rng = np.random.default_rng(seed)
    series = _DeviceSeries(devices, block_rows)
    assert series.block_rows == block_rows
    sm_rows, mem_rows, counts = [], [], []
    for ticks in plan:
        sm, mem = rng.random(devices), rng.random(devices)
        if ticks is None:
            series.record(sm, mem)
        else:
            series.record_span(sm, mem, ticks)
        sm_rows.append(sm.copy())
        mem_rows.append(mem.copy())
        counts.append(1 if ticks is None else ticks)
        # The recorder copied the row; the caller's array moves on.
        sm[:] = -1.0
        mem[:] = -1.0
    got_sm, got_mem = series.device_major()
    want_sm = _expand_oracle(sm_rows, counts, devices)
    want_mem = _expand_oracle(mem_rows, counts, devices)
    assert series.rows == len(plan)
    assert series.ticks == sum(counts)
    for got, want in ((got_sm, want_sm), (got_mem, want_mem)):
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
    return series, got_sm


_PLANS = {
    "span-first-row": [5, None, None, None, None, None],
    "span-last-row": [None, None, None, None, None, None, None, 3],
    "adjacent-spans": [None, 2, 3, 1, None, 4, 7, None],
    "spans-only": [2, 3, 4, 5, 6, 7, 8],
    "no-spans": [None] * 11,
    "live-stretch-crosses-blocks": [None, 4] + [None] * 9 + [2, None, None],
    "one-tick-span": [None, 1, None],
    "nothing-recorded": [],
}


class TestDeviceSeries:
    @pytest.mark.parametrize("plan", list(_PLANS.values()), ids=list(_PLANS))
    def test_matches_stacked_and_repeated_rows(self, plan):
        _check_series(plan, devices=5, block_rows=4)

    @settings(max_examples=80, deadline=None)
    @given(
        plan=st.lists(st.one_of(st.none(), st.none(), st.integers(1, 9)), max_size=40),
        devices=st.integers(1, 6),
        block_rows=st.integers(1, 7),
        seed=st.integers(0, 2**16),
    )
    def test_random_rows_and_spans_match(self, plan, devices, block_rows, seed):
        _check_series(plan, devices, block_rows, seed)

    def test_a_run_without_spans_gets_views_of_one_block(self):
        series, sm = _check_series([None] * 3, devices=4, block_rows=8)
        assert np.shares_memory(sm, series._sm_blocks[0])

    def test_block_size_follows_the_horizon_and_the_byte_budget(self):
        assert _DeviceSeries(512, 44_002).block_rows == 16_384
        assert _DeviceSeries(256, 9_002.5).block_rows == 9_002
        assert _DeviceSeries(8, float("inf")).block_rows == 1 << 20
        assert _DeviceSeries(0, 10).block_rows == 10
