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
# Series recording: staged folds into mover columns vs the stacked rows
# ---------------------------------------------------------------------------


def _expand_oracle(rows, counts, devices):
    """The per-device series as the row-list recorder built them."""
    if not rows:
        return np.empty((devices, 0))
    return np.repeat(np.vstack(rows).T, np.asarray(counts), axis=1)


def _record(rows, devices, tile_rows):
    """Record ``rows`` (``(sm, mem, ticks)``, ``ticks`` ``None`` for a
    live tick) and return the recorder and both metrics' oracles."""
    series = _DeviceSeries(devices, tile_rows)
    assert series.tile_rows == tile_rows
    for sm, mem, ticks in rows:
        sm, mem = sm.copy(), mem.copy()
        if ticks is None:
            series.record(sm, mem)
        else:
            series.record_span(sm, mem, ticks)
        # The recorder copied the row; the caller's array moves on.
        sm[:] = -1.0
        mem[:] = -1.0
    counts = [1 if ticks is None else ticks for *_, ticks in rows]
    assert series.rows == len(rows)
    assert series.ticks == sum(counts)
    return series, tuple(
        _expand_oracle([row[m] for row in rows], counts, devices) for m in (0, 1)
    )


def _assert_per_device(got, want):
    """One read-only array per device, each the oracle's row bit for bit."""
    assert len(got) == len(want)
    for device, expected in zip(got, want):
        assert device.shape == expected.shape
        assert not device.flags.writeable
        assert device.tobytes() == expected.tobytes()


def _assert_movers_only(series, metric, got, recorded):
    """Exactly the devices whose ``recorded`` rows of ``metric`` vary (as
    bit patterns) hold a column of its store, and every other device's
    series is a zero-stride view; no series shares memory with a tile
    or a store.  Returns the movers."""
    movers = []
    if recorded:
        bits = np.vstack(recorded).view(np.int64)
        unchanged = (bits == bits[0]).all(axis=0)
        assert [s.strides == (0,) for s in got] == unchanged.tolist()
        movers = np.flatnonzero(~unchanged).tolist()
    assert sorted(metric.cols.tolist()) == movers
    buffers = (series._sm.tile, series._sm.store, series._mem.tile, series._mem.store)
    assert not any(np.may_share_memory(s, b) for s in got for b in buffers)
    return movers


def _check_series(plan, devices, tile_rows, seed=0, constant=()):
    """Record ``plan`` (one entry per row: ``None`` for a live tick, a
    tick count for a span) and compare with the oracle, bit for bit.
    The devices in ``constant`` hold one value in every row."""
    rng = np.random.default_rng(seed)
    fixed = list(constant)
    held = rng.random((2, devices))
    rows = []
    for ticks in plan:
        sm, mem = rng.random(devices), rng.random(devices)
        sm[fixed], mem[fixed] = held[0, fixed], held[1, fixed]
        rows.append((sm, mem, ticks))
    series, want = _record(rows, devices, tile_rows)
    got_sm, got_mem = series.device_major()
    _assert_per_device(got_sm, want[0])
    _assert_per_device(got_mem, want[1])
    for got, metric, m in ((got_sm, series._sm, 0), (got_mem, series._mem, 1)):
        movers = _assert_movers_only(series, metric, got, [row[m] for row in rows])
        assert not set(movers) & set(fixed)
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
        _check_series(plan, devices=5, tile_rows=4)

    @settings(max_examples=80, deadline=None)
    @given(
        plan=st.lists(st.one_of(st.none(), st.none(), st.integers(1, 9)), max_size=40),
        devices=st.integers(1, 6),
        tile_rows=st.integers(1, 7),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_random_rows_and_spans_match(self, plan, devices, tile_rows, seed, data):
        constant = data.draw(st.sets(st.integers(0, devices - 1)), label="constant")
        _check_series(plan, devices, tile_rows, seed, constant)

    @pytest.mark.parametrize("plan", ["span-first-row", "adjacent-spans", "spans-only"])
    def test_a_constant_device_is_a_zero_stride_view(self, plan):
        series, sm = _check_series(_PLANS[plan], devices=5, tile_rows=4, constant={0, 3})
        assert [s.strides for s in sm] == [(0,), (8,), (8,), (0,), (8,)]
        assert len(sm[0]) == series.ticks
        assert series._sm.cols.tolist() == [1, 2, 4]
        assert not np.shares_memory(sm[0], series._sm.tile)
        assert not np.shares_memory(sm[0], series._sm.store)

    def test_a_device_that_changes_only_on_a_span_row_is_expanded(self):
        ones, twos = np.ones(3), np.ones(3)
        twos[1] = 2.0
        rows = [(ones, ones, None), (ones, ones, None), (twos, ones, 4), (ones, ones, None)]
        series, want = _record(rows, devices=3, tile_rows=2)
        sm, mem = series.device_major()
        _assert_per_device(sm, want[0])
        _assert_per_device(mem, want[1])
        assert [s.strides for s in sm] == [(0,), (8,), (0,)]
        assert all(s.strides == (0,) for s in mem)
        assert sm[1].tolist() == [1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 1.0]
        # Columns are per metric: device 1 moves in sm_util only.
        assert series._sm.cols.tolist() == [1] and series._mem.cols.tolist() == []

    def test_negative_zero_after_zero_is_a_change(self):
        zero, neg = np.zeros(2), np.zeros(2)
        neg[0] = -0.0
        rows = [(zero, zero, 3), (neg, zero, None), (zero, zero, 2)]
        series, want = _record(rows, devices=2, tile_rows=8)
        sm, _ = series.device_major()
        _assert_per_device(sm, want[0])
        assert sm[0].strides == (8,) and sm[1].strides == (0,)
        assert np.signbit(sm[0]).tolist() == [False] * 3 + [True] + [False] * 2

    @pytest.mark.parametrize("plan", ["no-spans", "adjacent-spans"])
    def test_every_series_is_read_only(self, plan):
        series, _ = _check_series(_PLANS[plan], devices=3, tile_rows=4, constant={1})
        for metric in series.device_major():
            for device in metric:
                with pytest.raises(ValueError, match="read-only"):
                    device[0] = 1.0
        # The tiles and stores stay writeable behind the read-only series.
        for metric in (series._sm, series._mem):
            assert metric.tile.flags.writeable and metric.store.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(
        value=st.floats(allow_nan=False, allow_infinity=False),
        ticks=st.integers(1, 5_000),
    )
    def test_reductions_of_a_view_match_the_materialized_array(self, value, ticks):
        view = np.broadcast_to(np.float64(value), (ticks,))
        full = np.full(ticks, value)
        assert view.strides == (0,)
        assert view.tobytes() == full.tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            for reduce in (np.sum, np.mean, np.std, lambda a: np.percentile(a, 75.0)):
                assert np.float64(reduce(view)).tobytes() == np.float64(reduce(full)).tobytes()

    def test_a_run_without_spans_stores_only_the_movers(self):
        series, sm = _check_series(_PLANS["no-spans"], devices=4, tile_rows=4, constant={0, 2})
        assert [s.strides for s in sm] == [(0,), (8,), (0,), (8,)]
        assert series._sm.cols.tolist() == [1, 3]
        # The store holds only the movers' columns and the filled rows.
        assert series._sm.store.shape[0] == 2
        assert series._sm.store.shape[1] >= series.rows

    def test_a_late_mover_holds_its_first_value_in_every_earlier_row(self):
        still, moved = np.full(3, 0.5), np.full(3, 0.5)
        moved[2] = 0.75
        rows = [(still, still, None)] * 5 + [(moved, still, 3), (still, still, None)]
        series, want = _record(rows, devices=3, tile_rows=2)
        sm, _ = series.device_major()
        _assert_per_device(sm, want[0])
        assert series._sm.cols.tolist() == [2]
        assert sm[2].tolist() == [0.5] * 5 + [0.75] * 3 + [0.5]

    def test_the_store_grows_in_rows_and_columns(self):
        # Device d first moves on row 3 * d; the store doubles several
        # times in both dimensions and keeps every folded value.
        devices, n = 8, 40
        rows = []
        for r in range(n):
            sm = np.zeros(devices)
            sm[: r // 3 + 1] = r + 1.0
            rows.append((sm, np.zeros(devices), None))
        series, want = _record(rows, devices=devices, tile_rows=3)
        sm, mem = series.device_major()
        _assert_per_device(sm, want[0])
        assert series._sm.cols.tolist() == list(range(devices))
        assert series._sm.store.shape == (8, 64)
        assert series._mem.cols.tolist() == [] and series._mem.store.size == 0

    def test_tile_size_follows_the_byte_budget(self):
        assert _DeviceSeries(8_192).tile_rows == 16
        assert _DeviceSeries(1_024).tile_rows == 128
        assert _DeviceSeries(256).tile_rows == 128
        assert _DeviceSeries(200_000).tile_rows == 1
        assert _DeviceSeries(0).tile_rows == 128
        series = _DeviceSeries(8_192)
        assert series._sm.tile.nbytes == series._mem.tile.nbytes == 1 << 20


def _capture_rows(sim):
    """Keep a copy of every row ``sim`` hands to its recorder, and the
    tick count of each span row (by row index)."""
    rows, spans = [], {}
    series = sim._series
    record, record_span = series.record, series.record_span

    def captured(sm, mem):
        rows.append((sm.copy(), mem.copy()))
        record(sm, mem)

    def captured_span(sm, mem, ticks):
        spans[len(rows)] = ticks
        record_span(sm, mem, ticks)     # calls ``captured`` for its row

    series.record = captured
    series.record_span = captured_span
    return rows, spans


@pytest.mark.parametrize("case", ["dense-without-spans", "sparse-with-spans"])
def test_result_series_equal_the_recorded_rows(case):
    """A run's series are the rows handed to the recorder, expanded by
    the oracle, and exactly the devices whose rows vary hold columns."""
    if case == "dense-without-spans":
        workload = generate_appmix_workload("app-mix-1", duration_s=2.0, seed=3, load_factor=4.0)
        config = SimConfig(fast_forward=False)
    else:
        workload = generate_appmix_workload("app-mix-1", duration_s=0.6, seed=5)
        workload = [(at * 40.0, spec) for at, spec in workload]
        config = SimConfig(min_horizon_ms=4_000.0)
    sim = KubeKnotsSimulator(
        make_paper_cluster(num_nodes=4, gpus_per_node=4), make_scheduler("cbp"), workload, config
    )
    rows, spans = _capture_rows(sim)
    result = sim.run()
    assert (sim.fast_forwards > 0) == (case == "sparse-with-spans") == bool(spans)
    counts = [spans.get(r, 1) for r in range(len(rows))]
    gpu_ids = sim.state.gpu_ids
    recorder = sim._series
    for m, (by_gpu, metric) in enumerate(
        ((result.gpu_util_series, recorder._sm), (result.gpu_mem_series, recorder._mem))
    ):
        got = [by_gpu[g] for g in gpu_ids]
        recorded = [row[m] for row in rows]
        _assert_per_device(got, _expand_oracle(recorded, counts, len(gpu_ids)))
        movers = _assert_movers_only(recorder, metric, got, recorded)
        assert 0 < len(movers) < len(gpu_ids)
