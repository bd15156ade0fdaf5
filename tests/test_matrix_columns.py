"""The telemetry ring stores a column only for a device that moved.

:class:`~repro.telemetry.matrix.MatrixTelemetry` keeps one value for
every device whose sample has not moved since the ring's first
heartbeat, and a block column for every other device.  These tests
drive it beside the write-every-column ring it replaced
(:class:`tests.dense_ring.DenseRing`) through the same heartbeats and
require every window to be identical byte for byte, and pin the column
bookkeeping: when a column is handed out, what it holds, how the block
grows and when it is in device order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import make_paper_cluster
from repro.cluster.gpu import GpuSample
from repro.core.schedulers import make_scheduler
from repro.sim.simulator import KubeKnotsSimulator, SimConfig
from repro.telemetry.matrix import MatrixTelemetry
from repro.telemetry.nvml import METRICS
from repro.workloads.appmix import generate_appmix_workload
from tests.dense_ring import DenseRing, windows_of

#: Ring rows of every ring below (the 256-row floor).
_CAP = 256


def _twins(num_nodes: int):
    """The shipped ring and the oracle over two identical clusters."""
    twins = []
    for ring_type in (MatrixTelemetry, DenseRing):
        cluster = make_paper_cluster(num_nodes=num_nodes, gpus_per_node=8)
        ring = ring_type(cluster.state, heartbeat_ms=100.0, window_ms=1_000.0)
        assert ring.capacity == _CAP
        twins.append((list(cluster.gpus()), ring))
    return twins


def _move(twins, rng, devices) -> None:
    """Give ``devices`` the same random new samples in both clusters."""
    for d in devices:
        sm, share, power, tx, rx = rng.uniform(0.0, 1.0, 5)
        for gpus, _ in twins:
            gpu = gpus[int(d)]
            gpu.last_sample = GpuSample(
                sm_util=float(sm), mem_used_mb=float(share * gpu.mem_capacity_mb),
                mem_util=float(share), power_w=float(25.0 + 225.0 * power),
                tx_mbps=float(2000.0 * tx), rx_mbps=float(2000.0 * rx),
            )


def _append(twins, times) -> None:
    for _, ring in twins:
        ring.append_span(times)


def _assert_same(ring, oracle, rng) -> None:
    """Every logged value and a few random windows, byte for byte."""
    assert (ring.head, ring.count, ring.version, ring.last_t) == (
        oracle.head, oracle.count, oracle.version, oracle.last_t
    )
    assert ring.times[: ring.count].tobytes() == oracle.times[: oracle.count].tobytes()
    mine, want = windows_of(ring), oracle.logged()
    for metric in METRICS:
        assert mine[metric].tobytes() == want[metric].tobytes(), metric
    if not ring.count:
        return
    first, last = oracle.logged_times()[[0, -1]]
    for _ in range(3):
        since, until = np.sort(rng.uniform(first - 50.0, last + 50.0, 2))
        for col in range(len(ring.slot)):
            a = ring.query(col, METRICS, since, until)
            b = oracle.query(col, METRICS, since, until)
            for metric in METRICS:
                assert a[metric].times.tobytes() == b[metric].times.tobytes()
                assert a[metric].values.tobytes() == b[metric].values.tobytes()
                assert not a[metric].values.flags.writeable


# ---------------------------------------------------------------------------
# The twin test: every window equals the dense ring's
# ---------------------------------------------------------------------------

#: One heartbeat step: which devices move first, then how many rows
#: the append logs and how far apart.
_STEPS = st.tuples(
    st.sampled_from(["none", "none", "sparse", "sparse", "dense"]),
    st.one_of(st.integers(1, 3), st.integers(1, 2 * _CAP)),
    st.sampled_from([0.0, 100.0, 100.0, 37.5]),
)


class TestTwinRings:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        # 24 devices: the block is one column per device from the start;
        # 640: it starts 256 wide and grows.
        num_nodes=st.sampled_from([3, 80]),
        steps=st.lists(_STEPS, min_size=1, max_size=12),
        every_device=st.booleans(),
    )
    def test_every_window_equals_the_dense_ring(self, seed, num_nodes, steps, every_device):
        rng = np.random.default_rng(seed)
        twins = _twins(num_nodes)
        (_, ring), (_, oracle) = twins
        n = len(ring.slot)
        _move(twins, rng, range(n))
        t = 0.0
        for kind, rows, gap in steps:
            if kind == "sparse":
                _move(twins, rng, rng.choice(n, size=1 + n // 16, replace=False))
            elif kind == "dense":
                _move(twins, rng, rng.choice(n, size=n // 4, replace=False))
            times = (t + gap * np.arange(rows)).tolist()
            _append(twins, times)
            t = times[-1] + gap
        _assert_same(ring, oracle, rng)

        # A device that first moves after the ring has wrapped.
        if ring.count < _CAP:
            _append(twins, (t + 10.0 * np.arange(_CAP)).tolist())
            t += 10.0 * _CAP
        still = np.flatnonzero(ring.slot < 0)
        if len(still):
            late = int(still[len(still) // 2])
            before = ring.query(late, METRICS, -np.inf, np.inf)
            _move(twins, rng, [late])
            _append(twins, [t, t])
            t += 10.0
            assert ring.slot[late] >= 0
            after = ring.query(late, METRICS, -np.inf, np.inf)
            for metric in METRICS:
                # Every row but the two new ones still holds the old value.
                assert after[metric].values[:-2].tobytes() == before[metric].values[2:].tobytes()
            _assert_same(ring, oracle, rng)

        if every_device:
            _move(twins, rng, range(n))
            _append(twins, [t])
            assert ring.ncols == n
            _assert_same(ring, oracle, rng)


# ---------------------------------------------------------------------------
# Column bookkeeping
# ---------------------------------------------------------------------------


def _quantized(ring, col):
    """The held value of each metric of device ``col``, from its newest row."""
    return {m: w.values[-1] for m, w in ring.query(col, METRICS, -np.inf, np.inf).items()}


class TestColumns:
    def test_first_append_gives_no_device_a_column(self):
        twins = _twins(3)
        rng = np.random.default_rng(1)
        _move(twins, rng, range(24))
        (_, ring), _ = twins
        assert len(ring.state.sample_dirty) == 24
        _append(twins, [0.0])
        assert ring.ncols == 0
        assert (ring.slot == -1).all()
        assert ring.state.sample_dirty == set()

    def test_a_device_that_moves_gets_a_column_holding_its_old_value(self):
        twins = _twins(3)
        (_, ring), (_, oracle) = twins
        rng = np.random.default_rng(2)
        _move(twins, rng, range(24))
        _append(twins, [0.0, 100.0, 200.0])
        old = _quantized(ring, 7)
        _move(twins, rng, [7])
        _append(twins, [300.0])
        assert ring.ncols == 1 and ring.slot[7] >= 0
        assert (ring.slot >= 0).sum() == 1
        column = ring.block[: ring.count, :, ring.slot[7]]
        for k, metric in enumerate(METRICS):
            assert column[:3, k].tobytes() == np.full(3, old[metric]).tobytes()
            assert column[3, k] != old[metric]
        _assert_same(ring, oracle, rng)

    def test_the_window_of_a_device_without_a_column_is_read_only(self):
        twins = _twins(3)
        (_, ring), (_, oracle) = twins
        rng = np.random.default_rng(3)
        _move(twins, rng, range(24))
        _append(twins, (100.0 * np.arange(300)).tolist())     # wrapped
        _move(twins, rng, [0])
        _append(twins, [30_000.0])
        assert ring.slot[5] < 0
        # Contiguous in the ring (zero-stride view), then across the seam (a copy).
        for since, until in ((10_000.0, 20_000.0), (0.0, 30_000.0)):
            mine = ring.query(5, METRICS, since, until)
            want = oracle.query(5, METRICS, since, until)
            for metric in METRICS:
                values = mine[metric].values
                assert not values.flags.writeable
                with pytest.raises(ValueError):
                    values[0] = 1.0
                assert values.tobytes() == want[metric].values.tobytes()
                assert mine[metric].times.tobytes() == want[metric].times.tobytes()
        assert ring.query(5, METRICS, 10_000.0, 20_000.0)["power_w"].values.strides == (0,)

    def test_growth_copies_only_the_logged_rows(self):
        # 640 devices: the block starts 256 columns wide, and 300 movers
        # grow it to 512, still narrower than the cluster.
        twins = _twins(80)
        (_, ring), (_, oracle) = twins
        rng = np.random.default_rng(4)
        _move(twins, rng, range(640))
        _append(twins, (100.0 * np.arange(10)).tolist())
        _move(twins, rng, range(0, 600, 3)[:200])
        _append(twins, [1_000.0])
        assert ring.block.shape[2] == 256 and ring.ncols == 200
        # Mark the rows no heartbeat has written yet.
        rows = ring.count
        ring.block[rows:] = -7.0
        _move(twins, rng, range(1, 600, 3)[:100])
        _append(twins, [1_100.0])
        assert ring.block.shape[2] == 512 and ring.ncols == 300
        assert ring.cols is not None
        assert not (ring.block[rows + 1:] == -7.0).any()
        _assert_same(ring, oracle, rng)

    def test_rows_are_in_device_order_once_every_device_has_a_column(self):
        # 320 devices: the block starts 256 wide and grows to one
        # column per device.
        twins = _twins(40)
        (_, ring), (_, oracle) = twins
        rng = np.random.default_rng(5)
        _move(twins, rng, range(320))
        _append(twins, (100.0 * np.arange(5)).tolist())
        _move(twins, rng, range(0, 320, 2))
        _append(twins, [500.0])
        assert ring.cols is not None
        _move(twins, rng, range(320))
        _append(twins, (600.0 + 100.0 * np.arange(_CAP)).tolist())   # wraps
        assert ring.ncols == 320 and ring.cols is None
        assert (ring.slot == np.arange(320)).all()
        assert ring.block.tobytes() == oracle.block.tobytes()
        _assert_same(ring, oracle, rng)


# ---------------------------------------------------------------------------
# A simulation: columns for exactly the devices that moved
# ---------------------------------------------------------------------------


def test_sparse_cbp_run_stores_exactly_the_devices_that_moved(monkeypatch):
    """After a light CBP run on 64 devices, the devices holding a column
    are the ones whose sample mirror differed, at some heartbeat, from
    its value at the ring's first heartbeat."""
    first: list[np.ndarray] = []
    moved = np.zeros(0, dtype=bool)
    append_span = MatrixTelemetry.append_span

    def watched(ring, times):
        nonlocal moved
        s = ring.state
        sample = np.stack([s.sm_util, s.mem_used_mb, s.power_w, s.tx_mbps, s.rx_mbps])
        if not first:
            first.append(sample)
            moved = np.zeros(sample.shape[1], dtype=bool)
        elif len(times):
            moved |= (sample != first[0]).any(axis=0)
        append_span(ring, times)

    monkeypatch.setattr(MatrixTelemetry, "append_span", watched)
    workload = generate_appmix_workload("app-mix-1", duration_s=1.0, seed=5)
    sim = KubeKnotsSimulator(
        make_paper_cluster(num_nodes=8, gpus_per_node=8),
        make_scheduler("cbp"),
        workload,
        SimConfig(min_horizon_ms=3_000.0),
    )
    sim.run()
    ring = sim.orchestrator.knots.matrix
    assert 0 < moved.sum() < len(moved)
    assert np.array_equal(np.flatnonzero(ring.slot >= 0), np.flatnonzero(moved))
