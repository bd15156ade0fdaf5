"""Sync contract of the struct-of-arrays :class:`ClusterState` mirror.

The per-object ``GPU``/``GpuNode`` model stays the source of truth;
every mutating path writes through into the flat numpy mirror the hot
paths read.  These tests pin the contract documented in
``cluster/state.py``: allocation is re-summed (bit-identical to
``free_mem_mb``), flags and samples mirror exactly, epochs bump on
scheduling-relevant transitions only, and the telemetry ring's sparse
heartbeat consumes the ``sample_dirty`` set without ever storing a
value the full requantization would not, and a span append leaves the
ring exactly as one append per time would.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import make_paper_cluster
from repro.cluster.gpu import GpuSample
from repro.telemetry.matrix import MatrixTelemetry
from repro.telemetry.nvml import METRICS
from tests.dense_ring import DenseRing, windows_of


@pytest.fixture
def cluster():
    return make_paper_cluster(num_nodes=3, gpus_per_node=4)


@pytest.fixture
def state(cluster):
    return cluster.state


def _gpus(cluster):
    return [gpu for node in cluster for gpu in node.gpus]


# ---------------------------------------------------------------------------
# Static layout
# ---------------------------------------------------------------------------


class TestLayout:
    def test_node_major_order_and_index(self, cluster, state):
        ids = [gpu.gpu_id for node in cluster for gpu in node.gpus]
        assert state.gpu_ids == ids
        assert all(state.index[gid] == i for i, gid in enumerate(ids))
        assert len(state) == len(ids)

    def test_node_slices_partition_the_devices(self, cluster, state):
        for (start, stop), node in zip(state.node_slices, cluster):
            assert state.gpu_ids[start:stop] == [g.gpu_id for g in node.gpus]
            assert (state.node_of[start:stop] == state.node_index[node.node_id]).all()

    def test_id_rank_reproduces_string_sort(self, state):
        ordered = sorted(state.gpu_ids)
        for i, gid in enumerate(state.gpu_ids):
            assert ordered[state.id_rank[i]] == gid

    def test_static_facts_match_objects(self, cluster, state):
        for i, gpu in enumerate(_gpus(cluster)):
            assert state.mem_capacity_mb[i] == gpu.mem_capacity_mb
            assert state.cap_total_bytes[i] == float(int(gpu.mem_capacity_mb * 1024 * 1024))
            assert state.sleep_watts[i] == gpu.power_model.sleep_watts


# ---------------------------------------------------------------------------
# Allocation write-through
# ---------------------------------------------------------------------------


class TestAllocSync:
    def test_attach_detach_resize_resum(self, cluster, state):
        gpu = _gpus(cluster)[2]
        i = state.index[gpu.gpu_id]

        gpu.attach("pod-a", 1000.0)
        gpu.attach("pod-b", 333.3)
        assert state.alloc_mb[i] == sum(c.alloc_mb for c in gpu.containers.values())
        assert state.num_containers[i] == 2

        gpu.resize("pod-a", 1500.0)
        assert state.alloc_mb[i] == sum(c.alloc_mb for c in gpu.containers.values())

        gpu.detach("pod-b")
        assert state.alloc_mb[i] == sum(c.alloc_mb for c in gpu.containers.values())
        assert state.num_containers[i] == 1

    def test_free_mb_bit_identical_to_object_path(self, cluster, state):
        # Awkward decimals: a resum and an incremental +=/-= diverge in
        # float; the mirror must match the object path's fresh sum.
        gpu = _gpus(cluster)[0]
        for k, mb in enumerate([0.1, 0.2, 1234.5678, 3.3333333]):
            gpu.attach(f"p{k}", mb)
        gpu.detach("p1")
        free = state.free_mb()
        for i, g in enumerate(_gpus(cluster)):
            assert free[i] == g.free_mem_mb

    def test_alloc_mutations_bump_owning_node_epoch_only(self, cluster, state):
        gpu = _gpus(cluster)[5]
        node_i = state.node_of[state.index[gpu.gpu_id]]
        before = state.node_epoch.copy()
        gpu.attach("pod-e", 64.0)
        delta = state.node_epoch - before
        # attach re-sums the node's allocation and clears its power
        # state, so the owning node moves (possibly more than once);
        # nobody else does.
        assert delta[node_i] >= 1
        assert delta.sum() == delta[node_i]


# ---------------------------------------------------------------------------
# Flags and samples
# ---------------------------------------------------------------------------


class TestFlagAndSampleSync:
    def test_power_and_fault_flags_write_through(self, cluster, state):
        gpu = _gpus(cluster)[1]
        i = state.index[gpu.gpu_id]
        before = state.node_epoch.copy()

        gpu.sleep()
        assert state.asleep[i]
        gpu.asleep = False
        assert not state.asleep[i]
        gpu.fail()
        assert state.failed[i]
        gpu.repair()
        assert not state.failed[i] and not state.asleep[i]
        # Each transition is scheduling-relevant: epochs moved.
        assert state.node_epoch[state.node_of[i]] > before[state.node_of[i]]

    def test_sample_mirrors_without_epoch_bump(self, cluster, state):
        gpu = _gpus(cluster)[3]
        i = state.index[gpu.gpu_id]
        before = state.node_epoch.copy()
        state.sample_dirty.clear()

        sample = GpuSample(sm_util=0.7, mem_used_mb=123.4, mem_util=0.01,
                           power_w=151.7, tx_mbps=12.0, rx_mbps=3.0,
                           num_containers=2)
        gpu.last_sample = sample

        assert state.sm_util[i] == sample.sm_util
        assert state.mem_used_mb[i] == sample.mem_used_mb
        assert state.mem_util[i] == sample.mem_util
        assert state.power_w[i] == sample.power_w
        assert state.tx_mbps[i] == sample.tx_mbps
        assert state.rx_mbps[i] == sample.rx_mbps
        assert state.sample_containers[i] == sample.num_containers
        assert state.sample_dirty == {i}
        # Samples are outputs, not state transitions: no epoch bump.
        assert (state.node_epoch == before).all()

    def test_equal_resync_leaves_the_row_clean(self, cluster, state):
        gpu = _gpus(cluster)[4]
        sample = GpuSample(sm_util=0.7, mem_used_mb=123.4, mem_util=0.01,
                           power_w=151.7, tx_mbps=12.0, rx_mbps=3.0,
                           num_containers=2)
        gpu.last_sample = sample
        state.sample_dirty.clear()
        gpu.last_sample = replace(sample)      # equal values, another object
        gpu.last_sample = sample
        assert state.sample_dirty == set()

    @pytest.mark.parametrize("field", ["sm_util", "mem_used_mb", "power_w", "tx_mbps", "rx_mbps"])
    def test_a_changed_ring_input_marks_the_row(self, cluster, state, field):
        gpu = _gpus(cluster)[4]
        i = state.index[gpu.gpu_id]
        sample = GpuSample(sm_util=0.7, mem_used_mb=123.4, mem_util=0.01,
                           power_w=151.7, tx_mbps=12.0, rx_mbps=3.0,
                           num_containers=2)
        gpu.last_sample = sample
        state.sample_dirty.clear()
        gpu.last_sample = replace(sample, **{field: getattr(sample, field) + 0.25})
        assert state.sample_dirty == {i}

    def test_a_nan_field_marks_the_row_on_every_sync(self, cluster, state):
        gpu = _gpus(cluster)[4]
        i = state.index[gpu.gpu_id]
        sample = GpuSample(sm_util=float("nan"), mem_used_mb=0.0, mem_util=0.0,
                           power_w=30.0, tx_mbps=0.0, rx_mbps=0.0)
        gpu.last_sample = sample
        state.sample_dirty.clear()
        gpu.last_sample = sample
        assert state.sample_dirty == {i}

    def test_idle_sample_is_memoized_per_power_state(self, cluster):
        gpu = _gpus(cluster)[0]
        awake = gpu.idle_sample()
        assert gpu.idle_sample() is awake
        gpu.sleep()
        asleep = gpu.idle_sample()
        assert asleep is not awake
        assert asleep.power_w < awake.power_w
        gpu.asleep = False
        assert gpu.idle_sample() is awake


# ---------------------------------------------------------------------------
# Matrix telemetry: sparse heartbeat vs full requantization
# ---------------------------------------------------------------------------


def _rand_samples(cluster, rng):
    for gpu in _gpus(cluster):
        gpu.last_sample = GpuSample(
            sm_util=float(rng.uniform(0, 1)),
            mem_used_mb=float(rng.uniform(0, gpu.mem_capacity_mb)),
            mem_util=float(rng.uniform(0, 1)),
            power_w=float(rng.uniform(25, 250)),
            tx_mbps=float(rng.uniform(0, 2000)),
            rx_mbps=float(rng.uniform(0, 2000)),
            num_containers=int(rng.integers(0, 4)),
        )


def _full_row(state):
    """The reference: full quantization of the current mirrors (what a
    fresh dense ring's first append computes for every device)."""
    ref = DenseRing(state, heartbeat_ms=100.0, window_ms=1_000.0)
    saved = set(state.sample_dirty)
    ref.append_from_state(ref.last_t if ref.count else 0.0)
    state.sample_dirty |= saved            # appends consume the dirty set
    return {m: ref.data[m][0].copy() for m in METRICS}


class TestSparseHeartbeat:
    def test_sparse_append_matches_full_requantization(self, cluster, state):
        rng = np.random.default_rng(7)
        ring = MatrixTelemetry(state, heartbeat_ms=100.0, window_ms=1_000.0)

        _rand_samples(cluster, rng)
        ring.append_from_state(0.0)        # first append: full path
        assert state.sample_dirty == set()

        # Move exactly one device (12 GPUs: 1 * 8 < 12 takes the sparse path).
        gpu = _gpus(cluster)[5]
        gpu.last_sample = GpuSample(sm_util=0.42, mem_used_mb=777.7,
                                    mem_util=0.05, power_w=99.9,
                                    tx_mbps=1.0, rx_mbps=2.0, num_containers=1)
        assert len(state.sample_dirty) * 8 < len(state)
        want = _full_row(state)
        ring.append_from_state(100.0)

        got = windows_of(ring)
        for metric in METRICS:
            np.testing.assert_array_equal(got[metric][1], want[metric])

    def test_steady_resyncs_match_full_requantization(self, cluster, state):
        """Busy devices re-sync equal samples every tick: their rows stay
        clean, and every stored row still equals a full requantization,
        including after a device moves and moves back before a heartbeat."""
        rng = np.random.default_rng(5)
        ring = MatrixTelemetry(state, heartbeat_ms=100.0, window_ms=1_000.0)
        gpus = _gpus(cluster)
        _rand_samples(cluster, rng)
        for row in range(12):
            if row % 4 == 2:
                gpu = gpus[int(rng.integers(len(gpus)))]
                gpu.last_sample = replace(gpu.last_sample, power_w=float(rng.uniform(25, 250)))
            if row % 4 == 3:
                gpu = gpus[int(rng.integers(len(gpus)))]
                kept = gpu.last_sample
                gpu.last_sample = replace(kept, sm_util=float(rng.uniform(0, 1)))
                gpu.last_sample = kept
            for gpu in gpus:
                gpu.last_sample = replace(gpu.last_sample)
            if row and row % 4 in (0, 1):
                assert state.sample_dirty == set()
            want = _full_row(state)
            ring.append_from_state(100.0 * row)
            got = windows_of(ring)
            for metric in METRICS:
                np.testing.assert_array_equal(got[metric][row], want[metric])

    def test_quiescent_heartbeat_repeats_the_row_exactly(self, cluster, state):
        rng = np.random.default_rng(11)
        ring = MatrixTelemetry(state, heartbeat_ms=100.0, window_ms=1_000.0)
        _rand_samples(cluster, rng)
        ring.append_from_state(0.0)
        ring.append_from_state(100.0)      # nothing dirty: pure row copy
        got = windows_of(ring)
        for metric in METRICS:
            np.testing.assert_array_equal(got[metric][1], got[metric][0])
        assert ring.version == 2

    def test_every_append_consumes_the_dirty_set(self, cluster, state):
        ring = MatrixTelemetry(state, heartbeat_ms=100.0, window_ms=1_000.0)
        _gpus(cluster)[0].last_sample = _gpus(cluster)[0].idle_sample()
        state.sample_dirty.add(0)
        ring.append_from_state(0.0)
        assert state.sample_dirty == set()


# ---------------------------------------------------------------------------
# Matrix telemetry: a span append vs one append per time
# ---------------------------------------------------------------------------

#: Ring rows of every ring below (the 256-row floor).
_CAP = 256


def _twin_rings():
    """Two rings over two identical 12-device clusters."""
    twins = []
    for _ in range(2):
        cluster = make_paper_cluster(num_nodes=3, gpus_per_node=4)
        ring = MatrixTelemetry(cluster.state, heartbeat_ms=100.0, window_ms=1_000.0)
        assert ring.capacity == _CAP
        twins.append((cluster, ring))
    return twins


def _move(twins, rng, devices):
    """Give ``devices`` random new samples in both clusters."""
    draws = [
        dict(sm_util=rng.uniform(0, 1), mem_share=rng.uniform(0, 1),
             power_w=rng.uniform(25, 250), tx_mbps=rng.uniform(0, 2000),
             rx_mbps=rng.uniform(0, 2000))
        for _ in devices
    ]
    for cluster, _ in twins:
        gpus = _gpus(cluster)
        for i, d in zip(devices, draws):
            gpu = gpus[i]
            gpu.last_sample = GpuSample(
                sm_util=float(d["sm_util"]),
                mem_used_mb=float(d["mem_share"] * gpu.mem_capacity_mb),
                mem_util=float(d["mem_share"]),
                power_w=float(d["power_w"]),
                tx_mbps=float(d["tx_mbps"]),
                rx_mbps=float(d["rx_mbps"]),
            )


def _ring_image(ring):
    """Everything an append can change, over the rows written so far:
    every logged window, read through ``query``, and which devices
    hold a column."""
    rows = ring.count
    return (
        ring.times[:rows].tobytes(),
        {m: w.tobytes() for m, w in windows_of(ring).items()},
        ring.slot.tobytes(),
        ring.head, ring.count, ring.version, ring.last_t,
    )


class TestSpanAppend:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        # empty, partly filled, exactly full and wrapped rings
        prefill=st.one_of(
            st.just(0), st.integers(1, _CAP - 1), st.just(_CAP), st.integers(_CAP + 1, 2 * _CAP + 9)
        ),
        span=st.one_of(st.integers(1, 4), st.integers(1, 3 * _CAP)),
        # devices moved just before the span: none, the sparse path, the full path
        moved=st.sampled_from([0, 1, 12]),
    )
    def test_span_equals_one_append_per_time(self, seed, prefill, span, moved):
        rng = np.random.default_rng(seed)
        twins = _twin_rings()
        _move(twins, rng, range(12))
        t = 0.0
        for i in range(prefill):
            if i % 7 == 3:
                _move(twins, rng, [int(rng.integers(12))])
            for _, ring in twins:
                ring.append_from_state(t)
            t += float(rng.choice([0.0, 100.0, 100.0, 37.5]))
        _move(twins, rng, rng.permutation(12)[:moved].tolist())
        if prefill:
            assert len(twins[0][0].state.sample_dirty) == moved
        # Non-decreasing times, duplicates included, starting at last_t.
        steps = rng.choice([0.0, 100.0, 100.0, 0.25], size=span - 1)
        times = (t + np.concatenate([[0.0], np.cumsum(steps)])).tolist()

        (_, spanned), (loop_cluster, looped) = twins
        spanned.append_span(times)
        for now in times:
            looped.append_from_state(now)

        assert _ring_image(spanned) == _ring_image(looped)
        assert twins[0][0].state.sample_dirty == set() == loop_cluster.state.sample_dirty
        until = times[-1]
        for since in (until - 1_000.0, times[0], until, float(rng.uniform(0.0, until + 1.0))):
            for col in (0, 5, 11):
                a = spanned.query(col, METRICS, since, until)
                b = looped.query(col, METRICS, since, until)
                for metric in METRICS:
                    assert a[metric].times.tobytes() == b[metric].times.tobytes()
                    assert a[metric].values.tobytes() == b[metric].values.tobytes()

    @pytest.mark.parametrize(
        "times",
        [[50.0, 60.0], [99.0], [100.0, 90.0], [100.0, 110.0, 105.0, 120.0]],
        ids=["starts-before-last", "one-row-before-last", "decreasing", "dips"],
    )
    def test_bad_span_raises_and_changes_nothing(self, cluster, state, times):
        ring = MatrixTelemetry(state, heartbeat_ms=100.0, window_ms=1_000.0)
        _rand_samples(cluster, np.random.default_rng(3))
        ring.append_from_state(0.0)
        ring.append_from_state(100.0)
        _gpus(cluster)[2].last_sample = _gpus(cluster)[2].idle_sample()
        before = _ring_image(ring)
        with pytest.raises(ValueError, match="non-monotonic"):
            ring.append_span(times)
        assert _ring_image(ring) == before
        assert state.sample_dirty == {2}

    def test_empty_span_changes_nothing(self, cluster, state):
        ring = MatrixTelemetry(state, heartbeat_ms=100.0, window_ms=1_000.0)
        ring.append_from_state(0.0)
        state.sample_dirty.add(1)
        before = _ring_image(ring)
        ring.append_span([])
        assert _ring_image(ring) == before
        assert state.sample_dirty == {1}
