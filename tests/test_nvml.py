"""Tests for the pyNVML-compatible sampling layer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.gpu import GPU, GpuSample
from repro.cluster.node import GPU_MODELS, GpuNode
from repro.telemetry.matrix import MatrixTelemetry
from repro.telemetry.nvml import METRICS, NVMLError, NvmlContext, NvmlSampler
from repro.workloads.base import ResourceDemand


@pytest.fixture
def busy_gpu() -> GPU:
    gpu = GPU("n/gpu0", mem_capacity_mb=16_384)
    gpu.attach("p", 2_000)
    gpu.arbitrate({"p": ResourceDemand(sm=0.5, mem_mb=1_638.4, tx_mbps=100.0, rx_mbps=200.0)})
    return gpu


class TestContext:
    def test_device_count(self, busy_gpu):
        ctx = NvmlContext([busy_gpu])
        assert ctx.device_get_count() == 1

    def test_utilization_rates_in_percent(self, busy_gpu):
        ctx = NvmlContext([busy_gpu])
        rates = ctx.device_get_utilization_rates(ctx.device_get_handle_by_index(0))
        assert rates.gpu == pytest.approx(50.0)
        assert rates.memory == pytest.approx(10.0)

    def test_memory_info_in_bytes(self, busy_gpu):
        ctx = NvmlContext([busy_gpu])
        info = ctx.device_get_memory_info(ctx.device_get_handle_by_index(0))
        assert info.total == 16_384 * 1024 * 1024
        assert info.used + info.free == info.total

    def test_power_in_milliwatts(self, busy_gpu):
        ctx = NvmlContext([busy_gpu])
        mw = ctx.device_get_power_usage(ctx.device_get_handle_by_index(0))
        assert mw == int(busy_gpu.last_sample.power_w * 1000)

    def test_invalid_index(self, busy_gpu):
        ctx = NvmlContext([busy_gpu])
        with pytest.raises(NVMLError):
            ctx.device_get_handle_by_index(5)

    def test_shutdown_invalidates(self, busy_gpu):
        ctx = NvmlContext([busy_gpu])
        ctx.shutdown()
        with pytest.raises(NVMLError):
            ctx.device_get_count()


class TestSampler:
    def test_sample_covers_all_metrics(self, busy_gpu):
        sampler = NvmlSampler([busy_gpu])
        out = sampler.sample()
        assert set(out) == {"n/gpu0"}
        assert set(out["n/gpu0"]) == set(METRICS)

    def test_sample_units_normalized(self, busy_gpu):
        out = NvmlSampler([busy_gpu]).sample()["n/gpu0"]
        assert out["sm_util"] == pytest.approx(0.5)
        assert out["mem_util"] == pytest.approx(0.1)
        assert out["tx_mbps"] == pytest.approx(100.0)
        assert out["rx_mbps"] == pytest.approx(200.0)
        assert out["power_w"] > 0

    def test_idle_device_samples_zero_utilization(self):
        gpu = GPU("n/gpu1")
        gpu.arbitrate({})
        out = NvmlSampler([gpu]).sample()["n/gpu1"]
        assert out["sm_util"] == 0.0
        assert out["mem_util"] == 0.0


#: One device sample: (sm_util, share of memory capacity used, power_w,
#: tx_mbps, rx_mbps).  Memory spans empty, exactly full and arbitrary
#: fractional-byte usage; power carries sub-milliwatt digits.
_SAMPLES = st.tuples(
    st.floats(0.0, 1.0),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    st.one_of(st.just(123.4567891), st.floats(0.0, 400.0)),
    st.floats(0.0, 12_000.0),
    st.floats(0.0, 12_000.0),
)


def _set_sample(gpu: GPU, drawn: tuple) -> None:
    sm, share, power, tx, rx = drawn
    gpu.last_sample = GpuSample(
        sm_util=sm, mem_used_mb=share * gpu.mem_capacity_mb, mem_util=share,
        power_w=power, tx_mbps=tx, rx_mbps=rx,
    )


def _assert_row_is_sampled(cluster: Cluster, ring: MatrixTelemetry, row: int) -> None:
    for node in cluster:
        for gpu_id, metrics in NvmlSampler(node.gpus).sample().items():
            col = cluster.state.index[gpu_id]
            for metric in METRICS:
                got = ring.data[metric][row, col]
                want = np.float64(metrics[metric])
                assert got.tobytes() == want.tobytes(), (gpu_id, metric, got, want)


class TestMatrixQuantization:
    """The telemetry ring's vectorized quantization is NVML's, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_SAMPLES, min_size=12, max_size=12),
        st.integers(0, 11),
        _SAMPLES,
    )
    def test_ring_rows_equal_the_sampler(self, samples, moved, moved_to):
        # Three devices of every model (three capacities): twelve, so
        # the second, one-device append takes the sparse requantization
        # path.
        cluster = Cluster([
            GpuNode.build(f"node{i}", gpu_model=model, num_gpus=3)
            for i, model in enumerate(GPU_MODELS)
        ])
        gpus = list(cluster.gpus())
        for gpu, drawn in zip(gpus, samples):
            _set_sample(gpu, drawn)
        ring = MatrixTelemetry(cluster.state, heartbeat_ms=10.0, window_ms=100.0)
        ring.append_from_state(0.0)
        _assert_row_is_sampled(cluster, ring, 0)

        _set_sample(gpus[moved], moved_to)
        ring.append_from_state(10.0)
        _assert_row_is_sampled(cluster, ring, 1)
