"""pyNVML-compatible sampling layer over the simulated GPUs.

The paper's Knots monitor calls pyNVML on every worker to read the five
device metrics.  This module provides the same surface against
:class:`repro.cluster.gpu.GPU` objects — a thin handle API
(`device_get_handle_by_index`, `device_get_utilization_rates`, ...)
plus the :class:`NvmlSampler` convenience that reads all five per
device.  Knots itself logs the cluster-wide
:class:`~repro.telemetry.matrix.MatrixTelemetry` ring, which applies
the same quantization to the ClusterState sample columns in one
vectorized step; :class:`NvmlSampler` is the per-object oracle it is
tested against, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.gpu import GPU, GpuSample

__all__ = [
    "NVMLError",
    "DeviceHandle",
    "NvmlContext",
    "NvmlSampler",
    "METRICS",
]

#: The five metrics Knots logs each heartbeat (Sec. IV-A).
METRICS = ("sm_util", "mem_util", "power_w", "tx_mbps", "rx_mbps")


class NVMLError(RuntimeError):
    """Mirror of pynvml.NVMLError for invalid handle use."""


@dataclass(frozen=True)
class UtilizationRates:
    """Analog of ``nvmlUtilization_t``: busy percentages."""

    gpu: float   # SM busy, percent
    memory: float  # memory-controller busy proxy, percent


@dataclass(frozen=True)
class MemoryInfo:
    """Analog of ``nvmlMemory_t`` (bytes)."""

    total: int
    used: int
    free: int


class DeviceHandle:
    """Opaque per-device handle, as in pyNVML."""

    __slots__ = ("_gpu",)

    def __init__(self, gpu: GPU) -> None:
        self._gpu = gpu


class NvmlContext:
    """A pyNVML-like session bound to one node's devices.

    >>> ctx = NvmlContext([gpu0, gpu1])            # doctest: +SKIP
    >>> h = ctx.device_get_handle_by_index(0)      # doctest: +SKIP
    >>> ctx.device_get_utilization_rates(h).gpu    # doctest: +SKIP
    """

    def __init__(self, gpus: Sequence[GPU]) -> None:
        self._gpus = list(gpus)
        self._initialized = True

    def shutdown(self) -> None:
        self._initialized = False

    def _check(self) -> None:
        if not self._initialized:
            raise NVMLError("NVML not initialized (shutdown() already called)")

    def device_get_count(self) -> int:
        self._check()
        return len(self._gpus)

    def device_get_handle_by_index(self, index: int) -> DeviceHandle:
        self._check()
        if not (0 <= index < len(self._gpus)):
            raise NVMLError(f"invalid device index {index}")
        return DeviceHandle(self._gpus[index])

    def device_get_utilization_rates(self, handle: DeviceHandle) -> UtilizationRates:
        self._check()
        s = handle._gpu.last_sample
        return UtilizationRates(gpu=s.sm_util * 100.0, memory=s.mem_util * 100.0)

    def device_get_memory_info(self, handle: DeviceHandle) -> MemoryInfo:
        self._check()
        gpu = handle._gpu
        used = int(gpu.last_sample.mem_used_mb * 1024 * 1024)
        total = int(gpu.mem_capacity_mb * 1024 * 1024)
        return MemoryInfo(total=total, used=used, free=total - used)

    def device_get_power_usage(self, handle: DeviceHandle) -> int:
        """Power draw in milliwatts (pyNVML convention)."""
        self._check()
        return int(handle._gpu.last_sample.power_w * 1000)

    def device_get_pcie_throughput(self, handle: DeviceHandle) -> tuple[float, float]:
        """(tx, rx) throughput in KB/s (pyNVML convention)."""
        self._check()
        s = handle._gpu.last_sample
        return s.tx_mbps * 1024.0, s.rx_mbps * 1024.0


class NvmlSampler:
    """Per-node NVML sampler: one call returns all five metrics per GPU."""

    def __init__(self, gpus: Sequence[GPU]) -> None:
        self._ctx = NvmlContext(gpus)
        self._gpus = list(gpus)

    def sample(self) -> dict[str, dict[str, float]]:
        """Read every device; returns ``gpu_id -> {metric: value}``.

        Utilizations are fractions in [0, 1]; power in watts; bandwidth
        in MB/s — i.e. the normalized units the TSDB stores.
        """
        out: dict[str, dict[str, float]] = {}
        for i, gpu in enumerate(self._gpus):
            handle = self._ctx.device_get_handle_by_index(i)
            rates = self._ctx.device_get_utilization_rates(handle)
            mem = self._ctx.device_get_memory_info(handle)
            power_mw = self._ctx.device_get_power_usage(handle)
            tx_kbps, rx_kbps = self._ctx.device_get_pcie_throughput(handle)
            out[gpu.gpu_id] = {
                "sm_util": rates.gpu / 100.0,
                "mem_util": mem.used / mem.total,
                "power_w": power_mw / 1000.0,
                "tx_mbps": tx_kbps / 1024.0,
                "rx_mbps": rx_kbps / 1024.0,
            }
        return out
