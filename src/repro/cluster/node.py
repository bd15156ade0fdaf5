"""Worker and head node models.

A :class:`GpuNode` is a Dell-R730-like worker: a CPU host plus one or
more GPUs.  The paper runs one InfluxDB per worker into which the Knots
monitor logs telemetry; here all workers' telemetry lives in one
cluster-wide ring (:mod:`repro.telemetry.matrix`).  The head node runs
the Kubernetes control plane and the Knots utilization aggregator and
has no GPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.cluster.gpu import GPU
from repro.cluster.power import GpuPowerModel

__all__ = ["GpuSpec", "GPU_MODELS", "HostSpec", "GpuNode", "HeadNode"]


@dataclass(frozen=True)
class GpuSpec:
    """Catalogue entry for a GPU model (the paper's cluster mixes these)."""

    model: str
    mem_mb: float
    tdp_watts: float
    idle_watts: float = 25.0

    def build(self, gpu_id: str) -> GPU:
        return GPU(
            gpu_id=gpu_id,
            mem_capacity_mb=self.mem_mb,
            power_model=GpuPowerModel(tdp_watts=self.tdp_watts, idle_watts=self.idle_watts),
        )


#: GPU models shown in the Kube-Knots design figure (Fig. 5).
GPU_MODELS: dict[str, GpuSpec] = {
    "P100": GpuSpec("P100", mem_mb=16_384, tdp_watts=250.0),
    "V100": GpuSpec("V100", mem_mb=32_768, tdp_watts=300.0),
    "M40": GpuSpec("M40", mem_mb=12_288, tdp_watts=250.0),
    "K80": GpuSpec("K80", mem_mb=12_288, tdp_watts=300.0),
}


@dataclass(frozen=True)
class HostSpec:
    """CPU host configuration (Table II)."""

    cpu_model: str = "Xeon E5-2670"
    cores: int = 24          # 12 cores x 2 threads
    clock_ghz: float = 2.3
    dram_gb: int = 192


class GpuNode:
    """A GPU worker node."""

    def __init__(
        self,
        node_id: str,
        gpus: Sequence[GPU],
        host: HostSpec | None = None,
    ) -> None:
        if not gpus:
            raise ValueError("a GpuNode needs at least one GPU")
        self.node_id = node_id
        self.gpus: list[GPU] = list(gpus)
        self.host = host or HostSpec()

    @classmethod
    def build(
        cls,
        node_id: str,
        gpu_model: str = "P100",
        num_gpus: int = 1,
        host: HostSpec | None = None,
    ) -> "GpuNode":
        spec = GPU_MODELS[gpu_model]
        gpus = [spec.build(f"{node_id}/gpu{i}") for i in range(num_gpus)]
        return cls(node_id, gpus, host)

    @property
    def total_gpu_mem_mb(self) -> float:
        return sum(g.mem_capacity_mb for g in self.gpus)

    @property
    def free_gpu_mem_mb(self) -> float:
        return sum(g.free_mem_mb for g in self.gpus)

    @property
    def num_containers(self) -> int:
        return sum(len(g.containers) for g in self.gpus)

    def is_active(self) -> bool:
        """A node is *active* when any of its GPUs is awake.

        The PP scheduler only considers active GPUs (Algorithm 1) and
        leaves drained ones in deep sleep for energy savings.
        """
        return any(not g.asleep for g in self.gpus)

    def find_gpu(self, gpu_id: str) -> GPU:
        for g in self.gpus:
            if g.gpu_id == gpu_id:
                return g
        raise KeyError(f"no GPU {gpu_id} on node {self.node_id}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GpuNode({self.node_id!r}, {len(self.gpus)} GPUs)"


@dataclass
class HeadNode:
    """The CPU-only control-plane node (runs Kubernetes + Knots aggregator)."""

    node_id: str = "head"
    host: HostSpec = field(default_factory=HostSpec)
