"""Struct-of-arrays mirror of per-GPU cluster state.

The per-object :class:`~repro.cluster.gpu.GPU` /
:class:`~repro.cluster.node.GpuNode` model is the source of truth for
*semantics* (attach/detach/arbitrate validation, OOM victim selection,
power states), but walking thousands of Python objects per tick is the
scaling ceiling named in the ROADMAP.  :class:`ClusterState` keeps a
flat numpy mirror of everything the per-tick hot paths read:

* static per-device facts — memory capacity, the NVML byte-granular
  capacity, sleep/idle wattage, node membership, a precomputed
  lexicographic rank of every ``gpu_id`` (so vectorized candidate
  ordering can reproduce Python's string-sorted tie-breaks);
* mutable allocation state — reserved MB, container counts, the
  ``asleep``/``failed`` flags;
* the latest telemetry sample per device (the same values as
  ``gpu.last_sample``), written through from ``GPU.arbitrate``.

**Sync contract.**  Arrays are updated *write-through* by the ``GPU``
objects themselves: every mutating ``GPU`` method (attach, detach,
resize, fail, repair, sleep) and every externally-assigned flag
(``gpu.asleep``, ``gpu.failed``, ``gpu.last_sample`` are properties)
pushes into the bound state, so readers never re-derive per-object
state.  Allocation is re-summed from the containers dict on every
mutation — never incrementally adjusted — so ``capacity - alloc_mb[i]``
is bit-identical to ``gpu.free_mem_mb`` computed fresh.  Code that
mutates a ``ContainerAllocation.alloc_mb`` directly (some sanitizer
tests do, to corrupt state on purpose) bypasses the mirror.  Under the
sanitizer the array scheduling pass and the vectorized quantum stay
off, and the one allocation read that remains, Algorithm 1's sorted
device list (``Knots.all_gpus_by_free_memory``), compares every view it
builds with its GPU object, so such drift is reported as
``mirror_consistency`` instead of steering a decision.  The sample
columns feed the Knots telemetry ring and the simulator's energy and
utilization record in every run, sanitized or not; a sample write marks
its row for the ring only when one of the ring's inputs changed
(:meth:`ClusterState.sync_sample`).

Each mutation also bumps a per-node *epoch* counter, which is what lets
the orchestrator skip quiescent kubelets and schedulers reuse cached
candidate state without re-walking idle nodes.

**Pod-major companion.**  The vectorized execution quantum
(:mod:`repro.cluster.quantum`) keeps a second, pod-major set of arrays
(progress, demand row, device row, reservation) under the same
write-through discipline: the kubelet's dicts stay the source of truth
and every admit/start/release/resize pushes into the engine, so the
per-tick advance can run as a handful of ndarray ops.  The static
per-device columns it needs beyond the scheduling mirror — idle/TDP
wattage, PCIe link rate, the interference coefficient — live here so
every array consumer shares one gather.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle (gpu binds to us)
    from repro.cluster.gpu import GpuSample
    from repro.cluster.node import GpuNode

__all__ = ["ClusterState"]


class ClusterState:
    """Flat numpy arrays over every GPU of a cluster, node-major."""

    __slots__ = (
        "gpu_ids", "index", "id_rank",
        "node_ids", "node_index", "node_of", "node_slices",
        "mem_capacity_mb", "cap_total_bytes", "sleep_watts",
        "idle_watts", "tdp_watts", "pcie_mbps", "interference_alpha",
        "alloc_mb", "num_containers", "asleep", "failed", "cordoned",
        "sm_util", "mem_used_mb", "mem_util", "power_w",
        "tx_mbps", "rx_mbps", "sample_containers",
        "sample_dirty",
        "node_epoch",
    )

    def __init__(self, nodes: Sequence["GpuNode"]) -> None:
        gpus = [gpu for node in nodes for gpu in node.gpus]
        n = len(gpus)
        self.gpu_ids: list[str] = [g.gpu_id for g in gpus]
        self.index: dict[str, int] = {gid: i for i, gid in enumerate(self.gpu_ids)}
        # Rank of each device in sorted(gpu_ids): vectorized orderings
        # lexsort on this to reproduce Python's string-sorted tie-breaks.
        self.id_rank = np.empty(n, dtype=np.intp)
        self.id_rank[np.argsort(np.array(self.gpu_ids))] = np.arange(n)

        self.node_ids: list[str] = [node.node_id for node in nodes]
        self.node_index: dict[str, int] = {
            nid: i for i, nid in enumerate(self.node_ids)
        }
        self.node_of = np.empty(n, dtype=np.intp)
        self.node_slices: list[tuple[int, int]] = []
        start = 0
        for i, node in enumerate(nodes):
            stop = start + len(node.gpus)
            self.node_of[start:stop] = i
            self.node_slices.append((start, stop))
            start = stop

        self.mem_capacity_mb = np.array([g.mem_capacity_mb for g in gpus])
        # float64 image of NVML's integer byte capacity (< 2**53, exact).
        self.cap_total_bytes = np.array(
            [float(int(g.mem_capacity_mb * 1024 * 1024)) for g in gpus]
        )
        self.sleep_watts = np.array([g.power_model.sleep_watts for g in gpus])
        self.idle_watts = np.array([g.power_model.idle_watts for g in gpus])
        self.tdp_watts = np.array([g.power_model.tdp_watts for g in gpus])
        self.pcie_mbps = np.array([g.pcie_mbps for g in gpus])
        self.interference_alpha = np.array([g.interference_alpha for g in gpus])

        self.alloc_mb = np.zeros(n)
        self.num_containers = np.zeros(n, dtype=np.int64)
        self.asleep = np.zeros(n, dtype=bool)
        self.failed = np.zeros(n, dtype=bool)
        self.cordoned = np.zeros(n, dtype=bool)

        self.sm_util = np.zeros(n)
        self.mem_used_mb = np.zeros(n)
        self.mem_util = np.zeros(n)
        self.power_w = np.zeros(n)
        self.tx_mbps = np.zeros(n)
        self.rx_mbps = np.zeros(n)
        self.sample_containers = np.zeros(n, dtype=np.int64)
        #: Devices whose sample mirror changed since the telemetry ring
        #: last consumed it (consumed and cleared by every
        #: :meth:`~repro.telemetry.matrix.MatrixTelemetry.append_span`).
        #: "Changed" means one of the ring's inputs (``sm_util``,
        #: ``mem_used_mb``, ``power_w``, ``tx_mbps``, ``rx_mbps``) took
        #: another value: :meth:`sync_sample` skips a rewrite of equal
        #: values, so a steady busy device costs the ring nothing.
        self.sample_dirty: set[int] = set()

        self.node_epoch = np.zeros(len(nodes), dtype=np.int64)

        for i, gpu in enumerate(gpus):
            gpu.bind_state(self, i)
            self.asleep[i] = gpu.asleep
            self.failed[i] = gpu.failed
            self.cordoned[i] = gpu.cordoned
            self.sync_sample(i, gpu.last_sample)
            self.sync_alloc(i, gpu)

    def __len__(self) -> int:
        return len(self.gpu_ids)

    # -- write-through hooks (called from GPU) -----------------------------

    def sync_alloc(self, i: int, gpu) -> None:
        """Re-sum reservations after any allocation mutation on device ``i``.

        A full re-sum (not an incremental +=/-=) keeps
        ``mem_capacity_mb[i] - alloc_mb[i]`` bit-identical to the
        object path's ``free_mem_mb``, which recomputes the sum fresh.
        """
        containers = gpu.containers
        self.alloc_mb[i] = sum(c.alloc_mb for c in containers.values())
        self.num_containers[i] = len(containers)
        self.node_epoch[self.node_of[i]] += 1

    def sync_flags(self, i: int, asleep: bool, failed: bool) -> None:
        self.asleep[i] = asleep
        self.failed[i] = failed
        self.node_epoch[self.node_of[i]] += 1

    def sync_cordon(self, i: int, cordoned: bool) -> None:
        """Mirror the cordon flag (a scheduling-relevant transition)."""
        self.cordoned[i] = cordoned
        self.node_epoch[self.node_of[i]] += 1

    def sync_sample(self, i: int, sample: "GpuSample") -> None:
        """Mirror ``gpu.last_sample`` (no epoch bump: samples are outputs,
        not scheduling-relevant state transitions).

        Every column is written; the row joins ``sample_dirty`` only when
        one of the telemetry ring's five inputs differs from the mirror
        (``mem_util`` is derived from ``mem_used_mb``).  That is exact:
        no sample field is ever -0.0, since every sum starts at 0, and a
        NaN compares unequal, so it always marks the row.
        """
        dirty = self.sample_dirty
        if i not in dirty and (
            self.sm_util[i] != sample.sm_util
            or self.mem_used_mb[i] != sample.mem_used_mb
            or self.power_w[i] != sample.power_w
            or self.tx_mbps[i] != sample.tx_mbps
            or self.rx_mbps[i] != sample.rx_mbps
        ):
            dirty.add(i)
        self.sm_util[i] = sample.sm_util
        self.mem_used_mb[i] = sample.mem_used_mb
        self.mem_util[i] = sample.mem_util
        self.power_w[i] = sample.power_w
        self.tx_mbps[i] = sample.tx_mbps
        self.rx_mbps[i] = sample.rx_mbps
        self.sample_containers[i] = sample.num_containers

    # -- derived reads ------------------------------------------------------

    def free_mb(self) -> np.ndarray:
        """Unreserved memory per device (fresh array, safe to mutate)."""
        return self.mem_capacity_mb - self.alloc_mb
