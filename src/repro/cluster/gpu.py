"""Simulated GPU device.

Models the sharing semantics the paper builds on:

* **SM (compute) is time-shared, with interference.**  If co-located
  containers together demand more than the device's SMs, each receives
  a proportional share.  On top of that, every container pays an
  interference tax proportional to its co-runners' compute activity:
  GPU kernels are non-preemptive and GPU contexts are orders of
  magnitude larger than CPU contexts (caches are VIVT and flushed on
  every switch — paper Sec. I), so merely sharing a device with busy
  neighbours slows a container even when raw SM capacity would suffice.
  This is the noisy-neighbour effect that makes utilization-agnostic
  co-location dangerous for latency-critical queries.
* **Memory is space-shared.**  Allocations are reservations used for
  admission; *usage* is what the running phase actually touches.  If
  the summed usage exceeds physical capacity the device raises a
  capacity violation and the youngest-grown container is OOM-killed —
  the failure mode Res-Ag suffers and CBP/PP are designed to avoid.
* **PCIe bandwidth is shared** and saturates at the link rate.
* **Power** follows the linear model of :mod:`repro.cluster.power`,
  including a deep-sleep state (``p_state 12``) the orchestrator uses
  for drained devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.cluster.power import GpuPowerModel
from repro.workloads.base import ResourceDemand

__all__ = ["GPU", "GpuSample", "ContainerAllocation", "CapacityViolation"]

#: PCIe gen3 x16 practical link rate, MB/s (per direction).
PCIE_LINK_MBPS = 12_000.0


@dataclass(frozen=True)
class GpuSample:
    """One telemetry sample — the five metrics Knots logs (Sec. IV-A)."""

    sm_util: float          # [0, 1]
    mem_used_mb: float
    mem_util: float         # [0, 1]
    power_w: float
    tx_mbps: float
    rx_mbps: float
    num_containers: int = 0

    def as_dict(self) -> dict[str, float]:
        return {
            "sm_util": self.sm_util,
            "mem_used_mb": self.mem_used_mb,
            "mem_util": self.mem_util,
            "power_w": self.power_w,
            "tx_mbps": self.tx_mbps,
            "rx_mbps": self.rx_mbps,
        }


@dataclass
class ContainerAllocation:
    """A container's reservation on the device."""

    pod_uid: str
    alloc_mb: float
    exclusive: bool = False
    attach_seq: int = 0


@dataclass(frozen=True)
class CapacityViolation:
    """Raised (as a value) when summed usage exceeds physical memory."""

    victim_uid: str
    demanded_mb: float
    capacity_mb: float


class GPU:
    """A single simulated GPU device."""

    #: Default interference coefficient: progress of a container is
    #: divided by ``1 + alpha * (co-runners' SM demand)``.  Calibrated
    #: so that an inference query sharing a device with ~1.5 SMs worth
    #: of batch kernels roughly doubles its latency, consistent with
    #: the context-switch overheads motivating the paper.
    INTERFERENCE_ALPHA = 0.7

    def __init__(
        self,
        gpu_id: str,
        mem_capacity_mb: float = 16_384.0,
        power_model: GpuPowerModel | None = None,
        pcie_mbps: float = PCIE_LINK_MBPS,
        interference_alpha: float | None = None,
    ) -> None:
        self.gpu_id = gpu_id
        self.mem_capacity_mb = float(mem_capacity_mb)
        self.power_model = power_model or GpuPowerModel()
        self.pcie_mbps = float(pcie_mbps)
        self.interference_alpha = (
            self.INTERFERENCE_ALPHA if interference_alpha is None else float(interference_alpha)
        )
        self.containers: dict[str, ContainerAllocation] = {}
        #: Bound SoA mirror (:class:`repro.cluster.state.ClusterState`)
        #: and this device's row in it; ``None`` for standalone GPUs.
        self._state = None
        self._state_idx = -1
        self._asleep = False
        self._failed = False
        self._cordoned = False
        self._attach_counter = 0
        self._idle_memo: dict[bool, GpuSample] = {}
        self._last_sample: GpuSample = self.idle_sample()
        #: The last :meth:`arbitrate` call's ``(demand items, shares,
        #: sample)``, kept only when it had demands and no violation.
        self._arb_memo: tuple[tuple, dict[str, float], GpuSample] | None = None

    def bind_state(self, state, index: int) -> None:
        """Attach the cluster's SoA mirror; mutations write through."""
        self._state = state
        self._state_idx = index

    # -- mirrored attributes ------------------------------------------------
    #
    # ``asleep``/``failed``/``last_sample`` are assigned from outside
    # (orchestrator Wake, kubelet failed-device branch), so they are
    # properties whose setters push into the bound ClusterState.

    @property
    def asleep(self) -> bool:
        return self._asleep

    @asleep.setter
    def asleep(self, value: bool) -> None:
        self._asleep = bool(value)
        if self._state is not None:
            self._state.sync_flags(self._state_idx, self._asleep, self._failed)

    @property
    def failed(self) -> bool:
        return self._failed

    @failed.setter
    def failed(self, value: bool) -> None:
        self._failed = bool(value)
        if self._state is not None:
            self._state.sync_flags(self._state_idx, self._asleep, self._failed)

    @property
    def cordoned(self) -> bool:
        """Drained for a capacity transition: residents keep running,
        but the device accepts no new placements until uncordoned."""
        return self._cordoned

    @cordoned.setter
    def cordoned(self, value: bool) -> None:
        self._cordoned = bool(value)
        if self._state is not None:
            self._state.sync_cordon(self._state_idx, self._cordoned)

    @property
    def last_sample(self) -> GpuSample:
        return self._last_sample

    @last_sample.setter
    def last_sample(self, sample: GpuSample) -> None:
        self._last_sample = sample
        if self._state is not None:
            self._state.sync_sample(self._state_idx, sample)

    def _sync_alloc(self) -> None:
        if self._state is not None:
            self._state.sync_alloc(self._state_idx, self)

    # -- allocation bookkeeping -------------------------------------------

    @property
    def allocated_mem_mb(self) -> float:
        return sum(c.alloc_mb for c in self.containers.values())

    @property
    def free_mem_mb(self) -> float:
        """Unreserved memory (by allocation, not usage)."""
        return self.mem_capacity_mb - self.allocated_mem_mb

    @property
    def is_exclusive(self) -> bool:
        return any(c.exclusive for c in self.containers.values())

    def can_fit(self, alloc_mb: float, exclusive: bool = False) -> bool:
        """Admission check against reservations."""
        if self.failed or self.cordoned:
            return False
        if exclusive:
            return not self.containers
        if self.is_exclusive:
            return False
        return alloc_mb <= self.free_mem_mb + 1e-9

    def attach(self, pod_uid: str, alloc_mb: float, exclusive: bool = False) -> None:
        """Reserve ``alloc_mb`` for a container.  Wakes a sleeping device."""
        if pod_uid in self.containers:
            raise ValueError(f"pod {pod_uid} already attached to {self.gpu_id}")
        if alloc_mb < 0:
            raise ValueError(
                f"pod {pod_uid}: negative reservation ({alloc_mb:.0f} MB) on {self.gpu_id}"
            )
        if not self.can_fit(alloc_mb, exclusive):
            raise ValueError(
                f"pod {pod_uid} ({alloc_mb:.0f} MB) does not fit on {self.gpu_id} "
                f"(free {self.free_mem_mb:.0f} MB, exclusive={self.is_exclusive})"
            )
        self._attach_counter += 1
        self.containers[pod_uid] = ContainerAllocation(
            pod_uid=pod_uid,
            alloc_mb=float(alloc_mb),
            exclusive=exclusive,
            attach_seq=self._attach_counter,
        )
        self._sync_alloc()
        self.asleep = False

    def detach(self, pod_uid: str) -> None:
        if pod_uid not in self.containers:
            raise KeyError(f"pod {pod_uid} not on {self.gpu_id}")
        del self.containers[pod_uid]
        self._sync_alloc()

    def resize(self, pod_uid: str, new_alloc_mb: float) -> float:
        """Resize a container's reservation (harvesting).

        Returns the memory harvested (positive) or granted (negative).
        Growing beyond free capacity raises ``ValueError``.
        """
        alloc = self.containers.get(pod_uid)
        if alloc is None:
            raise KeyError(f"pod {pod_uid} not on {self.gpu_id}")
        if new_alloc_mb < 0:
            raise ValueError(
                f"cannot resize {pod_uid} to {new_alloc_mb:.0f} MB on {self.gpu_id}: "
                "reservations must be non-negative"
            )
        delta = alloc.alloc_mb - float(new_alloc_mb)
        if delta < 0 and -delta > self.free_mem_mb + 1e-9:
            raise ValueError(
                f"cannot grow {pod_uid} by {-delta:.0f} MB on {self.gpu_id}: "
                f"only {self.free_mem_mb:.0f} MB free"
            )
        alloc.alloc_mb = float(new_alloc_mb)
        self._sync_alloc()
        return delta

    def sleep(self) -> None:
        """Enter deep sleep (p_state 12).  Only legal when drained."""
        if self.containers:
            raise ValueError(f"{self.gpu_id} still hosts {len(self.containers)} containers")
        self.asleep = True

    # -- failure injection ---------------------------------------------------

    def fail(self) -> list[str]:
        """The device falls off the bus (ECC error, driver wedge, ...).

        Every resident container dies with it.  Returns the orphaned
        pod uids so the kubelet can report the evictions; the device
        refuses new work until :meth:`repair`.
        """
        victims = sorted(self.containers)
        self.containers.clear()
        self._sync_alloc()
        self.failed = True
        return victims

    def repair(self) -> None:
        """Bring a failed device back (empty, awake)."""
        self.failed = False
        self.asleep = False

    # -- arbitration / telemetry -------------------------------------------

    def arbitrate(
        self, demands: Mapping[str, ResourceDemand]
    ) -> tuple[dict[str, float], GpuSample, CapacityViolation | None]:
        """Arbitrate one tick of resource demands.

        Parameters
        ----------
        demands:
            ``pod_uid -> ResourceDemand`` for every container the kubelet
            is running on this device this tick.

        Returns
        -------
        (shares, sample, violation):
            ``shares[uid]`` is the fraction of its SM demand the pod was
            granted (progress rate); ``sample`` is the telemetry sample;
            ``violation`` is set if summed memory usage exceeded the
            device and names the victim (the container that attached
            last among those over their reservation, else youngest).

        A call whose ``(uid, demand)`` pairs, in order, equal the
        previous call's returns that call's shares dict and sample
        unchanged, provided they are non-empty and it reported no
        violation: the result then depends on nothing else.  A repeat
        still assigns ``last_sample``, so the bound mirror is rewritten
        even where something wrote its columns directly.  An empty
        demand set is never memoized (its power depends on ``asleep``)
        and neither is a call that reported a violation.
        """
        if not demands.keys() <= self.containers.keys():
            unknown = set(demands) - set(self.containers)
            raise KeyError(f"demands for pods not attached to {self.gpu_id}: {sorted(unknown)}")
        items = tuple(demands.items())
        memo = self._arb_memo
        if memo is not None and memo[0] == items:
            self.last_sample = memo[2]
            return memo[1], memo[2], None

        total_sm = sum(d.sm for d in demands.values())
        sm_scale = 1.0 if total_sm <= 1.0 else 1.0 / total_sm
        # Interference tax: co-runners' kernels serialize and thrash the
        # (VIVT, flushed-on-switch) caches; each container's progress is
        # divided by 1 + alpha * (everyone else's SM demand).
        shares = {}
        for uid, d in demands.items():
            others = total_sm - d.sm
            shares[uid] = sm_scale / (1.0 + self.interference_alpha * others)

        total_mem = 0.0
        for d in demands.values():
            total_mem += d.mem_mb

        violation: CapacityViolation | None = None
        if total_mem > self.mem_capacity_mb + 1e-9:
            victim = self._pick_victim(demands)
            violation = CapacityViolation(
                victim_uid=victim,
                demanded_mb=total_mem,
                capacity_mb=self.mem_capacity_mb,
            )

        total_tx = min(sum(d.tx_mbps for d in demands.values()), self.pcie_mbps)
        total_rx = min(sum(d.rx_mbps for d in demands.values()), self.pcie_mbps)
        sm_util = min(total_sm, 1.0)
        mem_used = min(total_mem, self.mem_capacity_mb)
        # Power follows *delivered* compute: cycles lost to contention
        # and context-switch stalls do not draw peak dynamic power.
        effective_sm = min(sum(d.sm * shares[uid] for uid, d in demands.items()), 1.0)
        sample = GpuSample(
            sm_util=sm_util,
            mem_used_mb=mem_used,
            mem_util=mem_used / self.mem_capacity_mb,
            power_w=self.power_model.power(effective_sm, asleep=self.asleep and not demands),
            tx_mbps=total_tx,
            rx_mbps=total_rx,
            num_containers=len(demands),
        )
        self.last_sample = sample
        self._arb_memo = (items, shares, sample) if items and violation is None else None
        return shares, sample, violation

    def resting(self) -> bool:
        """Asleep and healthy: the kubelet refreshes such a device's
        idle clock every tick it stays so."""
        return self._asleep and not self._failed

    def parked(self) -> bool:
        """Resting, empty and holding its asleep idle sample: stepping
        the device would change nothing but its idle clock."""
        return (
            self._asleep
            and not self._failed
            and not self.containers
            and self._last_sample is self._idle_memo.get(True)
        )

    def idle_sample(self) -> GpuSample:
        """Telemetry sample for a device with no running containers.

        Memoized per power state (the sample is frozen and depends only
        on ``asleep``), so idle devices can compare by identity and skip
        redundant mirror writes on wide clusters.
        """
        sample = self._idle_memo.get(self._asleep)
        if sample is None:
            sample = GpuSample(
                sm_util=0.0,
                mem_used_mb=0.0,
                mem_util=0.0,
                power_w=self.power_model.power(0.0, asleep=self._asleep),
                tx_mbps=0.0,
                rx_mbps=0.0,
                num_containers=0,
            )
            self._idle_memo[self._asleep] = sample
        return sample

    def _pick_victim(self, demands: Mapping[str, ResourceDemand]) -> str:
        """Pick the container to OOM-kill on a capacity violation.

        Containers bursting past their reservation are preferred victims;
        among those (or failing any), the most recently attached dies —
        mirroring the "relaunched tasks go to the back of the queue"
        behaviour the paper describes.
        """
        over = [
            uid
            for uid, d in demands.items()
            if d.mem_mb > self.containers[uid].alloc_mb + 1e-9
        ]
        pool = over if over else list(demands)
        return max(pool, key=lambda uid: self.containers[uid].attach_seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GPU({self.gpu_id!r}, {self.mem_capacity_mb:.0f} MB, "
            f"{len(self.containers)} containers, asleep={self.asleep})"
        )
