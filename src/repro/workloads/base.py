"""Workload trace model.

Every application in the reproduction — Rodinia batch kernels, Djinn &
Tonic inference queries, synthetic Alibaba containers — is described by
a :class:`WorkloadTrace`: a sequence of phases, each demanding a level
of the four GPU resources the paper's Knots monitor samples (SM
occupancy, device memory, PCIe transmit/receive bandwidth).

A trace stores its phases as read-only columns built once, not as one
object per phase: a Rodinia trace at scale has a hundred phases or
more, and a 1024-node cluster's workload has about a hundred thousand.
:class:`Phase` and :class:`ResourceDemand` stay the vocabulary at the
edges: a phase list is one way to build a trace,
:meth:`~WorkloadTrace.demand_at` returns a :class:`ResourceDemand`, and
:attr:`~WorkloadTrace.phases` rebuilds the phase list.

Demand is indexed by *progress* (milliseconds of work completed), not
wall-clock time: when the SM is contended the kubelet grants a pod only
a share of its demand and progress advances proportionally slower.
This is how co-location interference and slowdown emerge in the
simulator without any per-application special-casing.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = ["Phase", "QoSClass", "ResourceDemand", "WorkloadTrace"]


class QoSClass(Enum):
    """Scheduling class of a pod, mirroring the paper's workload split."""

    LATENCY_CRITICAL = "latency-critical"
    BATCH = "batch"


@dataclass(frozen=True)
class ResourceDemand:
    """Instantaneous resource demand of one container.

    Attributes
    ----------
    sm:
        Fraction of the GPU's streaming multiprocessors demanded, in
        [0, 1].  Time-shared under contention.
    mem_mb:
        Device memory resident, in MB.  Space-shared; the sum across
        co-located containers must fit in the device.
    tx_mbps / rx_mbps:
        PCIe transmit / receive bandwidth, MB/s.
    """

    sm: float
    mem_mb: float
    tx_mbps: float
    rx_mbps: float

    def scaled(self, factor: float) -> "ResourceDemand":
        """Uniformly scale all demands (used by load generators)."""
        return ResourceDemand(
            sm=self.sm * factor,
            mem_mb=self.mem_mb * factor,
            tx_mbps=self.tx_mbps * factor,
            rx_mbps=self.rx_mbps * factor,
        )


def _check_phase(duration_ms: float, sm: float, mem_mb: float) -> None:
    """The checks every phase passes, whichever way its trace is built.

    Each rejects NaN, and the duration and memory demand must be finite.
    """
    if not duration_ms > 0:
        raise ValueError(f"phase duration must be positive, got {duration_ms}")
    if duration_ms == math.inf:
        raise ValueError(f"phase duration must be finite, got {duration_ms}")
    if not (0.0 <= sm <= 1.0):
        raise ValueError(f"SM demand must be in [0, 1], got {sm}")
    if not mem_mb >= 0:
        raise ValueError("memory demand must be non-negative")
    if mem_mb == math.inf:
        raise ValueError("memory demand must be finite")


@dataclass(frozen=True)
class Phase:
    """One execution phase with constant resource demand."""

    duration_ms: float
    demand: ResourceDemand

    def __post_init__(self) -> None:
        _check_phase(self.duration_ms, self.demand.sm, self.demand.mem_mb)


class WorkloadTrace:
    """A piecewise-constant resource demand trace.

    Parameters
    ----------
    name:
        Application name (e.g. ``"lud"``, ``"face"``).
    phases:
        Ordered phase list.  Total work is the sum of phase durations.
    qos_class:
        Latency-critical or batch.
    requested_mem_mb:
        Memory the *user* requests for the container.  Applications
        overstate their needs (Observation 2); defaults to the peak of
        the trace if not given.  Must be finite and non-negative.

    The phases are stored as three read-only columns: the cumulative
    phase ends (an ``array('d')``, which ``bisect`` searches without a
    NumPy call per lookup), the durations, and a ``(phases, 4)`` demand
    matrix whose columns are ``sm, mem_mb, tx_mbps, rx_mbps``.  The
    constructor converts a phase list once; :meth:`from_columns` takes
    the columns themselves.  Both run the :class:`Phase` checks.
    """

    def __init__(
        self,
        name: str,
        phases: Sequence[Phase],
        qos_class: QoSClass = QoSClass.BATCH,
        requested_mem_mb: float | None = None,
    ) -> None:
        if not phases:
            raise ValueError("a workload needs at least one phase")
        self._set_columns(
            name,
            [p.duration_ms for p in phases],
            [(p.demand.sm, p.demand.mem_mb, p.demand.tx_mbps, p.demand.rx_mbps) for p in phases],
            qos_class,
            requested_mem_mb,
        )

    @classmethod
    def from_columns(
        cls,
        name: str,
        durations: Sequence[float] | np.ndarray,
        demands: Sequence[Sequence[float]] | np.ndarray,
        qos_class: QoSClass = QoSClass.BATCH,
        requested_mem_mb: float | None = None,
    ) -> "WorkloadTrace":
        """A trace from its phase columns: one duration per phase and a
        ``(phases, 4)`` matrix of ``sm, mem_mb, tx_mbps, rx_mbps`` rows.
        Both are copied; a bad phase raises the :class:`Phase` error."""
        trace = cls.__new__(cls)
        trace._set_columns(name, durations, demands, qos_class, requested_mem_mb)
        return trace

    def _set_columns(
        self,
        name: str,
        durations: Sequence[float] | np.ndarray,
        demands: Sequence[Sequence[float]] | np.ndarray,
        qos_class: QoSClass,
        requested_mem_mb: float | None,
    ) -> None:
        durations = np.array(durations, dtype=float)
        demands = np.array(demands, dtype=float)
        if durations.size == 0:
            raise ValueError("a workload needs at least one phase")
        if requested_mem_mb is not None and not 0.0 <= requested_mem_mb < math.inf:
            # As _check_phase for phase memory; NaN fails the comparison.
            raise ValueError(
                f"requested memory must be finite and non-negative, got {requested_mem_mb}"
            )
        if durations.ndim != 1 or demands.shape != (len(durations), 4):
            raise ValueError(
                f"need one duration and one (sm, mem_mb, tx_mbps, rx_mbps) row per phase, "
                f"got durations {durations.shape} and demands {demands.shape}"
            )
        # Reductions first; any failure, NaN or infinity falls to the
        # per-phase checks, which raise what building the first bad
        # Phase would.  With every duration positive, the total is
        # finite only if every duration is.
        ends = np.cumsum(durations)
        sm = demands[:, 0]
        mem = demands[:, 1]
        peak_mem = mem.max()
        if not (
            durations.min() > 0.0
            and ends[-1] < math.inf
            and sm.min() >= 0.0
            and sm.max() <= 1.0
            and mem.min() >= 0.0
            and peak_mem < math.inf
        ):
            for d, (s, m) in zip(durations.tolist(), demands[:, :2].tolist()):
                _check_phase(d, s, m)
        durations.flags.writeable = False
        demands.flags.writeable = False
        self.name = name
        self.qos_class = qos_class
        self._durations = durations
        self._demands = demands
        self._ends = array("d", ends.tobytes())
        # The ends again as a NumPy view, for demand_table's readers.
        cum = np.frombuffer(self._ends)
        cum.flags.writeable = False
        self._cum = cum
        # Phase index -> the ResourceDemand demand_at returns for it,
        # built on the first lookup of that phase.
        self._memo: dict[int, ResourceDemand] = {}
        # Schedulers ask for the peaks per pending pod per pass: the
        # memory peak is the check's, the SM peak is computed lazily.
        self._peak_mem = float(peak_mem)
        self._peak_sm: float | None = None
        self.requested_mem_mb = (
            float(requested_mem_mb) if requested_mem_mb is not None else self.peak_mem_mb()
        )

    def __reduce__(self):
        # Only the columns travel; the loaded trace is checked and
        # frozen like a new one, and rebuilds its memo and peaks.
        return (
            type(self).from_columns,
            (self.name, self._durations, self._demands, self.qos_class, self.requested_mem_mb),
        )

    # -- basic properties -------------------------------------------------

    @property
    def total_ms(self) -> float:
        """Total work in the trace, in milliseconds of uncontended execution."""
        return self._ends[-1]

    @property
    def phases(self) -> tuple[Phase, ...]:
        """The phase list, rebuilt from the columns on every read (for
        tests and tools; nothing on a hot path reads it).  Each phase's
        demand is the object :meth:`demand_at` returns inside it."""
        return tuple(
            Phase(d, self._phase_demand(i)) for i, d in enumerate(self._durations.tolist())
        )

    def demand_at(self, progress_ms: float) -> ResourceDemand:
        """Demand after ``progress_ms`` of work has been completed.

        A phase's :class:`ResourceDemand` is built on its first lookup
        and memoized, so a repeat lookup returns the same object
        (``GPU.arbitrate``'s memo matches on it).
        """
        if progress_ms < 0:
            raise ValueError("progress cannot be negative")
        ends = self._ends
        i = bisect.bisect_right(ends, progress_ms) if progress_ms < ends[-1] else len(ends) - 1
        demand = self._memo.get(i)
        if demand is None:
            demand = self._phase_demand(i)
        return demand

    def _phase_demand(self, i: int) -> ResourceDemand:
        demand = self._memo.get(i)
        if demand is None:
            demand = self._memo[i] = ResourceDemand(*self._demands[i].tolist())
        return demand

    def demand_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The trace's columns for batched progress lookups.

        Returns ``(cum_ends, rows)``: ``cum_ends`` is the float64
        cumulative phase end-times (``cum_ends[-1] == total_ms``) and
        ``rows`` is the ``(num_phases, 4)`` float64 matrix whose columns
        are ``sm, mem_mb, tx_mbps, rx_mbps`` — the exact values
        :meth:`demand_at` returns for a progress inside each phase.
        Both are the trace's own read-only arrays.
        """
        return self._cum, self._demands

    # -- summary statistics used by the schedulers ------------------------

    def peak_mem_mb(self) -> float:
        """Worst-case device memory across the trace."""
        return self._peak_mem

    def peak_sm(self) -> float:
        peak = self._peak_sm
        if peak is None:
            peak = self._peak_sm = float(self._demands[:, 0].max())
        return peak

    def mem_percentile(self, q: float) -> float:
        """Duration-weighted percentile of the memory series.

        CBP resizes containers to the 80th percentile of this
        distribution (``q=80``) rather than the peak.
        """
        return self._weighted_percentile(self._demands[:, 1], q)

    def sm_percentile(self, q: float) -> float:
        return self._weighted_percentile(self._demands[:, 0], q)

    def _weighted_percentile(self, values: np.ndarray, q: float) -> float:
        if not (0.0 <= q <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        order = np.argsort(values)
        vals, weights = values[order], self._durations[order]
        cdf = np.cumsum(weights) / weights.sum()
        idx = int(np.searchsorted(cdf, q / 100.0, side="left"))
        return float(vals[min(idx, len(vals) - 1)])

    def mean_mem_mb(self) -> float:
        """Duration-weighted mean memory footprint."""
        return float(np.average(self._demands[:, 1], weights=self._durations))

    # -- sampled series (for correlation analysis) ------------------------

    def sample_phases(self, step_ms: float = 100.0) -> np.ndarray:
        """The phase index of each sample at a fixed cadence: for sample
        ``i`` the row of ``demand_table()[1]`` that :meth:`demand_at`
        returns at ``i * step_ms``."""
        if step_ms <= 0:
            raise ValueError("step must be positive")
        times = np.arange(0.0, self.total_ms, step_ms)
        # demand_at's lookup, batched.  Searching the ends of every phase
        # but the last, a time at or past the end reads the final phase,
        # as demand_at does.
        return np.searchsorted(self._cum[:-1], times, side="right")

    def sample_series(self, step_ms: float = 100.0) -> dict[str, np.ndarray]:
        """Sample the trace at a fixed cadence.

        Returns a dict of equal-length arrays keyed ``sm``, ``mem_mb``,
        ``tx_mbps``, ``rx_mbps``.
        """
        idx = self.sample_phases(step_ms)
        rows = self._demands
        return {
            "sm": rows[idx, 0],
            "mem_mb": rows[idx, 1],
            "tx_mbps": rows[idx, 2],
            "rx_mbps": rows[idx, 3],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkloadTrace({self.name!r}, {len(self._ends)} phases, "
            f"{self.total_ms:.0f} ms, peak {self.peak_mem_mb():.0f} MB, "
            f"{self.qos_class.value})"
        )
