"""The per-iteration Rodinia builder: the oracle for the column builder.

``make_rodinia_trace`` once built a Rodinia trace as a list of
:class:`~repro.workloads.base.Phase` objects, one per phase, drawing
the prelude's rx jitter inside the iteration loop.  The shipped builder
fills the phase columns with NumPy and draws all prelude jitter in one
call.  This module keeps the per-iteration builder unchanged, so tests
can build both from one generator state and require the same columns,
bit for bit, and the same generator state afterwards.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import Phase, QoSClass, ResourceDemand, WorkloadTrace
from repro.workloads.rodinia import RODINIA_PROFILES


def oracle_rodinia_phases(
    name: str,
    rng: np.random.Generator,
    scale: float = 1.0,
    requested_headroom: float = 1.25,
    mem_scale: float = 1.0,
) -> tuple[list[Phase], float]:
    """The per-iteration builder's phase list and requested memory."""
    p = RODINIA_PROFILES[name]

    jitter = lambda v, frac: float(v * rng.uniform(1.0 - frac, 1.0 + frac))  # noqa: E731
    total_ms = max(jitter(p.base_ms * scale, 0.15), 2.0)
    steady_sm = min(jitter(p.steady_sm, 0.10), 1.0)
    peak_sm = min(jitter(p.peak_sm, 0.05), 1.0)
    steady_mem = jitter(p.steady_mem_mb, 0.10) * mem_scale
    peak_mem = max(jitter(p.peak_mem_mb, 0.10) * mem_scale, steady_mem * 1.5)

    phases: list[Phase] = []
    load_ms = max(total_ms * 0.08, 0.5)
    phases.append(
        Phase(load_ms, ResourceDemand(sm=0.03, mem_mb=steady_mem * 0.5, tx_mbps=10.0, rx_mbps=jitter(p.load_rx_mbps, 0.10)))
    )
    body_ms = total_ms * 0.86
    iter_ms = max(jitter(p.iter_ms, 0.10), 1.0)
    n_iters = max(int(body_ms / iter_ms), 1)
    peak_ms_per_iter = max(total_ms * p.peak_fraction / n_iters, 0.2)
    prelude_ms = max(peak_ms_per_iter * 0.5, 0.1)
    steady_ms = max(iter_ms - peak_ms_per_iter - prelude_ms, 0.2)
    for _ in range(n_iters):
        phases.append(
            Phase(steady_ms, ResourceDemand(sm=steady_sm, mem_mb=steady_mem, tx_mbps=5.0, rx_mbps=8.0))
        )
        phases.append(
            Phase(
                prelude_ms,
                ResourceDemand(sm=steady_sm, mem_mb=steady_mem, tx_mbps=5.0, rx_mbps=jitter(p.load_rx_mbps * 0.6, 0.15)),
            )
        )
        phases.append(
            Phase(peak_ms_per_iter, ResourceDemand(sm=peak_sm, mem_mb=peak_mem, tx_mbps=20.0, rx_mbps=30.0))
        )
    store_ms = max(total_ms * 0.06, 0.3)
    phases.append(
        Phase(store_ms, ResourceDemand(sm=0.02, mem_mb=steady_mem * 0.4, tx_mbps=jitter(p.store_tx_mbps, 0.10), rx_mbps=5.0))
    )
    return phases, min(peak_mem * requested_headroom, 16_384.0)


def oracle_rodinia_trace(
    name: str,
    rng: np.random.Generator,
    scale: float = 1.0,
    requested_headroom: float = 1.25,
    mem_scale: float = 1.0,
) -> WorkloadTrace:
    """The per-iteration builder's trace, built from its phase list."""
    phases, requested = oracle_rodinia_phases(name, rng, scale, requested_headroom, mem_scale)
    return WorkloadTrace(name, phases, qos_class=QoSClass.BATCH, requested_mem_mb=requested)
