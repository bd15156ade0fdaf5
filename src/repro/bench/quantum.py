"""Execution-quantum benchmark: dense kubelet ticks, object vs array.

PR 8's cluster-scale suite pinned the *scheduling* pass; this suite
pins the *execution* quantum — the per-tick advance of every running
pod (:mod:`repro.cluster.quantum`).  The workload here scales with the
cluster (constant per-node density), so every scale runs genuinely
dense ticks: thousands of running pods per tick at 1024x8, which is
where the batched searchsorted/bincount advance pays and the per-pod
object loop does not.

One benchmark, ``quantum_tick``: for each node count the same run is
timed around ``step_kubelets`` twice — once with the vectorized
quantum engaged and once with every tick routed through the object
path (the unmodified ``Kubelet.step`` loop).  The gated field is the
vectorized ms-per-tick at the largest scale; the object-path figure
and the speedup ratio ride along per scale for the docs table.  Both variants
produce bit-identical results (pinned by
``tests/test_quantum_equivalence.py``), so the comparison is pure
substrate cost.

Like the rest of :mod:`repro.bench`, this module reads the host clock
and therefore lives outside the sim-critical packages (KK001).
"""

from __future__ import annotations

import time

from repro.cluster.cluster import make_paper_cluster
from repro.core.schedulers import make_scheduler
from repro.sim.simulator import KubeKnotsSimulator, SimConfig
from repro.workloads.appmix import generate_appmix_workload

__all__ = ["bench_quantum_tick", "QUANTUM_BENCHMARKS", "QUANTUM_NODES"]

#: Benchmark names this module contributes to the suite registry.
QUANTUM_BENCHMARKS = ("quantum_tick",)

#: Node counts of the dense-tick sweep (x8 GPUs each).
QUANTUM_NODES = (32, 256, 1024)

GPUS_PER_NODE = 8

#: Workload load factor per node of scale — keeps per-node density
#: constant across the sweep (load 8.0 at 32 nodes, 256.0 at 1024), so
#: the tick stays dense at every scale instead of diluting.
LOAD_PER_NODE = 0.25


def _make_sim(num_nodes: int, engine: bool) -> KubeKnotsSimulator:
    """A density-preserving dense run on an ``num_nodes`` x 8 cluster.

    ``engine=False`` raises the quantum's ``min_batch`` out of reach,
    so every tick takes the per-node ``Kubelet.step`` route — the
    comparison baseline.
    """
    sim = KubeKnotsSimulator(
        make_paper_cluster(num_nodes=num_nodes, gpus_per_node=GPUS_PER_NODE),
        make_scheduler("cbp"),
        generate_appmix_workload(
            "app-mix-1", duration_s=4.0, seed=3,
            load_factor=num_nodes * LOAD_PER_NODE,
        ),
        SimConfig(min_horizon_ms=20_000.0),
    )
    if not engine:
        sim.orchestrator.quantum.min_batch = 1 << 30
    return sim


def _timed_tick_run(num_nodes: int, engine: bool) -> dict:
    """One dense run with ``step_kubelets`` timed around each tick."""
    sim = _make_sim(num_nodes, engine)
    orch = sim.orchestrator
    inner = orch.step_kubelets
    stats = {"ticks": 0, "seconds": 0.0}

    def timed_step(now, dt_ms):
        t0 = time.perf_counter()
        inner(now, dt_ms)
        stats["seconds"] += time.perf_counter() - t0
        stats["ticks"] += 1

    orch.step_kubelets = timed_step  # type: ignore[method-assign]
    t0 = time.perf_counter()
    sim.run()
    e2e = time.perf_counter() - t0
    ticks = max(stats["ticks"], 1)
    quantum = sim.orchestrator.quantum
    return {
        "nodes": num_nodes,
        "gpus": num_nodes * GPUS_PER_NODE,
        "ticks": stats["ticks"],
        "ms_per_tick": stats["seconds"] / ticks * 1e3,
        "ms_run": e2e * 1e3,
        "fast_ticks": quantum.fast_ticks,
        "fallbacks": quantum.fallbacks,
    }


def bench_quantum_tick(quick: bool) -> dict:
    """Dense kubelet-tick cost across the node-count sweep, both paths.

    Runs at the same scales in quick and full mode — the committed
    full-mode baseline must be directly comparable to the CI quick run
    (only the repeat count differs).
    """
    repeats = 1 if quick else 2

    def best(num_nodes: int, engine: bool) -> dict:
        out = None
        for _ in range(repeats):
            run = _timed_tick_run(num_nodes, engine)
            if out is None or run["ms_per_tick"] < out["ms_per_tick"]:
                out = run
        return out

    sweep = []
    for num_nodes in QUANTUM_NODES:
        vec = best(num_nodes, engine=True)
        obj = best(num_nodes, engine=False)
        sweep.append({
            "nodes": num_nodes,
            "gpus": vec["gpus"],
            "ticks": vec["ticks"],
            "ms_per_tick_vec": vec["ms_per_tick"],
            "ms_per_tick_obj": obj["ms_per_tick"],
            "speedup": obj["ms_per_tick"] / vec["ms_per_tick"],
            "fast_ticks": vec["fast_ticks"],
            "fallbacks": vec["fallbacks"],
        })
    top = sweep[-1]
    return {
        "scheduler": "cbp",
        "sweep": sweep,
        "nodes": top["nodes"],
        "ticks": top["ticks"],
        "speedup_1024": top["speedup"],
        # The gated field: vectorized ms per tick at the largest scale.
        "ms_per_tick": top["ms_per_tick_vec"],
    }
