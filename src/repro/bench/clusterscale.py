"""Cluster-scale benchmarks: the scheduling pass from 32x8 to 1024x8.

A pass that sorted Algorithm 1's device list per pending pod would
cost O(devices log devices) per pod even when the workload (and
therefore the number of devices that can matter) stays fixed.  The
CBP/PP pass scores the SoA :class:`~repro.cluster.state.ClusterState`
columns through ``ArrayPassState`` instead: a handful of O(devices)
ndarray ops per pod.

Two benchmarks pin that scaling behaviour:

* ``cluster_scale_pass`` — ms per scheduling pass for the same fixed
  app-mix workload on clusters of 32, 128, 512 and 1024 nodes (x8 GPUs
  each).  The committed ``BENCH_clusterscale.json`` baseline gates the
  1024-node figure; the per-scale sweep documents the growth curve
  (sublinear in GPU count because the sparse resident walk and the
  admission gate only touch occupied devices).
* ``cluster_scale_dense`` — the ``sim_dense`` workload end to end at
  32x8 vs 1024x8.  The ratio is the headline acceptance number: a
  32x-larger cluster must cost ~2x, not 32x, wall-clock.

Like the rest of :mod:`repro.bench`, this module reads the host clock
and therefore lives outside the sim-critical packages (KK001).
"""

from __future__ import annotations

import time

from repro.cluster.cluster import make_paper_cluster
from repro.core.schedulers import make_scheduler
from repro.sim.simulator import KubeKnotsSimulator, SimConfig
from repro.workloads.appmix import generate_appmix_workload

__all__ = [
    "bench_cluster_scale_pass",
    "bench_cluster_scale_dense",
    "CLUSTERSCALE_BENCHMARKS",
    "SCALE_NODES",
]

#: Benchmark names this module contributes to the suite registry.
CLUSTERSCALE_BENCHMARKS = ("cluster_scale_pass", "cluster_scale_dense")

#: Node counts of the scale sweep (x8 GPUs each).
SCALE_NODES = (32, 128, 512, 1024)

GPUS_PER_NODE = 8


def _make_sim(num_nodes: int) -> KubeKnotsSimulator:
    """The ``sim_dense`` setup on an ``num_nodes`` x 8 cluster.

    The workload is fixed (independent of cluster size) so the sweep
    isolates how pass cost scales with *devices*, not with work.
    """
    return KubeKnotsSimulator(
        make_paper_cluster(num_nodes=num_nodes, gpus_per_node=GPUS_PER_NODE),
        make_scheduler("cbp"),
        generate_appmix_workload("app-mix-1", duration_s=4.0, seed=3),
        SimConfig(min_horizon_ms=20_000.0),
    )


def _timed_pass_run(num_nodes: int) -> dict:
    """One dense run with ``schedule()`` timed around each pass."""
    sim = _make_sim(num_nodes)
    scheduler = sim.orchestrator.scheduler
    inner = scheduler.schedule
    stats = {"calls": 0, "seconds": 0.0}

    def timed_schedule(ctx):
        t0 = time.perf_counter()
        actions = inner(ctx)
        stats["seconds"] += time.perf_counter() - t0
        stats["calls"] += 1
        return actions

    scheduler.schedule = timed_schedule  # type: ignore[method-assign]
    t0 = time.perf_counter()
    sim.run()
    e2e = time.perf_counter() - t0
    passes = max(stats["calls"], 1)
    return {
        "nodes": num_nodes,
        "gpus": num_nodes * GPUS_PER_NODE,
        "passes": stats["calls"],
        "ms_per_pass": stats["seconds"] / passes * 1e3,
        "ms_run": e2e * 1e3,
    }


def bench_cluster_scale_pass(quick: bool) -> dict:
    """Scheduling-pass cost across the node-count sweep.

    Runs at the same scales in quick and full mode — the committed
    full-mode baseline must be directly comparable to the CI quick run
    (only the repeat count differs).
    """
    repeats = 1 if quick else 2
    sweep = []
    for num_nodes in SCALE_NODES:
        best = None
        for _ in range(repeats):
            out = _timed_pass_run(num_nodes)
            if best is None or out["ms_per_pass"] < best["ms_per_pass"]:
                best = out
        sweep.append(best)
    top = sweep[-1]
    return {
        "scheduler": "cbp",
        "sweep": sweep,
        "nodes": top["nodes"],
        "passes": top["passes"],
        # The gated field: ms per pass at the largest scale.
        "ms_per_pass": top["ms_per_pass"],
    }


def bench_cluster_scale_dense(quick: bool) -> dict:
    """The dense run end to end at paper scale vs 1024 nodes."""
    repeats = 1 if quick else 2

    def best_run(num_nodes: int) -> float:
        best = float("inf")
        for _ in range(repeats):
            sim = _make_sim(num_nodes)
            t0 = time.perf_counter()
            sim.run()
            best = min(best, time.perf_counter() - t0)
        return best * 1e3

    ms_32 = best_run(32)
    ms_1024 = best_run(1024)
    return {
        "nodes_small": 32,
        "nodes_large": 1024,
        "ms_run_32": ms_32,
        # The gated field: the 1024x8 dense run wall-clock.
        "ms_run": ms_1024,
        "ratio_1024_vs_32": ms_1024 / ms_32,
    }
