"""Simulator-loop benchmarks under pytest-benchmark.

``python -m repro bench --only sim_dense sim_sparse dlsim_loop`` is the
tracked suite (it emits ``BENCH_simloop.json``, the CI gate); these
tests put the same end-to-end loops under pytest-benchmark and double
as shape assertions on the harness output.
"""

from __future__ import annotations

from repro.bench.simloop import bench_dlsim_loop, bench_sim_dense, bench_sim_sparse
from repro.cluster.cluster import make_paper_cluster
from repro.core.schedulers import make_scheduler
from repro.sim.simulator import KubeKnotsSimulator, SimConfig
from repro.workloads.appmix import generate_appmix_workload


def _dense_sim() -> KubeKnotsSimulator:
    return KubeKnotsSimulator(
        make_paper_cluster(num_nodes=2),
        make_scheduler("cbp"),
        generate_appmix_workload("app-mix-1", duration_s=1.0, seed=3),
        SimConfig(min_horizon_ms=8_000.0),
    )


def test_event_loop_simulation_bench(benchmark):
    result = benchmark.pedantic(
        lambda: _dense_sim().run(), iterations=1, rounds=3
    )
    assert result.makespan_ms > 0.0
    assert len(result.pods) > 0


def test_sim_dense_harness_shape():
    report = bench_sim_dense(quick=True)
    assert report["events_fired"] > 0
    # Dense, but two quiescent gaps (every pass a no-op, every device
    # waiting on its auto-pstate deadline) are still skipped whole.
    assert report["fast_forwards"] == 2
    assert report["ticks_skipped"] == 13
    assert report["ms_run"] == report["after_ms"]
    assert report["before_ms"] > 0.0


def test_sim_sparse_harness_fast_forwards():
    report = bench_sim_sparse(quick=True)
    assert report["fast_forwards"] > 0
    assert report["ticks_skipped"] > 0
    # The idle fast-forward must actually win wall-clock on the sparse
    # workload; the committed baseline shows >3x, gate loosely here.
    assert report["speedup"] > 1.2


def test_dlsim_loop_harness_shape():
    report = bench_dlsim_loop(quick=True)
    assert report["events_fired"] > 0
    assert report["jobs"] > 0
    assert report["ms_run"] > 0.0
