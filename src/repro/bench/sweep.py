"""Benchmark for the parallel sweep fabric (``repro.sweep``).

One benchmark, three measurements over the same four-task cluster grid
on a throwaway store:

* ``ms_cold_serial`` — empty cache, ``jobs=1`` (every task simulated
  inline, the pre-fabric behaviour);
* ``ms_cold_parallel`` — empty cache, misses fanned across a process
  pool (two workers minimum so the pool path is always exercised, even
  on a single-core runner — where ``parallel_speedup`` will honestly
  sit at or below 1.0);
* ``ms_warm`` — same store again: every task is a content-addressed
  cache hit, so this measures pure store-read cost.  This is the gated
  field: it only regresses if the key/pickle path gets slower, and it
  is immune to how many cores the runner has.

The in-process memo is disabled throughout so the store and the pool —
not a dict lookup — are what's measured, and the three result sets are
cross-checked byte-identical before timing is reported.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from time import perf_counter

__all__ = ["SWEEP_BENCHMARKS", "bench_sweep_parallel"]

SWEEP_BENCHMARKS = ("sweep_parallel",)


def bench_sweep_parallel(quick: bool = False) -> dict:
    from repro.experiments.runner import ExperimentSettings
    from repro.sweep import MixTask
    from repro.sweep.fabric import clear_memo, last_stats, run_tasks
    from repro.sweep.store import ResultStore

    settings = ExperimentSettings(
        duration_s=2.0 if quick else 4.0, num_nodes=4, seed=5
    )
    tasks = [
        MixTask(mix, scheduler, settings)
        for mix in ("app-mix-1", "app-mix-2")
        for scheduler in ("cbp", "peak-prediction")
    ]
    host_cpus = os.cpu_count() or 1
    jobs = max(2, min(4, host_cpus))

    with tempfile.TemporaryDirectory(prefix="repro-bench-sweep-") as tmp:
        store = ResultStore(tmp)
        clear_memo()
        start = perf_counter()
        serial = run_tasks(tasks, jobs=1, store=store, memo=False)
        cold_serial_s = perf_counter() - start

        store.clear()
        start = perf_counter()
        parallel = run_tasks(tasks, jobs=jobs, store=store, memo=False)
        cold_parallel_s = perf_counter() - start
        stats = last_stats()
        if stats["misses"] != len(tasks):
            raise RuntimeError(
                f"sweep bench: cold pooled run expected {len(tasks)} cache misses, "
                f"observed {stats}"
            )

        # Warm reads are cheap, so repeat and keep the best: ms_warm is
        # the gated field and min-of-N filters out scheduler noise.
        warm_samples = []
        for _ in range(5):
            start = perf_counter()
            warm = run_tasks(tasks, jobs=jobs, store=store, memo=False)
            warm_samples.append(perf_counter() - start)
            stats = last_stats()
            if stats["hits"] != len(tasks) or stats["misses"]:
                raise RuntimeError(
                    f"sweep bench: warm run expected {len(tasks)} cache hits and no "
                    f"misses, observed {stats}"
                )
        warm_s = min(warm_samples)

    identical = all(
        pickle.dumps(a) == pickle.dumps(b) == pickle.dumps(c)
        for a, b, c in zip(serial, parallel, warm)
    )
    if not identical:  # pragma: no cover - the determinism tests pin this
        raise AssertionError("sweep results diverged across serial/pool/cache paths")

    return {
        "tasks": len(tasks),
        "jobs": jobs,
        "host_cpus": host_cpus,
        "ms_cold_serial": cold_serial_s * 1e3,
        "ms_cold_parallel": cold_parallel_s * 1e3,
        "ms_warm": warm_s * 1e3,
        "parallel_speedup": cold_serial_s / cold_parallel_s if cold_parallel_s > 0 else 0.0,
        "warm_speedup": cold_serial_s / warm_s if warm_s > 0 else 0.0,
        "cache_hits_warm": len(tasks),
        "cache_misses_cold": len(tasks),
        "bit_identical": identical,
        "quick": quick,
    }
