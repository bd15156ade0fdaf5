"""Serving-loop benchmark: sustained QPS vs decision latency.

``serve_loop`` drives :class:`~repro.serve.server.KnotsService` at the
paper's 32-node x 8-GPU scale with a 500 QPS app-mix arrival stream —
the serving acceptance configuration — but unpaced and with arrivals
injected as sim-time events (:meth:`KnotsService.inject_workload`)
instead of the wall-clock load-generator thread.  That keeps the run
deterministic: the backlog the scheduler sees per pass, the number of
passes, and therefore the *sim-time* decision-latency distribution are
bit-stable for a fixed seed, while the wall-clock cost per submission
(``ms_per_submission``, the gated field) measures the full serving
path — admission queue, API-server submission, kubelet stepping,
heartbeats and scheduling passes.

Per-submission cost rather than total wall is gated so the number is
insensitive to the benchmark's window length; ``sustained_qps`` (how
fast the unpaced loop chews through the stream) and the deterministic
sim-time p50/p99 are recorded alongside for information.

Runs at the same scale in quick and full mode — this is a CI
regression gate, so the committed full-mode baseline
(``BENCH_serve.json``) must be directly comparable to the CI quick run.

Like the rest of :mod:`repro.bench`, this module reads the host clock
and therefore lives outside the sim-critical packages (KK001).
"""

from __future__ import annotations

import math
import time

from repro.serve.loadgen import synthesize_workload
from repro.serve.server import KnotsService, ServeConfig

__all__ = ["bench_serve_loop", "SERVE_BENCHMARKS"]

#: Benchmark names this module contributes to the suite registry.
SERVE_BENCHMARKS = ("serve_loop",)

#: The serving acceptance configuration, shortened to a CI-sized window.
QPS, DURATION_S, SEED = 500.0, 1.5, 1


def bench_serve_loop(quick: bool) -> dict:
    """One full serving session, flat out, arrivals on the sim clock."""
    items = synthesize_workload(QPS, DURATION_S, seed=SEED)

    def make() -> KnotsService:
        service = KnotsService(
            ServeConfig(
                qps=0.0,                 # arrivals are injected, not threaded
                duration_s=DURATION_S,
                paced=False,
                http=False,
                status_interval_s=0.0,
            )
        )
        service.inject_workload(items)
        return service

    best = math.inf
    report = None
    for _ in range(1 if quick else 2):
        service = make()
        t0 = time.perf_counter()
        report = service.run()
        best = min(best, time.perf_counter() - t0)
    if report is None:
        raise RuntimeError("serve bench: no session ran")
    counts = report.counts
    if counts["dropped"] or counts["submitted"] != counts["accepted"]:
        raise RuntimeError(
            f"serve bench lost pods: {counts} — the drain contract broke"
        )
    submissions = counts["submitted"]
    return {
        "nodes": 32 * 8,
        "offered_qps": QPS,
        "window_s": DURATION_S,
        "submissions": submissions,
        "placed": counts["placed"],
        "events_fired": report.events_fired,
        "sim_ms": report.sim_ms,
        "sustained_qps": submissions / best,
        "p50_decision_sim_ms": report.p50_sim_ms,
        "p99_decision_sim_ms": report.p99_sim_ms,
        "ms_run": best * 1e3,
        "ms_per_submission": best * 1e3 / submissions,   # the gated field
    }
