"""One simulation sample, run in a fresh child process.

    python3 -m e2ebench.sample WORKLOAD SEED [--trace PATH]

Prints one JSON object: set-up and run host times with the
``time.monotonic()`` readings that bound them (so the runner can match
them to its speed probe), peak RSS, the output digest and, with
``--trace``, the per-layer metrics of a traced run (the Chrome trace
goes to PATH).  Set-up counts from before the first ``repro`` import, so
work moved into import time or construction shows.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def run_sample(workload: str, seed: int, trace_path: str | None = None) -> dict:
    t0 = time.monotonic()
    from e2ebench.workloads import SIM_WORKLOADS, build_sim, result_digest

    sim = build_sim(SIM_WORKLOADS[workload], seed)
    spans = None
    if trace_path is not None:
        from e2ebench.layers import ROOT, instrument_sim
        from e2ebench.spans import Spans

        spans = Spans()
        instrument_sim(spans, sim)
        t1 = time.monotonic()
        result = spans.span(ROOT, sim.run)
    else:
        t1 = time.monotonic()
        result = sim.run()
    t2 = time.monotonic()
    out = {
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "window": [t0, t1, t2],
        "digest": result_digest(result, sim.orchestrator.api),
        "fast_quantum_ticks": result.fast_quantum_ticks,
        "pods": len(result.pods),
    }
    if spans is not None:
        from e2ebench.layers import layer_metrics, run_counters

        out["layers"] = layer_metrics(spans, run_counters(
            sim.orchestrator, sim.events_fired, sim.fast_forwards, sim.ticks_skipped
        ))
        out["spans"] = spans.table()
        spans.write_chrome_trace(trace_path)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="e2ebench.sample")
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    print(json.dumps(run_sample(args.workload, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
