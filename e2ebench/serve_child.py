"""The traced server: ``python -m repro serve`` with layer wrappers.

    python3 -m e2ebench.serve_child --layers OUT.json --trace TRACE.json

Builds the same :class:`ServeConfig` as ``python -m repro serve --qps 0
--duration 0 --port 0 --status-interval 0``, wraps the layers of the
live :class:`KnotsService` (:func:`e2ebench.layers.instrument_service`),
and runs :func:`run_serve` until SIGINT.  The load generator stays in
the benchmark's own process.  On exit it writes the per-layer metrics
and the Chrome trace.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="e2ebench.serve_child")
    parser.add_argument("--layers", required=True, metavar="PATH")
    parser.add_argument("--trace", required=True, metavar="PATH")
    args = parser.parse_args(argv)

    from repro.serve import KnotsService, ServeConfig, run_serve

    from e2ebench.layers import ROOT, instrument_service, layer_metrics, run_counters
    from e2ebench.spans import Spans

    config = ServeConfig(duration_s=None, qps=0.0, port=0, status_interval_s=0.0)
    service = KnotsService(config)
    spans = Spans()
    instrument_service(spans, service)
    spans.wrap(service, "run", ROOT)
    report = run_serve(config, service=service)

    layers = layer_metrics(spans, run_counters(service.orchestrator, report.events_fired))
    with open(args.layers, "w", encoding="utf-8") as fh:
        json.dump({"layers": layers, "spans": spans.table()}, fh)
    spans.write_chrome_trace(args.trace)
    return 0 if report.counts["dropped"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
