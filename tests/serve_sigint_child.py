"""A serve session that takes SIGINT while its service thread holds a lock.

    PYTHONPATH=src python -m tests.serve_sigint_child queue|pacer

The service runs paced on a 2x2 cluster with no HTTP front door, under
``run_serve``'s SIGINT handler.  The admission queue's ``take_all`` is
wrapped so that, on chosen ticks, the tick chain raises SIGINT at
itself; the handler then runs on the service thread at that point.

* ``queue``: the first SIGINT lands while the tick chain holds the
  admission queue's lock.  The session must drain and exit.
* ``pacer``: a pod no device can hold keeps the drain from ever
  finishing.  A first SIGINT starts the drain; the second lands while
  the service thread holds the pacer's wake-event lock and must stop
  the run.

Prints the report's counts as one JSON line.
"""

from __future__ import annotations

import json
import signal
import sys

from repro.kube.pod import PodSpec
from repro.serve.server import KnotsService, ServeConfig, run_serve, spec_from_json
from repro.workloads.base import Phase, ResourceDemand, WorkloadTrace

#: Per mode, the ticks on which the tick chain raises SIGINT at itself
#: and the lock it holds while it does.
SIGINT_TICKS = {"queue": {5: "queue"}, "pacer": {5: None, 10: "pacer"}}


def main(mode: str) -> int:
    cfg = ServeConfig(
        duration_s=None, paced=True, http=False, nodes=2, gpus_per_node=2,
        status_interval_s=0.0,
        # The pacer case: only a hard stop may end the drain.
        drain_grace_ms=1e12 if mode == "pacer" else 30_000.0,
    )
    service = KnotsService(cfg)
    for seed in range(8):
        service.submit_spec(spec_from_json({"image": "djinn/face", "seed": seed}))
    if mode == "pacer":
        whale = WorkloadTrace(
            "whale", [Phase(100.0, ResourceDemand(0.5, 1e6, 0.0, 0.0))], requested_mem_mb=1e6
        )
        service.submit_spec(PodSpec(name="whale", image="rodinia/whale", trace=whale))

    queue, pacer = service.queue, service.pacer
    locks = {"queue": queue._lock, "pacer": pacer._wake._cond}
    take_all = queue.take_all
    calls = [0]

    def take_all_raising_sigint() -> list:
        calls[0] += 1
        if calls[0] in SIGINT_TICKS[mode]:
            held = SIGINT_TICKS[mode][calls[0]]
            if held is None:
                signal.raise_signal(signal.SIGINT)
            else:
                with locks[held]:
                    signal.raise_signal(signal.SIGINT)
        return take_all()

    queue.take_all = take_all_raising_sigint  # type: ignore[method-assign]
    report = run_serve(cfg, service)
    print(json.dumps({**report.counts, "undecided": report.undecided}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
