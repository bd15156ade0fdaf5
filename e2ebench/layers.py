"""Which public calls a traced run wraps, and the per-layer metrics.

Layer names follow the modules that own the calls:

==================  ===========================================  =============
span                wrapped call                                 layer metric
==================  ===========================================  =============
core.pass           ``KubeKnots.scheduling_pass``                core.apply_ms
core.context        ``KubeKnots.build_context``                  core.context_ms
core.policy         ``Scheduler.schedule``                       core.policy_ms
kube.tick           ``KubeKnots.step_kubelets``                  kube.tick_ms
telemetry.heartbeat ``KubeKnots.heartbeat``                      telemetry.heartbeat_ms
sim.record          ``KubeKnotsSimulator._record`` (simulation)  sim.record_ms
                    ``SLOTracker.submitted/decision`` (serve)
scenario.capacity   ``KubeKnots.cordon/reclaim/restore_node``    scenario.capacity_ms
serve.queue         ``AdmissionQueue.take_all``                  (waits only)
serve.pacer         ``service.pacer`` (a proxy)                  serve.loop.idle_s
root                ``sim.run`` / ``KnotsService.run``           sim.dispatch_ms
==================  ===========================================  =============

``core.apply_ms`` is the pass's self time (applying binds/resizes plus
the gate around the policy); ``sim.dispatch_ms`` is the root's self time,
everything the run did outside the wrapped layers (event dispatch, the
tick glue, idle fast-forward backfill).  What the benchmark samples
itself (pending and resident counts of each context, queue waits, pacer
lag) runs in ``bench.hook`` spans, so it is charged to no layer.
"""

from __future__ import annotations

from typing import Any

from e2ebench.spans import HOOK, Spans, percentile, tail_percentile

__all__ = [
    "instrument_sim", "instrument_service", "layer_metrics", "run_counters",
    "ROOT", "RUN_COUNTERS",
]

#: Name of the root span of every traced run.
ROOT = "root"

#: What the program reports about its own run, read after it ends
#: (:func:`run_counters`) and passed to :func:`layer_metrics`.
RUN_COUNTERS = (
    "core.binds",
    "core.resizes",
    "kube.evictions",
    "kube.oom_kills",
    "cluster.fast_quantum_ticks",
    "sim.events",
    "sim.fast_forwards",
    "sim.ticks_skipped",
)


def run_counters(
    orch: Any, events: int, fast_forwards: int = 0, ticks_skipped: int = 0
) -> dict[str, int]:
    """The :data:`RUN_COUNTERS` of a finished run, from its API event log."""
    from repro.kube.api import EventType

    api = orch.api
    return {
        "core.binds": len(api.events_of(EventType.BOUND)),
        "core.resizes": len(api.events_of(EventType.RESIZED)),
        "kube.evictions": len(api.events_of(EventType.EVICTED)),
        "kube.oom_kills": len(api.events_of(EventType.OOM_KILLED)),
        "cluster.fast_quantum_ticks": orch.quantum.fast_ticks if orch.quantum else 0,
        "sim.events": events,
        "sim.fast_forwards": fast_forwards,
        "sim.ticks_skipped": ticks_skipped,
    }


def _instrument_orchestrator(spans: Spans, orch: Any) -> None:
    pending = spans.samples.setdefault("pending", [])
    residents = spans.samples.setdefault("residents", [])

    def on_context(ctx: Any) -> None:
        pending.append(len(ctx.pending))
        residents.append(sum(map(len, ctx.residents.values())))

    spans.wrap(orch, "scheduling_pass", "core.pass")
    spans.wrap(orch, "build_context", "core.context", on_context)
    spans.wrap(orch.scheduler, "schedule", "core.policy")
    spans.wrap(orch, "step_kubelets", "kube.tick")
    spans.wrap(orch, "heartbeat", "telemetry.heartbeat")
    for attr in ("cordon_node", "reclaim_node", "restore_node"):
        spans.wrap(orch, attr, "scenario.capacity")


def instrument_sim(spans: Spans, sim: Any) -> None:
    """Wrap a constructed :class:`KubeKnotsSimulator` before ``run()``."""
    _instrument_orchestrator(spans, sim.orchestrator)
    spans.wrap(sim, "_record", "sim.record")


class PacerProxy:
    """Stands in for ``service.pacer``: times each wait as ``serve.pacer``
    and samples how late each event already was when it came up (in a
    ``bench.hook`` span)."""

    def __init__(self, pacer: Any, spans: Spans) -> None:
        self._pacer = pacer
        self._lags = spans.samples.setdefault("lag_s", [])
        spans.wrap(self, "pace", "serve.pacer")
        spans.wrap(self, "sample_lag", HOOK)

    def pace(self, when_ms: float) -> None:
        self._pacer(when_ms)

    def sample_lag(self, when_ms: float) -> None:
        self._lags.append(self._pacer.lag_s(when_ms))

    def __call__(self, when_ms: float) -> None:
        self.sample_lag(when_ms)
        self.pace(when_ms)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._pacer, name)


def instrument_service(spans: Spans, service: Any) -> None:
    """Wrap a constructed :class:`KnotsService` before ``run_serve``."""
    _instrument_orchestrator(spans, service.orchestrator)
    clock = service.clock
    waits = spans.samples.setdefault("queue_wait_ms", [])

    def on_take(batch: list) -> None:
        now = clock()
        for wall_ts, _spec in batch:
            waits.append((now - wall_ts) * 1e3)

    spans.wrap(service.queue, "take_all", "serve.queue", on_take)
    spans.wrap(service.slo, "submitted", "sim.record")
    spans.wrap(service.slo, "decision", "sim.record")
    if service.pacer is not None:
        service.pacer = PacerProxy(service.pacer, spans)


def layer_metrics(spans: Spans, run: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    ``run`` carries the :data:`RUN_COUNTERS`, read after the run.
    """
    if set(run) != set(RUN_COUNTERS):
        raise ValueError(f"run counters {sorted(run)} != {sorted(RUN_COUNTERS)}")
    tree = spans.tree()
    table = spans.table(tree)

    def self_ms(name: str) -> float:
        return table.get(name, {}).get("self_ms", 0.0)

    def calls(name: str) -> int:
        return int(table.get(name, {}).get("calls", 0))

    passes = spans.durations_us("core.pass")
    pending = spans.samples.get("pending", [])
    residents = spans.samples.get("residents", [])
    binds = run["core.binds"]
    # Top-level capacity transitions: reclaim cordons its node first.
    capacity_events = sum(
        1 for name, _, _, parent in tree
        if name == "scenario.capacity"
        and (parent < 0 or tree[parent][0] != "scenario.capacity")
    )
    lags = spans.samples.get("lag_s", [])
    waits = spans.samples.get("queue_wait_ms", [])
    out = {
        "core.policy_ms": self_ms("core.policy"),
        "core.context_ms": self_ms("core.context"),
        "core.apply_ms": self_ms("core.pass"),
        "core.passes": len(passes),
        "core.pass_us_p50": percentile(passes, 50.0),
        "core.pass_us_tail": tail_percentile(passes)[1],
        "core.pending_per_pass": sum(pending) / len(pending) if pending else 0.0,
        "core.residents_per_pass": sum(residents) / len(residents) if residents else 0.0,
        "core.bind_yield": binds / sum(pending) if sum(pending) else 0.0,
        "kube.tick_ms": self_ms("kube.tick"),
        "kube.ticks": calls("kube.tick"),
        "telemetry.heartbeat_ms": self_ms("telemetry.heartbeat"),
        "telemetry.heartbeat_calls": calls("telemetry.heartbeat"),
        "sim.dispatch_ms": self_ms(ROOT),
        "sim.record_ms": self_ms("sim.record"),
        "scenario.capacity_ms": self_ms("scenario.capacity"),
        "scenario.capacity_events": capacity_events,
        "serve.queue.wait_p50_ms": percentile(waits, 50.0),
        "serve.queue.wait_p99_ms": percentile(waits, 99.0),
        "serve.loop.idle_s": self_ms("serve.pacer") / 1e3,
        "serve.loop.lag_s": max(lags) if lags else 0.0,
    }
    out.update(run)
    return out
