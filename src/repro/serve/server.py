"""Knots as a long-running service: front door, paced loop, drain.

Threading model (three threads, one hand-off point):

* **front-door thread** — an asyncio loop (``asyncio.start_server``)
  parsing HTTP/1.1 out of the stdlib, translating ``POST /v1/pods``
  JSON into :class:`~repro.kube.pod.PodSpec` objects and offering them
  to the :class:`~repro.serve.queue.AdmissionQueue`; a full queue is a
  ``429`` + ``Retry-After``, a draining one a ``503``.
* **load-generator thread** (optional) — the trace-driven
  :class:`~repro.serve.loadgen.LoadGenerator` offering synthesized
  arrivals through the *same* admission path, so backpressure and SLO
  accounting are identical whether traffic is external or synthetic.
* **service thread** (the caller of :meth:`KnotsService.run`, normally
  the main thread) — the same :class:`~repro.sim.engine.EventLoop` +
  :class:`~repro.sim.harness.TickHarness` substrate the offline
  simulators run on, paced against the host clock by
  :class:`WallClockPacer` via the engine's ``run_paced`` hook.  Each
  tick drains the queue into the API server, steps kubelets, heartbeats
  the Knots monitoring plane, and runs scheduling passes whose ``Bind``
  actions close the admission→placement latency measurement.

Shutdown: :meth:`KnotsService.request_stop` (wired to SIGINT) closes
the queue, unpaces the loop and lets the tick chain drain — every
accepted request is submitted and given a bounded window to receive a
placement decision before the loop stops.  A second request hard-stops
the engine (`EventLoop.stop` is idempotent and thread-safe for exactly
this path).
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.cluster.cluster import make_paper_cluster
from repro.core.orchestrator import KubeKnots
from repro.core.schedulers import make_scheduler
from repro.core.schedulers.base import Bind
from repro.kube.pod import PodSpec, reset_uid_counter
from repro.obs.context import Observability
from repro.serve.loadgen import LoadGenerator, synthesize_workload
from repro.serve.queue import OFFER_ACCEPTED, OFFER_FULL, AdmissionQueue
from repro.serve.slo import SLOTracker
from repro.sim.engine import EventLoop
from repro.sim.harness import PHASE_SUBMIT, PhaseGate, TickHarness
from repro.workloads.djinn_tonic import (
    DJINN_TONIC_PROFILES,
    QOS_THRESHOLD_MS,
    make_inference_trace,
)
from repro.workloads.rodinia import RODINIA_PROFILES, make_rodinia_trace

__all__ = [
    "ServeConfig",
    "ServeReport",
    "WallClockPacer",
    "KnotsService",
    "FrontDoor",
    "spec_from_json",
    "run_serve",
]


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``python -m repro serve`` can turn."""

    scheduler: str = "peak-prediction"
    mix: str = "app-mix-1"
    nodes: int = 32                   # paper scale: 32 nodes x 8 GPUs
    gpus_per_node: int = 8
    queue_capacity: int = 1_024
    tick_ms: float = 10.0
    schedule_interval_ms: float = 20.0
    #: Arrival-window length (sim ms == wall ms at speed 1).  ``None``
    #: runs until :meth:`KnotsService.request_stop`.
    duration_s: float | None = 10.0
    qps: float = 0.0                  # 0 = no in-process load generator
    mode: str = "open"                # load-generator mode: open | closed
    concurrency: int = 64             # closed-loop outstanding limit
    #: Sim ms advanced per wall ms (1.0 = real time).  ``paced=False``
    #: runs flat out (benchmarks, CI).
    speed: float = 1.0
    paced: bool = True
    drain_grace_ms: float = 30_000.0  # sim-ms budget for pending decisions
    status_interval_s: float = 1.0    # 0 = no status line
    host: str = "127.0.0.1"
    port: int = 0                     # 0 = ephemeral
    http: bool = True
    sanitize: bool = False
    #: Run under the lock-order/owner-thread race detector
    #: (:mod:`repro.analysis.racedetect`); violations are collected and
    #: reported at end of run (CLI exit code 5).
    race_detect: bool = False
    seed: int = 1


@dataclass
class ServeReport:
    """End-of-run summary (also the CLI table's source)."""

    wall_s: float
    sim_ms: float
    events_fired: int
    counts: dict[str, int]
    offered: int                       # requests presented to the front door
    offered_qps: float
    p50_wall_ms: float
    p95_wall_ms: float
    p99_wall_ms: float
    p50_sim_ms: float
    p99_sim_ms: float
    gpu_util_pct: float
    undecided: int = 0
    loadgen_behind: int = 0

    def rows(self) -> list[tuple[str, str]]:
        c = self.counts
        return [
            ("wall time", f"{self.wall_s:.1f} s"),
            ("sim time", f"{self.sim_ms / 1_000.0:.1f} s"),
            ("offered / accepted / rejected",
             f"{self.offered} / {c['accepted']} / {c['rejected']}"),
            ("offered rate", f"{self.offered_qps:.0f} req/s"),
            ("submitted / placed / dropped",
             f"{c['submitted']} / {c['placed']} / {c['dropped']}"),
            ("undecided at shutdown", str(self.undecided)),
            ("decision latency p50/p95/p99",
             f"{self.p50_wall_ms:.1f} / {self.p95_wall_ms:.1f} / "
             f"{self.p99_wall_ms:.1f} ms"),
            ("decision latency p50/p99 (sim)",
             f"{self.p50_sim_ms:.1f} / {self.p99_sim_ms:.1f} ms"),
            ("mean GPU utilization", f"{self.gpu_util_pct:.1f} %"),
            ("engine events fired", str(self.events_fired)),
        ]


class WallClockPacer:
    """Block each event until its sim time is due on the host clock.

    ``speed`` is sim ms per wall ms.  The origin is pinned at the first
    call, so sim t=0 maps to pacing start.  :meth:`wake` (registered as
    an engine stop hook) interrupts a sleep; :meth:`unpace` turns all
    subsequent calls into no-ops — the drain path runs flat out.

    A lagging simulation (events due in the past) is *not* an error:
    the pacer simply stops sleeping and the sim runs as fast as it can,
    which surfaces as queue growth → 429s, exactly the overload
    behaviour a real control plane exhibits.
    """

    def __init__(
        self,
        speed: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        self.speed = float(speed)
        self.clock = clock
        self._origin: float | None = None
        self._wake = threading.Event()
        self._fast = False

    def wake(self) -> None:
        self._wake.set()

    def unpace(self) -> None:
        self._fast = True
        self._wake.set()

    def lag_s(self, sim_now_ms: float) -> float:
        """How far wall clock is ahead of the sim (>0 = sim lagging)."""
        if self._origin is None:
            return 0.0
        return (self.clock() - self._origin) - sim_now_ms / (1_000.0 * self.speed)

    def __call__(self, when_ms: float) -> None:
        if self._fast:
            return
        if self._origin is None:
            self._origin = self.clock()
        target = self._origin + when_ms / (1_000.0 * self.speed)
        while not self._fast:
            delay = target - self.clock()
            if delay <= 0.0:
                return
            if self._wake.wait(min(delay, 0.5)):
                self._wake.clear()
                return  # stop/unpace: hand control back to the engine


def _unpaced(_when_ms: float) -> None:
    """The flat-out pacer (benchmarks, CI, drain)."""


class KnotsService:
    """The serving session: admission queue → EventLoop → scheduler."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        obs: Observability | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or ServeConfig()
        cfg = self.config
        # Serving always exports metrics; tracing stays off (unbounded
        # growth over a long-running service).
        self.obs = obs or Observability(
            trace=False, metrics=True, audit=True, sanitize=cfg.sanitize,
            race_detect=cfg.race_detect,
        )
        self.clock = clock
        self.cluster = make_paper_cluster(
            num_nodes=cfg.nodes, gpus_per_node=cfg.gpus_per_node
        )
        self.orchestrator = KubeKnots(
            self.cluster, make_scheduler(cfg.scheduler), obs=self.obs
        )
        race = self.obs.race
        self.queue = AdmissionQueue(
            cfg.queue_capacity,
            clock=clock,
            lock=race.tracked("AdmissionQueue._lock") if race is not None else None,
        )
        self.slo = SLOTracker(
            self.obs.metrics,
            lock=race.tracked("SLOTracker._lock") if race is not None else None,
        )
        if race is not None:
            # Single-threaded-by-contract structures get owner-thread
            # guards: the Knots telemetry ring plus the tracer's span stack.
            self.orchestrator.knots.matrix.guard = race.affinity("TSDB")
            self.obs.tracer.guard = race.affinity("Tracer")
        self.pacer = WallClockPacer(cfg.speed, clock) if cfg.paced else None
        #: Called once per resolved submission (bind or shed) — the
        #: closed-loop load generator's slot release.
        self.decision_listener: Callable[[], None] | None = None

        self.loop = EventLoop(obs=self.obs)
        if self.pacer is not None:
            self.loop.add_stop_hook(self.pacer.wake)
        self._harness = TickHarness(self.loop, cfg.tick_ms, self._on_tick)
        knots_cfg = self.orchestrator.knots.config
        self._hb = PhaseGate(knots_cfg.heartbeat_ms, start_due=0.0)
        self._sched = PhaseGate(cfg.schedule_interval_ms, start_due=0.0)
        self._status = (
            PhaseGate(cfg.status_interval_s * 1_000.0, start_due=cfg.status_interval_s * 1_000.0)
            if cfg.status_interval_s > 0
            else None
        )
        self._horizon_ms = None if cfg.duration_s is None else cfg.duration_s * 1_000.0
        #: pod uid -> (wall accept time, sim submit time) awaiting a bind.
        self._undecided: dict[str, tuple[float, float]] = {}
        self._stop_event = threading.Event()
        self._draining = False
        self._drain_deadline = math.inf
        self.events_fired = 0
        self._wall_start: float | None = None
        self._wall_end: float | None = None

    # -- admission (any thread) ----------------------------------------------

    def submit_spec(self, spec: PodSpec) -> tuple[str, float]:
        """Offer one pod spec; returns ``(outcome, retry_after_s)``."""
        outcome, retry_after = self.queue.offer((self.clock(), spec))
        if outcome == OFFER_ACCEPTED:
            self.slo.accepted()
        elif outcome == OFFER_FULL:
            self.slo.rejected()
            self._notify_decision()   # a shed request is a resolved one
        else:
            self.slo.refused_closed()
            self._notify_decision()
        return outcome, retry_after

    def _notify_decision(self) -> None:
        listener = self.decision_listener
        if listener is not None:
            listener()

    # -- sim-side injection (benchmarks, tests) ------------------------------

    def inject_workload(self, items: list[tuple[float, PodSpec]]) -> None:
        """Schedule arrivals as sim-time events through the admission
        path — the deterministic, unpaced substitute for the wall-clock
        load generator (used by ``repro.bench.serve`` and tests)."""
        for arrival_ms, spec in items:
            self.loop.schedule_at(
                max(arrival_ms, 0.0),
                self._inject_one,
                spec,
                priority=PHASE_SUBMIT,
            )

    def _inject_one(self, spec: PodSpec) -> None:
        self.submit_spec(spec)

    # -- lifecycle ------------------------------------------------------------

    def request_stop(self) -> None:
        """Begin a graceful drain (idempotent, any thread / signal
        handler).  A second call hard-stops the engine."""
        if self._stop_event.is_set():
            self.loop.stop()
            return
        self._stop_event.set()
        self.queue.close()
        if self.pacer is not None:
            self.pacer.unpace()

    def run(self) -> ServeReport:
        """Drive the loop until drained/stopped; returns the report."""
        reset_uid_counter()
        self._wall_start = self.clock()
        pacer = self.pacer if self.pacer is not None else _unpaced
        self.events_fired = self.loop.run_paced(pacer)
        self._wall_end = self.clock()
        self._finalize()
        return self.report()

    # -- the tick -------------------------------------------------------------

    def _on_tick(self, now: float) -> None:
        orch = self.orchestrator
        cfg = self.config
        batch = self.queue.take_all()
        if batch:
            api = orch.api
            for wall_ts, spec in batch:
                pod = api.submit(spec, now)
                self._undecided[pod.uid] = (wall_ts, now)
            self.slo.submitted(len(batch))
        orch.step_kubelets(now, cfg.tick_ms)
        if self._hb.due(now):
            orch.heartbeat(now)
        if self._sched.due(now):
            actions = orch.scheduling_pass(now)
            if actions and self._undecided:
                wall_now = self.clock()
                undecided = self._undecided
                for action in actions:
                    if type(action) is Bind:
                        meta = undecided.pop(action.pod_uid, None)
                        if meta is not None:
                            self.slo.decision(
                                (wall_now - meta[0]) * 1_000.0, now - meta[1]
                            )
                            self._notify_decision()
        if self._status is not None and self._status.due(now):
            self._emit_status(now)
        self._check_termination(now)

    def _check_termination(self, now: float) -> None:
        if not self._draining:
            horizon_hit = self._horizon_ms is not None and now >= self._horizon_ms
            if horizon_hit or self._stop_event.is_set():
                self._begin_drain(now)
            return
        if now >= self._drain_deadline or (
            len(self.queue) == 0 and not self._undecided
        ):
            self.loop.stop()

    def _begin_drain(self, now: float) -> None:
        self._draining = True
        self._drain_deadline = now + self.config.drain_grace_ms
        self.queue.close()
        if self.pacer is not None:
            self.pacer.unpace()     # drain flat out

    def _finalize(self) -> None:
        # Anything still queued after the loop stopped was accepted but
        # never submitted — only reachable via a hard stop.  Account it
        # so `serve_dropped_total` makes the loss visible.
        leftovers = self.queue.take_all()
        if leftovers:
            self.slo.dropped(len(leftovers))
        self.slo.update_gauges(0, self._gpu_util_pct())

    # -- status/statistics ----------------------------------------------------

    def _gpu_util_pct(self) -> float:
        # The ClusterState mirror, in cluster order: every executed tick
        # writes it, whichever kubelet path ran.
        sm_util = self.cluster.state.sm_util
        return float(np.mean(sm_util)) if len(sm_util) else 0.0

    def _emit_status(self, now: float) -> None:
        depth = len(self.queue)
        util = self._gpu_util_pct()
        self.slo.update_gauges(depth, util)
        c = self.slo.counts()
        p50, _p95, p99 = self.slo.wall_ms.percentiles((50.0, 95.0, 99.0))
        lag = self.pacer.lag_s(now) if self.pacer is not None else 0.0
        print(
            f"[serve] t={now / 1_000.0:7.1f}s q={depth:4d} "
            f"acc={c['accepted']} rej={c['rejected']} sub={c['submitted']} "
            f"placed={c['placed']} p50={p50:.1f}ms p99={p99:.1f}ms "
            f"util={util:.1f}% lag={lag:+.2f}s",
            file=sys.stderr,
            flush=True,
        )

    def stats(self) -> dict[str, Any]:
        """The ``/v1/stats`` payload (any thread)."""
        c = self.slo.counts()
        p50, p95, p99 = self.slo.wall_ms.percentiles((50.0, 95.0, 99.0))
        sp50, sp99 = self.slo.sim_ms.percentiles((50.0, 99.0))

        def _nan_none(v: float) -> float | None:
            return None if math.isnan(v) else v

        return {
            "counts": c,
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.capacity,
            "draining": self._draining or self.queue.closed,
            "decision_latency_ms": {
                "p50": _nan_none(p50), "p95": _nan_none(p95), "p99": _nan_none(p99),
            },
            "decision_latency_sim_ms": {
                "p50": _nan_none(sp50), "p99": _nan_none(sp99),
            },
            "gpu_util_pct": self._gpu_util_pct(),
            "scheduler": self.orchestrator.scheduler.name,
            "cluster": {
                "nodes": self.config.nodes,
                "gpus_per_node": self.config.gpus_per_node,
            },
        }

    def report(self) -> ServeReport:
        c = self.slo.counts()
        wall_s = (
            (self._wall_end or self.clock()) - (self._wall_start or self.clock())
        )
        offered = c["accepted"] + c["rejected"] + c["draining"]
        # Rate over the arrival window — the drain tail offers nothing,
        # so including it would understate the sustained load.
        window_s = wall_s
        if self.config.duration_s is not None and wall_s > 0:
            window_s = min(wall_s, self.config.duration_s)
        p50, p95, p99 = self.slo.wall_ms.percentiles((50.0, 95.0, 99.0))
        sp50, sp99 = self.slo.sim_ms.percentiles((50.0, 99.0))
        return ServeReport(
            wall_s=wall_s,
            sim_ms=self.loop.now,
            events_fired=self.events_fired,
            counts=c,
            offered=offered,
            offered_qps=offered / window_s if window_s > 0 else 0.0,
            p50_wall_ms=p50,
            p95_wall_ms=p95,
            p99_wall_ms=p99,
            p50_sim_ms=sp50,
            p99_sim_ms=sp99,
            gpu_util_pct=self._gpu_util_pct(),
            undecided=len(self._undecided),
        )


# -- request validation ------------------------------------------------------


def spec_from_json(payload: dict[str, Any]) -> PodSpec:
    """Build a :class:`PodSpec` from a ``POST /v1/pods`` body.

    The image selects the workload family exactly like the offline
    mixes: ``rodinia/<app>`` is a batch pod, ``djinn/<query>`` a
    latency-critical inference pod.  Per-request ``seed`` pins the
    synthesized trace, so a replayed request is bit-identical.
    Raises ``ValueError`` on anything malformed (the front door's 400).
    """
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    image = payload.get("image")
    if not isinstance(image, str) or "/" not in image:
        raise ValueError("'image' must look like 'rodinia/<app>' or 'djinn/<query>'")
    family, _, app = image.partition("/")
    seed = int(payload.get("seed", 0))
    rng = np.random.default_rng(seed)
    if family == "rodinia":
        if app not in RODINIA_PROFILES:
            raise ValueError(
                f"unknown rodinia app {app!r}; known: {sorted(RODINIA_PROFILES)}"
            )
        trace = make_rodinia_trace(
            app,
            rng,
            scale=float(payload.get("scale", 40.0)),
            requested_headroom=float(payload.get("headroom", 1.25)),
        )
        qos_ms = None
    elif family == "djinn":
        if app not in DJINN_TONIC_PROFILES:
            raise ValueError(
                f"unknown djinn query {app!r}; known: {sorted(DJINN_TONIC_PROFILES)}"
            )
        trace = make_inference_trace(
            app,
            rng,
            batch_size=int(payload.get("batch_size", 1)),
            tf_managed=bool(payload.get("tf_managed", False)),
        )
        qos_ms = float(payload.get("qos_threshold_ms", QOS_THRESHOLD_MS))
    else:
        raise ValueError(f"unknown image family {family!r} (rodinia | djinn)")
    name = payload.get("name") or f"{family}-{app}"
    if not isinstance(name, str):
        raise ValueError("'name' must be a string")
    return PodSpec(name=name, image=image, trace=trace, qos_threshold_ms=qos_ms)


# -- the asyncio front door --------------------------------------------------

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class FrontDoor:
    """Stdlib-only HTTP/1.1 server on its own asyncio thread.

    Routes::

        POST /v1/pods   submit a pod        202 | 400 | 429 | 503
        GET  /metrics   Prometheus text     200
        GET  /v1/stats  JSON status         200
        GET  /healthz   liveness            200
    """

    def __init__(self, service: KnotsService, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port          # resolved to the bound port on start()
        # Lifecycle state (_aio/_server/_thread) is written by the
        # serve thread during startup and by the caller's thread during
        # stop(); one small lock makes the hand-off explicit (lint rule
        # KK005 — cross-thread writes without a lock).
        self._state_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._aio: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "FrontDoor":
        if self._thread is not None:
            raise RuntimeError("front door already started")
        thread = threading.Thread(
            target=self._serve_thread, name="repro-serve-http", daemon=True
        )
        with self._state_lock:
            self._thread = thread
        thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("front door failed to start within 10s")
        if self._startup_error is not None:
            raise RuntimeError(f"front door failed to bind: {self._startup_error}")
        return self

    def stop(self) -> None:
        with self._state_lock:
            aio = self._aio
            thread = self._thread
        if aio is None:
            return
        aio.call_soon_threadsafe(self._shutdown)
        if thread is not None:
            thread.join(timeout=10.0)
        with self._state_lock:
            self._aio = None
            self._thread = None

    def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
        assert self._aio is not None
        self._aio.stop()

    def _serve_thread(self) -> None:
        aio = asyncio.new_event_loop()
        with self._state_lock:
            self._aio = aio
        asyncio.set_event_loop(aio)
        try:
            server = aio.run_until_complete(
                asyncio.start_server(self._handle, self.host, self.port)
            )
            with self._state_lock:
                self._server = server
            self.port = server.sockets[0].getsockname()[1]
        except BaseException as exc:   # bind failure -> surface in start()
            self._startup_error = exc
            self._ready.set()
            aio.close()
            return
        self._ready.set()
        try:
            aio.run_forever()
        finally:
            aio.run_until_complete(aio.shutdown_asyncgens())
            aio.close()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling ----------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, ctype, body, extra = await self._respond(reader)
        except Exception:
            status, ctype, body, extra = 500, "text/plain", b"internal error\n", {}
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        headers += [f"{k}: {v}" for k, v in extra.items()]
        try:
            writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, str, bytes, dict[str, str]]:
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=10.0)
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return 400, "text/plain", b"malformed request line\n", {}
            method, path = parts[0], parts[1]
            content_length = 0
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=10.0)
                if line in (b"\r\n", b"\n", b""):
                    break
                key, _, value = line.decode("latin-1").partition(":")
                if key.strip().lower() == "content-length":
                    content_length = int(value.strip())
            body = (
                await asyncio.wait_for(reader.readexactly(content_length), timeout=10.0)
                if content_length
                else b""
            )
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
            return 400, "text/plain", b"malformed request\n", {}
        return self._route(method, path, body)

    def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, str, bytes, dict[str, str]]:
        if path == "/v1/pods":
            if method != "POST":
                return 405, "text/plain", b"POST only\n", {}
            return self._submit(body)
        if method != "GET":
            return 405, "text/plain", b"GET only\n", {}
        if path == "/metrics":
            return 200, "text/plain; version=0.0.4", self._render_metrics(), {}
        if path == "/healthz":
            return 200, "text/plain", b"ok\n", {}
        if path == "/v1/stats":
            payload = json.dumps(self.service.stats(), sort_keys=True).encode()
            return 200, "application/json", payload + b"\n", {}
        return 404, "text/plain", b"not found\n", {}

    def _submit(self, body: bytes) -> tuple[int, str, bytes, dict[str, str]]:
        try:
            spec = spec_from_json(json.loads(body.decode("utf-8") or "null"))
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            self.service.slo.invalid()
            msg = json.dumps({"error": str(exc)}).encode()
            return 400, "application/json", msg + b"\n", {}
        outcome, retry_after = self.service.submit_spec(spec)
        if outcome == OFFER_ACCEPTED:
            payload = json.dumps(
                {"status": "accepted", "name": spec.name, "queued": len(self.service.queue)}
            ).encode()
            return 202, "application/json", payload + b"\n", {}
        if outcome == OFFER_FULL:
            payload = json.dumps(
                {"error": "admission queue full", "retry_after_s": retry_after}
            ).encode()
            return (
                429,
                "application/json",
                payload + b"\n",
                {"Retry-After": str(max(int(math.ceil(retry_after)), 1))},
            )
        payload = json.dumps({"error": "service is draining"}).encode()
        return 503, "application/json", payload + b"\n", {}

    def _render_metrics(self) -> bytes:
        # The registry is mutated by the service thread; render() works
        # from point-in-time snapshots, so a scrape never races it.
        return self.service.obs.metrics.render().encode()


# -- entry point -------------------------------------------------------------


def run_serve(
    config: ServeConfig, service: KnotsService | None = None
) -> ServeReport:
    """Build the service, front door and load generator; run to drain.

    SIGINT begins a graceful drain (second SIGINT hard-stops) when
    running on the main thread; otherwise callers use
    :meth:`KnotsService.request_stop` directly.  Pass a pre-built
    ``service`` to keep a handle on its observability sinks.
    """
    if service is None:
        service = KnotsService(config)
    front = FrontDoor(service, config.host, config.port) if config.http else None
    generator: LoadGenerator | None = None
    if front is not None:
        front.start()
        print(f"[serve] listening on {front.address}", file=sys.stderr, flush=True)
    if config.qps > 0:
        if config.duration_s is None:
            raise ValueError("an in-process load generator needs --duration")
        items = synthesize_workload(
            config.qps, config.duration_s, seed=config.seed, mix=config.mix
        )
        generator = LoadGenerator(
            items,
            lambda spec: service.submit_spec(spec)[0],
            mode=config.mode,
            concurrency=config.concurrency,
            clock=service.clock,
        )
        if config.mode == "closed":
            service.decision_listener = generator.on_decision

    previous_handler: Any = None
    on_main = threading.current_thread() is threading.main_thread()
    if on_main:
        def _on_sigint(_signum: int, _frame: Any) -> None:
            print("[serve] SIGINT: draining (^C again to force stop)",
                  file=sys.stderr, flush=True)
            service.request_stop()

        previous_handler = signal.signal(signal.SIGINT, _on_sigint)
    try:
        if generator is not None:
            generator.start()
        report = service.run()
    finally:
        if generator is not None:
            generator.stop()
            generator.join(timeout=5.0)
        if front is not None:
            front.stop()
        if on_main and previous_handler is not None:
            signal.signal(signal.SIGINT, previous_handler)
    if generator is not None:
        report.loadgen_behind = generator.stats.behind_schedule
    return report
