"""Tests for the serving layer: queue, SLO tracking, load generator,
the Knots service and the HTTP front door (e2e smoke)."""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import (
    OFFER_ACCEPTED,
    OFFER_CLOSED,
    OFFER_FULL,
    AdmissionQueue,
    KnotsService,
    LoadGenerator,
    RingHistogram,
    ServeConfig,
    spec_from_json,
    synthesize_workload,
)

SMALL = dict(nodes=2, gpus_per_node=2, status_interval_s=0.0)


# -- RingHistogram ------------------------------------------------------------


class TestRingHistogram:
    def test_empty_ring_yields_nan(self):
        r = RingHistogram(8)
        assert math.isnan(r.percentile(50.0))

    def test_exact_percentiles_nearest_rank(self):
        r = RingHistogram(100)
        for v in range(1, 101):           # 1..100
            r.observe(float(v))
        assert r.percentile(50.0) == 50.0
        assert r.percentile(99.0) == 99.0
        assert r.percentile(100.0) == 100.0
        assert r.percentile(0.0) == 1.0

    def test_window_evicts_oldest(self):
        r = RingHistogram(4)
        for v in (1.0, 2.0, 3.0, 4.0, 100.0):
            r.observe(v)
        assert len(r) == 4
        assert sorted(r.snapshot()) == [2.0, 3.0, 4.0, 100.0]
        assert r.count == 5               # lifetime count keeps going
        assert r.percentile(100.0) == 100.0

    def test_out_of_range_percentile_rejected(self):
        r = RingHistogram(4)
        r.observe(1.0)
        with pytest.raises(ValueError):
            r.percentile(101.0)

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ValueError):
            RingHistogram(0)


# -- AdmissionQueue -----------------------------------------------------------


class TestAdmissionQueue:
    def test_accept_until_full_then_shed(self):
        q = AdmissionQueue(2)
        assert q.offer("a")[0] == OFFER_ACCEPTED
        assert q.offer("b")[0] == OFFER_ACCEPTED
        outcome, retry_after = q.offer("c")
        assert outcome == OFFER_FULL
        assert retry_after > 0.0
        assert len(q) == 2
        assert q.accepted_total == 2
        assert q.rejected_total == 1

    def test_take_all_drains_and_frees_capacity(self):
        q = AdmissionQueue(2)
        q.offer("a")
        q.offer("b")
        assert q.take_all() == ["a", "b"]
        assert len(q) == 0
        assert q.take_all() == []
        assert q.offer("c")[0] == OFFER_ACCEPTED

    def test_close_refuses_new_but_keeps_queued(self):
        q = AdmissionQueue(4)
        q.offer("a")
        q.close()
        q.close()                          # idempotent
        assert q.closed
        assert q.offer("b")[0] == OFFER_CLOSED
        assert q.take_all() == ["a"]       # drain still works

    def test_retry_after_tracks_drain_rate(self):
        now = [0.0]
        q = AdmissionQueue(100, clock=lambda: now[0])
        assert q.retry_after_s() == 1.0    # no drain observed yet
        for batch in range(3):             # 10 items per second drained
            for i in range(10):
                q.offer(i)
            q.take_all()
            now[0] += 1.0
        # half the capacity / ~10 items per s = ~5 s, inside the clamp
        assert 0.05 <= q.retry_after_s() <= 30.0
        assert q.retry_after_s() == pytest.approx(5.0, rel=0.2)

    def test_concurrent_offers_never_exceed_capacity(self):
        q = AdmissionQueue(50)
        accepted = []

        def hammer():
            for i in range(100):
                if q.offer(i)[0] == OFFER_ACCEPTED:
                    accepted.append(i)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(q) == 50
        assert len(accepted) == 50
        assert q.accepted_total + q.rejected_total == 400


# -- workload synthesis / load generator --------------------------------------


class TestLoadgen:
    def test_synthesized_workload_is_deterministic(self):
        a = synthesize_workload(qps=50.0, duration_s=2.0, seed=9)
        b = synthesize_workload(qps=50.0, duration_s=2.0, seed=9)
        assert len(a) == len(b) > 0
        assert [t for t, _ in a] == [t for t, _ in b]
        assert [s.name for _, s in a] == [s.name for _, s in b]
        assert [s.image for _, s in a] == [s.image for _, s in b]

    def test_different_seed_differs(self):
        a = synthesize_workload(qps=50.0, duration_s=2.0, seed=9)
        b = synthesize_workload(qps=50.0, duration_s=2.0, seed=10)
        assert [t for t, _ in a] != [t for t, _ in b]

    def test_qps_rescales_arrival_volume(self):
        lo = synthesize_workload(qps=20.0, duration_s=4.0, seed=3)
        hi = synthesize_workload(qps=200.0, duration_s=4.0, seed=3)
        assert len(hi) > 2 * len(lo)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            synthesize_workload(qps=0.0, duration_s=1.0)
        with pytest.raises(ValueError):
            synthesize_workload(qps=10.0, duration_s=0.0)
        with pytest.raises(ValueError):
            LoadGenerator([], lambda s: "accepted", mode="bogus")

    def test_open_loop_submits_everything(self):
        items = synthesize_workload(qps=200.0, duration_s=0.2, seed=4)
        seen = []
        gen = LoadGenerator(items, lambda spec: (seen.append(spec), "accepted")[1])
        gen.run()
        assert len(seen) == len(items)
        assert gen.stats.submitted == len(items)

    def test_closed_loop_blocks_on_undecided(self):
        items = [(0.0, f"s{i}") for i in range(5)]
        seen = []
        gen = LoadGenerator(
            items, lambda spec: (seen.append(spec), "accepted")[1],
            mode="closed", concurrency=2,
        )
        gen.start()
        time.sleep(0.3)
        assert len(seen) == 2             # two slots, no decisions yet
        gen.on_decision()                  # free one slot
        time.sleep(0.3)
        assert len(seen) == 3
        gen.stop()
        gen.join(timeout=5.0)

    def test_stop_interrupts_schedule(self):
        items = [(10_000.0, "far-future")]
        gen = LoadGenerator(items, lambda spec: "accepted")
        gen.start()
        gen.stop()
        gen.join(timeout=5.0)
        assert gen.stats.submitted == 0


# -- request validation -------------------------------------------------------


class TestSpecFromJson:
    def test_rodinia_pod(self):
        spec = spec_from_json({"image": "rodinia/lud", "seed": 3})
        assert spec.image == "rodinia/lud"
        assert spec.qos_threshold_ms is None

    def test_djinn_pod_gets_qos_threshold(self):
        spec = spec_from_json({"image": "djinn/face", "seed": 3})
        assert spec.qos_threshold_ms is not None

    def test_same_seed_same_trace(self):
        a = spec_from_json({"image": "rodinia/lud", "seed": 3})
        b = spec_from_json({"image": "rodinia/lud", "seed": 3})
        assert a.trace.total_ms == b.trace.total_ms

    @pytest.mark.parametrize("payload", [
        None,
        {},
        {"image": "noslash"},
        {"image": "rodinia/not-a-real-app"},
        {"image": "djinn/not-a-real-query"},
        {"image": "otherfamily/x"},
        {"image": "rodinia/lud", "name": 7},
        # Numbers outside their ranges: a negative headroom would raise
        # at bind on the service thread, a NaN one would never be placed,
        # a huge scale would exhaust memory, an infinity would overflow.
        {"image": "rodinia/lud", "headroom": -1},
        {"image": "rodinia/lud", "headroom": float("nan")},
        {"image": "rodinia/lud", "headroom": 0},
        {"image": "rodinia/lud", "headroom": float("inf")},
        {"image": "rodinia/lud", "scale": 1e5},
        {"image": "rodinia/lud", "scale": 1e12},
        {"image": "rodinia/lud", "scale": 10**400},
        {"image": "rodinia/lud", "scale": -1},
        {"image": "rodinia/lud", "seed": float("inf")},
        {"image": "djinn/face", "batch_size": float("inf")},
        {"image": "djinn/face", "batch_size": 0},
        {"image": "djinn/face", "batch_size": 129},
        {"image": "djinn/face", "qos_threshold_ms": -1},
        {"image": "djinn/face", "qos_threshold_ms": float("nan")},
        {"image": "djinn/face", "qos_threshold_ms": float("inf")},
    ])
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises((ValueError, TypeError)):
            spec_from_json(payload)

    @pytest.mark.parametrize("payload", [
        # The ends of what the repo's own generators emit, and the caps.
        {"image": "rodinia/lud", "scale": 30, "headroom": 0.4},
        {"image": "rodinia/lud", "scale": 65, "headroom": 1.6},
        {"image": "rodinia/streamcluster", "scale": 1_000, "headroom": 10},
        {"image": "djinn/face", "batch_size": 8, "qos_threshold_ms": 150.0},
        {"image": "djinn/face", "batch_size": 128, "tf_managed": True},
    ])
    def test_generator_ranges_admitted(self, payload):
        spec = spec_from_json(payload)
        assert spec.trace.requested_mem_mb > 0.0
        assert len(spec.trace.demand_table()[0]) < 25_000      # phases


# -- KnotsService -------------------------------------------------------------


class TestKnotsService:
    def test_injected_run_places_everything_and_drops_nothing(self):
        cfg = ServeConfig(duration_s=1.0, paced=False, http=False, seed=11, **SMALL)
        svc = KnotsService(cfg)
        items = synthesize_workload(qps=60.0, duration_s=1.0, seed=11)
        svc.inject_workload(items)
        report = svc.run()
        c = report.counts
        assert c["accepted"] == len(items)
        assert c["submitted"] == c["accepted"]     # zero dropped accepted pods
        assert c["dropped"] == 0
        assert c["placed"] == c["submitted"]
        assert report.undecided == 0
        assert report.p99_sim_ms >= 0.0

    def test_injected_run_is_deterministic_in_sim_time(self):
        def one() -> tuple:
            cfg = ServeConfig(duration_s=1.0, paced=False, http=False, **SMALL)
            svc = KnotsService(cfg)
            svc.inject_workload(synthesize_workload(qps=60.0, duration_s=1.0, seed=11))
            r = svc.run()
            return (r.sim_ms, r.events_fired, r.p50_sim_ms, r.p99_sim_ms,
                    tuple(sorted(r.counts.items())))

        assert one() == one()

    def test_request_stop_from_other_thread_drains(self):
        # No horizon: the service runs until asked to stop — the SIGINT
        # path, exercised cross-thread against a paced loop.
        cfg = ServeConfig(duration_s=None, paced=True, http=False, **SMALL)
        svc = KnotsService(cfg)
        for _, spec in synthesize_workload(qps=40.0, duration_s=0.5, seed=2):
            svc.submit_spec(spec)
        done = threading.Event()
        report_box = []

        def run():
            report_box.append(svc.run())
            done.set()

        t = threading.Thread(target=run)
        t.start()
        time.sleep(0.3)                     # let a few ticks run, paced
        svc.request_stop()
        svc.request_stop()                  # second call must not raise
        assert done.wait(timeout=60.0), "service failed to drain after stop"
        t.join(timeout=10.0)
        report = report_box[0]
        assert report.counts["dropped"] == 0
        assert report.counts["submitted"] == report.counts["accepted"]

    def test_utilization_gauge_reads_the_state_mirror(self):
        cfg = ServeConfig(duration_s=0.5, paced=False, http=False, **SMALL)
        svc = KnotsService(cfg)
        svc.inject_workload(synthesize_workload(qps=40.0, duration_s=0.5, seed=6))
        report = svc.run()
        state = svc.cluster.state
        assert report.gpu_util_pct == np.mean(state.sm_util)
        # The vectorized quantum writes the mirror columns without
        # touching the GPU objects' samples; the gauge follows them.
        state.sm_util[:] = np.linspace(0.1, 0.9, len(state))
        assert svc.stats()["gpu_util_pct"] == np.mean(state.sm_util)

    def test_audit_log_records_binds(self):
        cfg = ServeConfig(duration_s=0.5, paced=False, http=False, **SMALL)
        svc = KnotsService(cfg)
        svc.inject_workload(synthesize_workload(qps=40.0, duration_s=0.5, seed=6))
        report = svc.run()
        assert report.counts["placed"] > 0
        assert len(svc.obs.audit.binds()) >= report.counts["placed"]


# -- race detector integration ------------------------------------------------


class TestRaceDetectIntegration:
    def test_threaded_serve_stress_has_zero_violations(self):
        # The acceptance bar for --race-detect: a paced service with
        # concurrent submitters touches every instrumented lock and the
        # EventLoop/TSDB/SLO affinity guards without a single violation.
        cfg = ServeConfig(duration_s=None, paced=True, http=False,
                          race_detect=True, seed=7, **SMALL)
        svc = KnotsService(cfg)
        race = svc.obs.race
        assert race is not None

        done = threading.Event()
        report_box = []

        def run():
            report_box.append(svc.run())
            done.set()

        def feed(seed: int):
            for _, spec in synthesize_workload(qps=40.0, duration_s=0.3, seed=seed):
                svc.submit_spec(spec)

        runner = threading.Thread(target=run)
        runner.start()
        feeders = [threading.Thread(target=feed, args=(s,)) for s in (1, 2, 3)]
        for t in feeders:
            t.start()
        for t in feeders:
            t.join()
        time.sleep(0.3)                     # let the loop chew on the backlog
        svc.request_stop()
        assert done.wait(timeout=60.0), "service failed to drain under race-detect"
        runner.join(timeout=10.0)
        assert race.acquisitions > 0, "detector saw no instrumented lock traffic"
        assert race.violations == [], "\n".join(v.render() for v in race.violations)
        assert report_box[0].counts["dropped"] == 0

    def test_race_detector_guards_the_telemetry_ring(self):
        # One owner-thread guard covers every Knots telemetry append and
        # query: a read from any thread but the loop's is a race.
        cfg = ServeConfig(duration_s=None, paced=True, http=False,
                          race_detect=True, **SMALL)
        svc = KnotsService(cfg)
        knots = svc.orchestrator.knots
        assert knots.matrix.guard is svc.obs.race.affinity("TSDB")
        knots.heartbeat(0.0)                # binds the ring to this thread
        knots.query("node1/gpu0", 0.0)
        assert svc.obs.race.violations == []
        reader = threading.Thread(
            target=lambda: knots.query("node1/gpu0", 0.0), name="scraper"
        )
        reader.start()
        reader.join()
        (v,) = svc.obs.race.violations
        assert v.invariant == "owner_thread"
        assert (v.details["resource"], v.details["operation"], v.details["intruder"]) == (
            "TSDB", "query", "scraper",
        )

    def test_front_door_lifecycle_survives_repeated_start_stop(self):
        # Regression for the KK005 finding on FrontDoor: _thread/_aio/
        # _server are written by two threads and must stay consistent
        # across back-to-back start/stop cycles.
        from repro.serve import FrontDoor

        cfg = ServeConfig(duration_s=None, paced=True, http=False,
                          race_detect=True, **SMALL)
        svc = KnotsService(cfg)
        for _ in range(3):
            front = FrontDoor(svc, "127.0.0.1", 0)
            assert isinstance(front._state_lock, type(threading.Lock()))
            front.start()
            assert front.port != 0          # bound before start() returned
            front.stop()
            assert front._thread is None and front._aio is None
            front.stop()                    # idempotent after shutdown
        assert svc.obs.race.violations == []


# -- the HTTP front door (e2e smoke) ------------------------------------------


def _get(url: str, timeout: float = 10.0) -> tuple[int, bytes]:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read()


def _post(url: str, payload: dict, timeout: float = 10.0):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


class TestFrontDoorE2E:
    def test_burst_sheds_load_and_reports_slo(self):
        from repro.serve import FrontDoor

        cfg = ServeConfig(
            duration_s=None, paced=True, http=False, queue_capacity=8,
            nodes=2, gpus_per_node=2, status_interval_s=0.1,
        )
        svc = KnotsService(cfg)
        front = FrontDoor(svc, "127.0.0.1", 0).start()
        runner = threading.Thread(target=svc.run, daemon=True)
        try:
            base = front.address
            status, body = _get(f"{base}/healthz")
            assert status == 200 and body == b"ok\n"

            # Malformed submissions answer 400.
            status, _, body = _post(f"{base}/v1/pods", {"image": "bogus"})
            assert status == 400

            # A burst far above queue capacity: some accepted, some shed.
            # It lands before the service loop starts draining the queue
            # (one client's sequential POSTs are slower than a drain), so
            # the first `queue_capacity` answers are 202 and the rest 429.
            codes = []
            retry_after = None
            for i in range(80):
                status, headers, _ = _post(
                    f"{base}/v1/pods", {"image": "djinn/face", "seed": i}
                )
                codes.append(status)
                if status == 429 and retry_after is None:
                    retry_after = headers.get("Retry-After")
            assert codes.count(202) >= 1, "no request was admitted"
            assert codes.count(429) >= 1, "backpressure never engaged"
            assert retry_after is not None and int(retry_after) >= 1
            runner.start()

            # Wait until at least one admitted pod got a placement.
            deadline = time.monotonic() + 60.0
            placed = 0
            while time.monotonic() < deadline:
                _, body = _get(f"{base}/v1/stats")
                placed = json.loads(body)["counts"]["placed"]
                if placed >= 1:
                    break
                time.sleep(0.1)
            assert placed >= 1, "no placement decision before timeout"
            assert len(svc.obs.audit.binds()) >= 1

            # Give the status cadence one beat to refresh the gauges,
            # then check the exported SLO series.
            time.sleep(0.3)
            _, metrics = _get(f"{base}/metrics")
            text = metrics.decode()
            p99 = [ln for ln in text.splitlines()
                   if ln.startswith("serve_decision_latency_p99_ms ")]
            assert p99, f"p99 gauge missing from /metrics:\n{text[:500]}"
            assert float(p99[0].split()[-1]) > 0.0
            assert "serve_queue_depth" in text
            assert 'serve_requests_total{outcome="rejected"}' in text

            # Drain: new submissions answer 503, the loop exits cleanly.
            svc.request_stop()
            status, _, _ = _post(f"{base}/v1/pods", {"image": "djinn/face"})
            assert status == 503
            runner.join(timeout=60.0)
            assert not runner.is_alive(), "service failed to drain"
            assert svc.report().counts["dropped"] == 0
        finally:
            svc.request_stop()
            svc.loop.stop()
            front.stop()

    def test_unknown_route_404(self):
        from repro.serve import FrontDoor

        cfg = ServeConfig(duration_s=None, paced=True, http=False, **SMALL)
        svc = KnotsService(cfg)
        front = FrontDoor(svc, "127.0.0.1", 0).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{front.address}/nope")
            err.value.close()
            assert err.value.code == 404
        finally:
            front.stop()


# -- the request parser: the stream oracle, fuzzing, shutdown ------------------


def _exchange(
    port: int, chunks: list[bytes], gap_s: float = 0.0, shut: bool = False,
    timeout: float = 10.0,
) -> bytes:
    """Send ``chunks`` on one connection, ``gap_s`` apart; return every
    byte the server sends back before it closes.

    ``shut`` half-closes the connection after the last chunk.  A server
    that answers before the request is sent may close early: a failed
    send ends the sending, and a reset after the answer ends the read.
    Raises ``TimeoutError`` when the server neither answers nor closes
    within ``timeout``.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        try:
            for k, chunk in enumerate(chunks):
                if k and gap_s:
                    time.sleep(gap_s)
                sock.sendall(chunk)
            if shut:
                sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass
        out = b""
        while True:
            try:
                data = sock.recv(65536)
            except ConnectionResetError:
                break
            if not data:
                break
            out += data
        return out


def _status(response: bytes) -> int:
    match = re.match(rb"HTTP/1\.1 (\d{3}) ", response)
    assert match is not None, f"no status line in {response[:200]!r}"
    return int(match.group(1))


def _post_bytes(body: bytes, eol: str = "\r\n") -> bytes:
    head = f"POST /v1/pods HTTP/1.1{eol}Content-Length: {len(body)}{eol}{eol}"
    return head.encode("latin-1") + body


def _door(door_type, **overrides):
    cfg = ServeConfig(duration_s=None, paced=True, http=False, **{**SMALL, **overrides})
    return door_type(KnotsService(cfg), "127.0.0.1", 0).start()


@pytest.fixture(scope="module")
def twin_doors():
    """The shipped front door and the stream oracle, each on its own
    idle service (the queue fills at 6; nothing drains it), so the
    same requests in the same order get the same answers."""
    from repro.serve import FrontDoor
    from tests.stream_front_door import StreamFrontDoor

    doors = [_door(FrontDoor, queue_capacity=6), _door(StreamFrontDoor, queue_capacity=6)]
    try:
        yield doors
    finally:
        for door in doors:
            door.stop()


_ROUTES = [
    ("POST", "/v1/pods"), ("POST", "/v1/pods"), ("POST", "/v1/pods"),
    ("GET", "/healthz"), ("GET", "/v1/stats"), ("GET", "/metrics"),
    ("GET", "/v1/pods"), ("POST", "/healthz"), ("GET", "/nope"), ("DELETE", "/v1/pods"),
]
_IMAGES = ["djinn/face", "djinn/imc", "rodinia/lud", "rodinia/kmeans", "rodinia/nope", "other/x"]
_HEADER_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=24)


@st.composite
def _well_formed(draw):
    """One well-formed request as bytes: any route, either line end,
    extra headers, a Content-Length in any case (possibly repeated, the
    last one right) and a JSON or other body."""
    method, path = draw(st.sampled_from(_ROUTES))
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    version = draw(st.sampled_from([" HTTP/1.1", " HTTP/1.0", ""]))
    body = b""
    if method == "POST" or draw(st.booleans()):
        pod = {"image": draw(st.sampled_from(_IMAGES)), "seed": draw(st.integers(0, 10**6))}
        if draw(st.booleans()):
            pod["name"] = draw(_HEADER_TEXT)
        if draw(st.booleans()):
            pod["scale"] = draw(st.sampled_from([30, 40.5, 65, 2_000]))
        pod_body = json.dumps(pod).encode()
        body = draw(st.sampled_from([
            pod_body, pod_body, pod_body, b"", b"[1, 2]", b"not json", b"null", b'{"image": 7}',
        ]))
    headers = [
        (draw(st.sampled_from(["Host", "User-Agent", "Accept", "X-Trace"])), draw(_HEADER_TEXT))
        for _ in range(draw(st.integers(0, 3)))
    ]
    if body or draw(st.booleans()):
        names = st.sampled_from(["Content-Length", "content-length", "CONTENT-LENGTH"])
        value = f"{draw(st.sampled_from(['', ' ', '  ']))}{len(body)}{draw(st.sampled_from(['', ' ']))}"
        at = draw(st.integers(0, len(headers)))
        headers.insert(at, (draw(names), value))
        if draw(st.booleans()):
            # An earlier, wrong Content-Length: the last one wins.
            headers.insert(draw(st.integers(0, at)), (draw(names), str(draw(st.integers(0, 50)))))
    head = f"{method} {path}{version}{eol}" + "".join(f"{k}:{v}{eol}" for k, v in headers) + eol
    return head.encode("latin-1") + body


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    request=_well_formed(),
    cuts=st.lists(st.integers(0, 400), max_size=5),
    gap_ms=st.sampled_from([0.0, 0.5, 2.0]),
    shut=st.booleans(),
)
def test_well_formed_requests_get_the_stream_parsers_bytes(twin_doors, request, cuts, gap_ms, shut):
    """The same request, split into the same chunks sent with small
    delays, gets byte-identical answers from both parsers."""
    bounds = sorted({0, len(request), *(c for c in cuts if c < len(request))})
    chunks = [request[a:b] for a, b in zip(bounds, bounds[1:])]
    shipped, oracle = (
        _exchange(door.port, chunks, gap_ms / 1_000.0, shut, timeout=3.0) for door in twin_doors
    )
    assert shipped == oracle
    assert _status(shipped) < 500


@pytest.fixture(scope="module")
def fuzz_door():
    """The shipped front door with a 0.3 s request deadline, on an idle
    service whose queue never fills here."""
    from repro.serve import FrontDoor
    from repro.serve import server

    saved = server.REQUEST_TIMEOUT_S
    server.REQUEST_TIMEOUT_S = 0.3
    door = _door(FrontDoor, queue_capacity=100_000)
    try:
        yield door
    finally:
        door.stop()
        server.REQUEST_TIMEOUT_S = saved


_VALID_POD = json.dumps({"image": "djinn/face", "seed": 1}).encode()


@st.composite
def _malformed(draw):
    """``(case, chunks, shut)``: one malformed request, how it is sent,
    and whether the client half-closes after it."""
    case = draw(st.sampled_from([
        "missing path", "bad length", "negative length", "duplicate length",
        "truncated body", "eof mid-head", "stalled head", "invalid utf-8",
        "non-object json", "unknown image", "out-of-range number", "deep nesting",
        "body over the cap", "head over the cap", "garbage",
    ]))
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    shut = draw(st.booleans())
    if case == "missing path":
        method = draw(st.sampled_from(["GET", "POST", ""]))
        return case, [f"{method}{eol}Content-Length: 2{eol}{eol}{{}}".encode()], shut
    if case == "bad length":
        value = draw(st.sampled_from(["abc", "1.5", "", "0x10", "5 5", "--1"]))
        return case, [f"POST /v1/pods HTTP/1.1{eol}Content-Length: {value}{eol}{eol}".encode()
                      + _VALID_POD], shut
    if case == "negative length":
        n = draw(st.integers(1, 10**9))
        return case, [f"POST /v1/pods HTTP/1.1{eol}Content-Length: -{n}{eol}{eol}".encode()], shut
    if case == "duplicate length":
        # The last one wins: too short (a cut-off JSON body) or too long
        # (a truncated body).
        last = draw(st.sampled_from([1, len(_VALID_POD) - 1, len(_VALID_POD) + 5]))
        head = (f"POST /v1/pods HTTP/1.1{eol}Content-Length: {len(_VALID_POD)}{eol}"
                f"Content-Length: {last}{eol}{eol}")
        return case, [head.encode() + _VALID_POD], shut
    if case == "truncated body":
        missing = draw(st.integers(1, 1_000))
        head = f"POST /v1/pods HTTP/1.1{eol}Content-Length: {len(_VALID_POD) + missing}{eol}{eol}"
        return case, [head.encode() + _VALID_POD], shut
    if case == "eof mid-head":
        head = f"POST /v1/pods HTTP/1.1{eol}Content-Length: 20{eol}Host: x{eol}".encode()
        return case, [head[: draw(st.integers(0, len(head)))]], True
    if case == "stalled head":
        head = f"GET /healthz HTTP/1.1{eol}Host: x{eol}".encode()
        return case, [head[: draw(st.integers(0, len(head)))]], False
    if case == "invalid utf-8":
        body = draw(st.sampled_from([b"\xff\xfe\xfd", b'{"image": "djinn/\xe9"}', b"\xc3"]))
        return case, [_post_bytes(body, eol)], shut
    if case == "non-object json":
        body = draw(st.sampled_from([b"[]", b"[1, 2]", b"3", b'"djinn/face"', b"null", b"true"]))
        return case, [_post_bytes(body, eol)], shut
    if case == "unknown image":
        image = draw(st.sampled_from(["rodinia/nope", "djinn/nope", "other/x", "noslash", ""]))
        return case, [_post_bytes(json.dumps({"image": image}).encode(), eol)], shut
    if case == "out-of-range number":
        key, value = draw(st.sampled_from([
            ("headroom", -1), ("headroom", "NaN"), ("scale", 1e12), ("scale", "Infinity"),
            ("seed", "Infinity"), ("batch_size", 1e300), ("qos_threshold_ms", -5),
        ]))
        image = "djinn/face" if key in ("batch_size", "qos_threshold_ms") else "rodinia/lud"
        literal = value if isinstance(value, str) else json.dumps(value)
        body = f'{{"image": "{image}", "{key}": {literal}}}'.encode()
        return case, [_post_bytes(body, eol)], shut
    if case == "deep nesting":
        return case, [_post_bytes(b"[" * draw(st.integers(5_000, 60_000)), eol)], shut
    if case == "body over the cap":
        from repro.serve.server import MAX_BODY_BYTES

        length = MAX_BODY_BYTES + draw(st.integers(1, 10**6))
        sent = draw(st.sampled_from([0, 1_000, MAX_BODY_BYTES + 1]))
        head = f"POST /v1/pods HTTP/1.1{eol}Content-Length: {length}{eol}{eol}".encode()
        return case, [head, b"[" * min(sent, length)], shut
    if case == "head over the cap":
        from repro.serve.server import MAX_HEAD_BYTES

        filler = "a" * (MAX_HEAD_BYTES + draw(st.integers(1, 2_000)))
        head = f"GET /healthz HTTP/1.1{eol}X-Filler: {filler}{eol}{eol}".encode()
        return case, [head], shut
    # Garbage whose method can match no route.
    return case, [b"X" + draw(st.binary(max_size=300))], shut


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(malformed=_malformed())
def test_malformed_requests_get_4xx_and_the_door_keeps_serving(fuzz_door, malformed):
    case, chunks, shut = malformed
    try:
        answer = _exchange(fuzz_door.port, chunks, shut=shut, timeout=2.3)
    except TimeoutError:
        pytest.fail(f"{case}: no answer within the deadline")
    assert 400 <= _status(answer) < 500, (case, answer[:200])
    after = _exchange(fuzz_door.port, [_post_bytes(_VALID_POD)], timeout=5.0)
    assert _status(after) == 202, (case, after[:200])


def test_oversized_bodies_are_refused_before_they_are_read(fuzz_door):
    from repro.serve.server import MAX_BODY_BYTES

    head = f"POST /v1/pods HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
    answer = _exchange(fuzz_door.port, [head], timeout=5.0)     # no body byte sent
    assert _status(answer) == 413
    assert answer.endswith(f"request body over {MAX_BODY_BYTES} bytes\n".encode())
    at_cap = _exchange(fuzz_door.port, [_post_bytes(b" " * (MAX_BODY_BYTES - 2) + b"{}")])
    assert _status(at_cap) == 400                               # read, then invalid


def test_deep_json_is_an_invalid_request():
    from repro.serve import FrontDoor

    cfg = ServeConfig(duration_s=None, paced=True, http=False, **SMALL)
    svc = KnotsService(cfg)
    status, ctype, body, _ = FrontDoor(svc)._submit(b"[" * 200_000)
    assert (status, ctype) == (400, "application/json")
    assert "recursion" in json.loads(body)["error"]
    assert svc.slo.counts()["invalid"] == 1


def test_stop_cuts_a_half_sent_request():
    from repro.serve import FrontDoor

    door = _door(FrontDoor)
    with socket.create_connection(("127.0.0.1", door.port), timeout=5.0) as sock:
        sock.sendall(b"POST /v1/pods HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"ima")
        deadline = time.monotonic() + 5.0
        while not door._conns and time.monotonic() < deadline:
            time.sleep(0.01)
        assert door._conns, "the connection never reached the front door"
        started = time.monotonic()
        door.stop()
        assert time.monotonic() - started < 2.0
        try:
            data = sock.recv(1024)
        except ConnectionResetError:
            data = b""
        assert data == b"", data


def test_a_rejected_headroom_leaves_the_service_placing():
    # A negative headroom must not reach a bind: its negative reservation
    # would raise on the service thread and end the run, dropping every
    # accepted pod.
    from repro.serve import FrontDoor

    cfg = ServeConfig(duration_s=None, paced=True, http=False, **SMALL)
    svc = KnotsService(cfg)
    front = FrontDoor(svc, "127.0.0.1", 0).start()
    report_box = []
    runner = threading.Thread(target=lambda: report_box.append(svc.run()), daemon=True)
    runner.start()
    try:
        status, _, body = _post(f"{front.address}/v1/pods", {"image": "rodinia/lud", "headroom": -1})
        assert status == 400, body
        status, _, body = _post(f"{front.address}/v1/pods", {"image": "rodinia/lud", "seed": 4})
        assert status == 202, body
        deadline = time.monotonic() + 60.0
        while svc.slo.counts()["placed"] < 1 and time.monotonic() < deadline:
            time.sleep(0.05)
        svc.request_stop()
        runner.join(timeout=60.0)
        assert not runner.is_alive(), "service failed to drain"
    finally:
        svc.request_stop()
        front.stop()
    counts = report_box[0].counts
    assert (counts["accepted"], counts["invalid"]) == (1, 1)
    assert counts["placed"] == counts["submitted"] == 1
    assert counts["dropped"] == 0


# -- CLI / signal handling ----------------------------------------------------


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_cli_serve_drains_cleanly_on_sigint(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--qps", "20", "--duration", "60",
         "--nodes", "2", "--gpus-per-node", "2",
         "--status-interval", "0", "--no-http"],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    time.sleep(3.0)                        # let the service accept some load
    proc.send_signal(signal.SIGINT)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        pytest.fail("serve did not drain after SIGINT")
    assert proc.returncode == 0, f"stdout:\n{out}\nstderr:\n{err}"
    assert "draining" in err
    assert "dropped" in out.replace("\n", " ")


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
@pytest.mark.parametrize("mode", ["queue", "pacer"])
def test_sigint_inside_a_held_lock_still_stops(mode):
    # The SIGINT handler runs on the service thread wherever the signal
    # lands.  `queue`: inside the admission queue's lock, and the session
    # must still drain.  `pacer`: the drain cannot finish, and a second
    # SIGINT inside the pacer's wake-event lock must still stop the run.
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tests.serve_sigint_child", mode],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env, capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"serve hung in its SIGINT handler ({mode})")
    assert proc.returncode == 0, f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert counts["submitted"] == counts["accepted"]
    assert counts["dropped"] == 0
    assert counts["undecided"] == (1 if mode == "pacer" else 0)
    assert proc.stderr.count("draining") == (2 if mode == "pacer" else 1)


def _post_until_closed(url: str, codes: list[int], hangs: list[int]) -> None:
    """POST pods back to back until the front door goes away.

    A POST that times out is a hang; one refused or cut off means the
    server has closed its front door and ends the loop.
    """
    for seed in range(100_000):
        try:
            status, _, _ = _post(url, {"image": "djinn/face", "seed": seed}, timeout=5.0)
        except TimeoutError:
            hangs.append(seed)
            return
        except urllib.error.URLError as err:
            if isinstance(err.reason, TimeoutError):
                hangs.append(seed)
            return
        except (http.client.HTTPException, ConnectionError):
            return
        codes.append(status)


def _report_counts(stdout: str) -> dict[str, int]:
    """The CLI table's two count rows as one dict."""
    counts = {}
    for line in stdout.splitlines():
        for row, names in (
            ("offered / accepted / rejected", ("offered", "accepted", "rejected")),
            ("submitted / placed / dropped", ("submitted", "placed", "dropped")),
        ):
            if line.startswith(row):
                values = line[len(row):].split("/")
                counts.update(zip(names, (int(v) for v in values)))
    return counts


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_sigint_at_random_points_under_http_load():
    # One session per delay: the front door is on, a client thread POSTs
    # pods back to back, and SIGINT lands a seeded random time after the
    # server announces its port (at the smallest delays, before the
    # service has ticked).  Every session must drain and exit 0, answer
    # every POST it took, and place every pod it accepted.
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    rng = random.Random(25)
    delays = [0.0] + sorted(rng.uniform(0.05, 1.2) for _ in range(3))
    for delay in delays:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--qps", "0", "--duration", "0", "--port", "0", "--status-interval", "0",
             "--nodes", "2", "--gpus-per-node", "2"],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stderr.readline()
            match = re.search(r"listening on (http://[^\s]+)", line)
            assert match is not None, f"no port announced: {line!r}"
            codes: list[int] = []
            hangs: list[int] = []
            client = threading.Thread(
                target=_post_until_closed, args=(f"{match.group(1)}/v1/pods", codes, hangs),
                daemon=True,
            )
            client.start()
            time.sleep(delay)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            pytest.fail(f"serve hung after SIGINT at {delay:.3f} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        client.join(timeout=10.0)
        assert not client.is_alive(), f"a POST hung (SIGINT at {delay:.3f} s)"
        assert not hangs, f"POST {hangs} timed out (SIGINT at {delay:.3f} s)"
        assert proc.returncode == 0, f"SIGINT at {delay:.3f} s\nstdout:\n{out}\nstderr:\n{err}"
        assert set(codes) <= {202, 429, 503}, codes
        counts = _report_counts(out)
        assert counts["dropped"] == 0
        assert counts["accepted"] == counts["submitted"] == counts["placed"], counts
        # The queue closes on SIGINT and the front door outlives the
        # drain, so every accepted POST got its 202.
        assert counts["accepted"] == codes.count(202), (counts, len(codes))


def test_cli_serve_unpaced_smoke(capsys):
    from repro.cli import main

    rc = main([
        "serve", "--qps", "40", "--duration", "1", "--unpaced",
        "--nodes", "2", "--gpus-per-node", "2", "--status-interval", "0",
        "--no-http", "--seed", "5",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "offered / accepted / rejected" in out
    assert "decision latency p50/p95/p99" in out
