"""Tests for the serving layer: queue, SLO tracking, load generator,
the Knots service and the HTTP front door (e2e smoke)."""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

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
    ])
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises((ValueError, TypeError)):
            spec_from_json(payload)


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
            assert err.value.code == 404
        finally:
            front.stop()


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
