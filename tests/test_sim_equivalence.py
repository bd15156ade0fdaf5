"""Same-seed equivalence: event-driven simulators vs the reference loops.

The PR that moved both simulators onto the shared
:class:`repro.sim.engine.EventLoop` pins bit-identical outputs against
verbatim copies of the old hand-rolled time loops
(:mod:`repro.sim.reference`).  Pod UIDs come from a process-global
counter, so comparisons are positional and UID-invariant.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cluster.cluster import make_paper_cluster
from repro.core.knots import Knots, KnotsConfig
from repro.core.schedulers import make_scheduler
from repro.obs.context import Observability
from repro.sim.dlsim import DLClusterSimulator, make_dl_policy
from repro.sim.reference import run_dl_reference, run_tick_reference
from repro.sim.simulator import DeviceFault, KubeKnotsSimulator, SimConfig
from repro.telemetry.nvml import METRICS
from repro.workloads.appmix import generate_appmix_workload
from repro.workloads.dlt import DLWorkloadConfig, generate_dl_workload
from tests.conftest import make_spec

KK_SCHEDULERS = ["cbp", "peak-prediction", "uniform", "res-ag"]
DL_POLICIES = ["cbp-pp", "gandiva", "res-ag", "tiresias"]


def pod_signature(result):
    """UID-invariant per-pod lifecycle signature, in submission order."""
    return [
        (str(p.phase), p.submitted_ms, p.started_ms, p.finished_ms,
         p.gpu_id, p.alloc_mb, p.restart_count)
        for p in result.pods
    ]


def assert_kk_identical(ra, rb, tag):
    assert ra.makespan_ms == rb.makespan_ms, tag
    assert ra.energy_j_per_gpu == rb.energy_j_per_gpu, tag
    assert np.array_equal(ra.sample_times_ms, rb.sample_times_ms), tag
    assert set(ra.gpu_util_series) == set(rb.gpu_util_series), tag
    for gpu_id in ra.gpu_util_series:
        assert np.array_equal(ra.gpu_util_series[gpu_id], rb.gpu_util_series[gpu_id]), (tag, gpu_id)
        assert np.array_equal(ra.gpu_mem_series[gpu_id], rb.gpu_mem_series[gpu_id]), (tag, gpu_id)
    assert pod_signature(ra) == pod_signature(rb), tag
    assert (ra.oom_kills, ra.evictions, ra.resizes) == (rb.oom_kills, rb.evictions, rb.resizes), tag


def build_sparse(sched, obs=None, **config):
    """Arrival gaps stretched 40x on two nodes: idle spans between jobs."""
    wl = generate_appmix_workload("app-mix-1", duration_s=0.6, seed=5)
    wl = [(at * 40.0, spec) for at, spec in wl]
    return KubeKnotsSimulator(
        make_paper_cluster(num_nodes=2),
        make_scheduler(sched),
        wl,
        SimConfig(min_horizon_ms=4_000.0, **config),
        obs=obs,
    )


def build_gapped(sched, spacing_ms, **config):
    """Four 300 ms jobs ``spacing_ms`` apart on two nodes: each job ends
    long before the next arrives, and its device idles awake until the
    2 s auto-pstate deadline."""
    wl = [(i * spacing_ms, make_spec(f"job{i}", duration_ms=300.0)) for i in range(4)]
    return KubeKnotsSimulator(
        make_paper_cluster(num_nodes=2), make_scheduler(sched), wl, SimConfig(**config)
    )


def record_spans(sim):
    """Collect ``(end, awake)`` for each span ``sim`` fast-forwards:
    the tick it resumes on, and whether a device was awake throughout."""
    spans = []
    fast_forward = sim._maybe_fast_forward

    def recorded(now, t_next):
        taken = sim.fast_forwards
        awake = not np.all(sim.state.asleep | sim.state.failed)
        fast_forward(now, t_next)
        if sim.fast_forwards > taken:
            spans.append((sim._harness.next_tick, awake))

    sim._maybe_fast_forward = recorded
    return spans


class TestKubeKnotsEquivalence:
    @pytest.mark.parametrize("sched", KK_SCHEDULERS)
    def test_dense_appmix_bit_identical(self, sched):
        def build():
            return KubeKnotsSimulator(
                make_paper_cluster(num_nodes=3),
                make_scheduler(sched),
                generate_appmix_workload("app-mix-1", duration_s=2.0, seed=3),
                SimConfig(min_horizon_ms=12_000.0),
            )

        a = build()
        ra = a.run()
        rb = run_tick_reference(build())
        assert_kk_identical(ra, rb, sched)
        assert a.events_fired > 0

    def test_faults_and_cancellable_repairs_bit_identical(self):
        faults = [
            DeviceFault(at_ms=200.0, gpu_id="node1/gpu0", duration_ms=900.0),
            DeviceFault(at_ms=350.0, gpu_id="node2/gpu0", duration_ms=400.0),
            # Fault on an already-failed device: swallowed, no second repair.
            DeviceFault(at_ms=400.0, gpu_id="node1/gpu0", duration_ms=100.0),
        ]

        def build():
            return KubeKnotsSimulator(
                make_paper_cluster(num_nodes=3),
                make_scheduler("cbp"),
                generate_appmix_workload("app-mix-1", duration_s=2.0, seed=3),
                SimConfig(min_horizon_ms=12_000.0, faults=list(faults)),
            )

        assert_kk_identical(build().run(), run_tick_reference(build()), "faults")

    @pytest.mark.parametrize("sched", KK_SCHEDULERS)
    def test_sparse_fast_forward_bit_identical(self, sched):
        """Stretched arrival gaps force idle spans: fast-forward must
        actually fire and stay bit-identical to the tick-by-tick loop."""
        a = build_sparse(sched)
        ra = a.run()
        rb = run_tick_reference(build_sparse(sched))
        assert_kk_identical(ra, rb, f"sparse/{sched}")
        assert a.fast_forwards > 0
        assert a.ticks_skipped > 0

    @pytest.mark.parametrize("spacing_ms", [1_000.0, 6_000.0], ids=["1s", "6s"])
    @pytest.mark.parametrize("sched", KK_SCHEDULERS)
    def test_spans_over_awake_gaps_bit_identical(self, sched, spacing_ms):
        """A span may start while a device idles awake.  At 1 s spacing
        it runs to the arrival with the device still awake; at 6 s one
        span ends at the auto-pstate deadline (the node steps, its
        device sleeps) and a second runs on to the arrival."""
        a = build_gapped(sched, spacing_ms)
        spans = record_spans(a)
        ra = a.run()
        tag = f"gapped/{sched}/{spacing_ms:g}"
        assert_kk_identical(ra, build_gapped(sched, spacing_ms, fast_forward=False).run(), tag)
        assert_kk_identical(ra, run_tick_reference(build_gapped(sched, spacing_ms)), tag)
        arrivals = {at for at, _ in a.workload}
        assert any(awake for _, awake in spans), f"{tag}: no span started awake"
        if spacing_ms < 2_000.0:
            assert any(end in arrivals and awake for end, awake in spans), tag
        else:
            assert any(
                first[0] not in arrivals and second[0] in arrivals
                for first, second in zip(spans, spans[1:])
            ), f"{tag}: no deadline-ended span followed by one to the arrival"

    @pytest.mark.parametrize("metrics", [False, True], ids=["dark", "metrics"])
    def test_span_heartbeats_match_one_heartbeat_per_time(self, monkeypatch, metrics):
        """A fast-forward logs its observable tail with one
        ``Knots.heartbeat_span`` call; one ``Knots.heartbeat`` per time
        must leave the same result, ring and heartbeat count."""

        def run(per_time):
            with monkeypatch.context() as m:
                if per_time:
                    def heartbeat_span(knots, times):
                        for now in times:
                            knots.heartbeat(now)

                    m.setattr(Knots, "heartbeat_span", heartbeat_span)
                obs = Observability(trace=False, metrics=True, audit=False) if metrics else None
                sim = build_sparse("cbp", obs=obs)
                return sim, sim.run()

        a, ra = run(per_time=False)
        b, rb = run(per_time=True)
        assert a.fast_forwards > 0
        assert_kk_identical(ra, rb, "span")
        ring_a, ring_b = a.orchestrator.knots.matrix, b.orchestrator.knots.matrix
        assert ring_a.count == ring_b.count == ring_a.capacity    # wrapped
        assert (ring_a.head, ring_a.version, ring_a.last_t) == (
            ring_b.head, ring_b.version, ring_b.last_t
        )
        assert ring_a.times.tobytes() == ring_b.times.tobytes()
        for metric in METRICS:
            assert ring_a.data[metric].tobytes() == ring_b.data[metric].tobytes(), metric
        if metrics:
            count = {
                sim.obs.metrics.counter("knots_heartbeats_total").value() for sim in (a, b)
            }
            assert len(count) == 1 and count.pop() > 0

    def test_every_window_read_after_a_fast_forward_matches(self, monkeypatch):
        """Only the observable tail of a span is logged: at every live
        heartbeat, each device's query window is the one the run would
        hold had it ticked through every span.  A 0.5 s window is shorter
        than most spans, so most tails start inside their span.  The
        tail is measured back from the span's end, which is an
        auto-pstate deadline for some spans here, not the arrival."""

        def windows(ff):
            seen = {}
            heartbeat = Knots.heartbeat

            def logged(knots, now):
                heartbeat(knots, now)
                window_ms = knots.config.window_ms
                digest = hashlib.sha256()
                for col in range(len(knots.state)):
                    read = knots.matrix.query(col, METRICS, now - window_ms, now)
                    for metric in METRICS:
                        digest.update(read[metric].times.tobytes())
                        digest.update(read[metric].values.tobytes())
                seen[now] = digest.digest()

            with monkeypatch.context() as m:
                m.setattr(Knots, "heartbeat", logged)
                sim = build_sparse(
                    "peak-prediction", fast_forward=ff, knots=KnotsConfig(window_ms=500.0)
                )
                spans = record_spans(sim)
                sim.run()
            return sim, seen, spans

        a, live, spans = windows(True)
        _, every, _ = windows(False)
        assert a.fast_forwards > 0 and len(live) < len(every)
        assert {t: every[t] for t in live} == live
        tick = a.config.tick_ms
        arrivals = [at for at, _ in a.workload]
        assert any(
            not any(end - tick < at <= end for at in arrivals) for end, _ in spans
        ), "no span ended at a deadline"

    def test_fast_forward_off_matches_too(self):
        a = build_sparse("cbp", fast_forward=False)
        ra = a.run()
        assert a.fast_forwards == 0
        assert_kk_identical(ra, run_tick_reference(build_sparse("cbp")), "ff-off")


class TestDLEquivalence:
    @pytest.mark.parametrize("policy", DL_POLICIES)
    def test_dl_policies_bit_identical(self, policy):
        cfg = DLWorkloadConfig(n_training=20, n_inference=40, window_s=1200.0)

        def build():
            jobs = generate_dl_workload(cfg, seed=11)
            return DLClusterSimulator(
                jobs, make_dl_policy(policy), n_nodes=4, gpus_per_node=4
            )

        a = build()
        ra = a.run()
        rb = run_dl_reference(build())
        assert ra.horizon_s == rb.horizon_s, policy
        assert a.events_fired > 0
        sig_a = [(j.job_id, str(j.kind), j.arrival_s, j.start_s, j.finish_s,
                  j.preemptions, j.migrations) for j in ra.jobs]
        sig_b = [(j.job_id, str(j.kind), j.arrival_s, j.start_s, j.finish_s,
                  j.preemptions, j.migrations) for j in rb.jobs]
        assert sig_a == sig_b, policy


class TestSimResultCaching:
    def test_completed_and_latency_are_cached(self):
        sim = KubeKnotsSimulator(
            make_paper_cluster(num_nodes=2),
            make_scheduler("cbp"),
            generate_appmix_workload("app-mix-1", duration_s=1.0, seed=1),
            SimConfig(min_horizon_ms=8_000.0),
        )
        result = sim.run()
        assert result.completed() is result.completed()
        assert result.latency_pods() is result.latency_pods()
        assert all(p.done for p in result.completed())
