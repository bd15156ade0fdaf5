"""Tests for the scheduler decision audit log.

Covers the log itself (recording, queries, JSONL round-trip) and the
evidence contract of the instrumented policies: every CBP decision
carries the Spearman correlations its gate evaluated, every PP bind the
peak forecast it used.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import make_paper_cluster
from repro.core.orchestrator import KubeKnots
from repro.core.schedulers import CBPScheduler, PeakPredictionScheduler
from repro.obs.audit import KINDS, DecisionAuditLog, NullAuditLog
from repro.obs.context import Observability
from repro.obs.tracer import SimClock
from repro.sim.simulator import run_appmix
from repro.workloads.base import Phase, QoSClass, ResourceDemand, WorkloadTrace
from tests.conftest import make_spec


class TestAuditLog:
    def test_record_and_queries(self):
        log = DecisionAuditLog(SimClock(10.0))
        log.begin_pass("cbp", ts=10.0)
        log.record("bind", pod_uid="p1", gpu_id="n0/gpu0", alloc_mb=1_000)
        log.record("reject", pod_uid="p2", queue_depth=2)
        log.begin_pass("cbp", ts=20.0)
        log.record("resize", pod_uid="p1", gpu_id="n0/gpu0", alloc_mb=800)

        assert len(log) == 3
        assert [r.pass_id for r in log.records] == [0, 0, 1]
        assert log.binds()[0].pod_uid == "p1"
        assert log.rejections()[0].queue_depth == 2
        assert log.resizes()[0].ts == 20.0
        assert [r.kind for r in log.for_pod("p1")] == ["bind", "resize"]
        assert set(log.passes()) == {0, 1}
        assert log.summary() == {"bind": 1, "reject": 1, "resize": 1}

    def test_unknown_kind_rejected(self):
        log = DecisionAuditLog()
        log.begin_pass("cbp")
        with pytest.raises(ValueError, match="unknown decision kind"):
            log.record("destroy")

    def test_jsonl_round_trip(self, tmp_path):
        log = DecisionAuditLog()
        log.begin_pass("pp", ts=5.0)
        log.record(
            "bind", pod_uid="p1", image="img/x", qos="batch",
            gpu_id="n0/gpu0", alloc_mb=512.0, queue_depth=3,
            evidence={"forecast": {"predicted_peak_util": 0.4}},
        )
        log.record("sleep", gpu_id="n1/gpu0")
        path = tmp_path / "audit.jsonl"
        assert log.to_jsonl(path) == 2
        loaded = DecisionAuditLog.read_jsonl(path)
        assert loaded == log.records

    def test_null_log_is_inert(self):
        log = NullAuditLog()
        assert log.enabled is False
        log.begin_pass("cbp")
        log.record("bind", pod_uid="p1")
        assert len(log) == 0


def _ramp_trace(name: str, rising: bool) -> WorkloadTrace:
    """A memory ramp whose direction controls the Spearman sign."""
    mems = [1_000.0, 1_250.0, 1_500.0, 1_750.0, 2_000.0]
    if not rising:
        mems = mems[::-1]
    phases = [
        Phase(20.0, ResourceDemand(sm=0.3, mem_mb=m, tx_mbps=1.0, rx_mbps=1.0))
        for m in mems
    ]
    return WorkloadTrace(name, phases, qos_class=QoSClass.BATCH)


class TestCBPCorrelationEvidence:
    """CBP records carry the ρ values its gate actually evaluated."""

    def _cluster_with_resident(self):
        obs = Observability()
        kk = KubeKnots(make_paper_cluster(num_nodes=1), CBPScheduler(), obs=obs)
        resident = kk.api.submit(
            make_spec("a", image="img/a", mem_mb=1_500, peak_mem_mb=2_000,
                      requested_mem_mb=4_000.0),
            0.0,
        )
        kk.scheduling_pass(0.0)
        assert obs.audit.binds()[0].pod_uid == resident.uid
        kk.knots.profiles.record_trace("img/a", _ramp_trace("a", rising=True))
        return kk, obs

    def test_correlated_pod_rejected_with_rho_evidence(self):
        kk, obs = self._cluster_with_resident()
        # Same ramp shape as the resident: ρ ~ +1, above the 0.5 gate.
        kk.knots.profiles.record_trace("img/b", _ramp_trace("b", rising=True))
        pod = kk.api.submit(
            make_spec("b", image="img/b", requested_mem_mb=4_000.0), 1.0
        )
        kk.scheduling_pass(1.0)

        rejects = [r for r in obs.audit.rejections() if r.pod_uid == pod.uid]
        assert len(rejects) == 1
        attempts = rejects[0].evidence["attempts"]
        correlated = [a for a in attempts if a["outcome"] == "correlated"]
        assert correlated, f"expected a correlation-gate refusal, got {attempts}"
        rho = correlated[0]["correlations"]["img/a"]
        assert rho >= 0.5

    def test_uncorrelated_pod_bound_with_rho_evidence(self):
        kk, obs = self._cluster_with_resident()
        # Opposite ramp: ρ ~ -1, gate passes, and the bind record still
        # carries the evaluated correlation.
        kk.knots.profiles.record_trace("img/c", _ramp_trace("c", rising=False))
        pod = kk.api.submit(
            make_spec("c", image="img/c", requested_mem_mb=4_000.0), 1.0
        )
        kk.scheduling_pass(1.0)

        binds = [r for r in obs.audit.binds() if r.pod_uid == pod.uid]
        assert len(binds) == 1
        evidence = binds[0].evidence
        assert evidence["correlations"] == {"img/a": pytest.approx(-1.0, abs=0.2)}
        assert evidence["attempts"][-1]["outcome"] == "bound"
        assert evidence["percentile"] == 80.0


def _run(scheduler, obs, duration_s=3.0):
    return run_appmix(
        "app-mix-1", scheduler, duration_s=duration_s, seed=2, num_nodes=3, obs=obs
    )


class TestAuditCompleteness:
    """One record per decision, cross-checked against the action stream."""

    @pytest.mark.parametrize("make", [CBPScheduler, PeakPredictionScheduler])
    def test_one_record_per_decision(self, make):
        obs = Observability(trace=False)
        _run(make(), obs)
        audit = obs.audit
        assert len(audit) > 0
        assert all(r.kind in KINDS for r in audit.records)

        # Every applied action of an audited kind has exactly one record.
        actions = obs.metrics.get("scheduler_actions_total")
        assert len(audit.binds()) == actions.value(kind="bind")
        assert len(audit.resizes()) == actions.value(kind="resize")
        assert len(audit.of_kind("sleep")) == actions.value(kind="sleep")
        assert len(audit.of_kind("wake")) == actions.value(kind="wake")
        # ... and every bind reached a kubelet admission.
        admitted = obs.metrics.get("pods_admitted_total")
        assert admitted.value() == len(audit.binds())

    @pytest.mark.parametrize("make", [CBPScheduler, PeakPredictionScheduler])
    def test_at_most_one_verdict_per_pod_per_pass(self, make):
        obs = Observability(trace=False)
        _run(make(), obs)
        for pass_id, records in obs.audit.passes().items():
            verdicts = [r.pod_uid for r in records if r.kind in ("bind", "reject")]
            assert len(verdicts) == len(set(verdicts)), (
                f"pod audited twice in pass {pass_id}"
            )

    def test_cbp_binds_carry_correlation_field(self):
        obs = Observability(trace=False)
        _run(CBPScheduler(), obs)
        for rec in obs.audit.binds():
            assert "correlations" in rec.evidence
            assert rec.evidence["attempts"][-1]["outcome"] == "bound"
            assert rec.scheduler == "cbp"

    def test_pp_binds_carry_forecast(self):
        obs = Observability(trace=False)
        result = _run(PeakPredictionScheduler(), obs)
        binds = obs.audit.binds()
        assert binds, "PP run placed no pods"
        for rec in binds:
            assert "forecast" in rec.evidence, rec
            assert rec.evidence["admitted_via"] in ("correlation-gate", "forecast", "wake")
        # Forecasts that went through the ARIMA branch carry the
        # predicted peak the admission compared against.
        arima = [
            r for r in binds
            if r.evidence["admitted_via"] == "forecast"
            and "predicted_peak_util" in r.evidence["forecast"]
        ]
        for rec in arima:
            f = rec.evidence["forecast"]
            assert 0.0 <= f["predicted_peak_util"] <= 1.0
            assert f["admitted"] is True
        assert result.makespan_ms > 0

    def test_rejects_carry_candidate_attempts(self):
        obs = Observability(trace=False)
        _run(CBPScheduler(), obs, duration_s=4.0)
        for rec in obs.audit.rejections():
            assert rec.pod_uid is not None
            assert rec.gpu_id is None
            assert isinstance(rec.evidence["attempts"], list)

    @pytest.mark.parametrize("make", [CBPScheduler, PeakPredictionScheduler])
    def test_attempts_list_only_devices_offered_to_the_gate(self, make):
        obs = Observability(trace=False)
        _run(make(), obs, duration_s=4.0)
        verdicts = obs.audit.binds() + obs.audit.rejections()
        assert verdicts
        for rec in verdicts:
            outcomes = {a["outcome"] for a in rec.evidence["attempts"]}
            assert outcomes <= {"correlated", "forecast-reject", "bound"}, rec
            for a in rec.evidence["attempts"]:
                assert type(a["free_mb"]) is float and type(a["sm"]) is float
            assert isinstance(rec.evidence["no_fit"], int), rec
            assert rec.evidence["no_fit"] >= 0

    @pytest.mark.parametrize("make", [CBPScheduler, PeakPredictionScheduler])
    def test_pod_that_fits_nowhere_counts_every_placeable_device(self, make):
        obs = Observability(trace=False)
        kk = KubeKnots(make_paper_cluster(num_nodes=4), make(), obs=obs)
        kk.fail_gpu("node2/gpu0")           # not placeable: not counted
        pod = kk.api.submit(
            make_spec("huge", requested_mem_mb=20_000.0, mem_mb=19_000.0), 0.0
        )
        assert kk.scheduling_pass(0.0) == []
        (reject,) = obs.audit.rejections()
        assert reject.pod_uid == pod.uid
        assert reject.evidence["attempts"] == []
        assert reject.evidence["no_fit"] == 3

    def test_disabled_obs_records_nothing(self):
        obs = Observability.disabled()
        _run(CBPScheduler(), obs)
        assert len(obs.audit) == 0
        assert len(obs.tracer) == 0
        assert obs.metrics.render() == ""
