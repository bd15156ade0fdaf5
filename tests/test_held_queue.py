"""A held queue skips its repeat passes and fast-forwards like an idle
cluster, without changing what a run computes.

Every registered scheduler runs two cases: the CI smoke's light
``app-mix-1`` load, where CBP's largest requests wait for their image's
first profile, and a run whose last pod fits no device and so waits to
the horizon.  Each runs with holds and with the rule before them, which
skipped a pass only with nothing pending (``_repeats_noop`` patched in
the test; there is no switch for it).  Both must compute the same
results, API event log and sample times; the held run executes fewer
live ticks wherever a queue is held.  Sanitized runs compare the same
way; a held one reports no violation, and its skipped passes with pods
pending are re-run and checked (``idle_pass_noop``).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.cluster.cluster import make_paper_cluster
from repro.core.orchestrator import KubeKnots
from repro.core.schedulers import SCHEDULERS, make_scheduler
from repro.obs.context import Observability
from repro.sim.simulator import KubeKnotsSimulator, SimConfig
from repro.workloads.appmix import generate_appmix_workload
from tests.conftest import make_spec
from tests.test_sim_equivalence import assert_kk_identical

_held_rule = KubeKnots._repeats_noop


def _rule_before_holds(self: KubeKnots) -> bool:
    """The idle-pass rule before held queues: a pass repeats a no-op
    only with nothing pending (with nothing pending both rules agree)."""
    return not self.api.num_pending() and _held_rule(self)


def _ci():
    """``repro simulate --mix 1 --scheduler cbp --duration 60
    --load-factor 0.02``'s cluster, workload and config."""
    workload = generate_appmix_workload("app-mix-1", duration_s=60.0, seed=1, load_factor=0.02)
    return make_paper_cluster(num_nodes=10), workload, SimConfig()


#: When the oversized pod of the horizon case arrives.
OVERSIZED_AT_MS = 10_000.0


def _horizon():
    """A light load, then a pod larger than any device: it never fits,
    so it waits, pending, until the 30 s horizon."""
    workload = generate_appmix_workload("app-mix-1", duration_s=10.0, seed=1, load_factor=0.05)
    oversized = make_spec("oversized", image="img/oversized", requested_mem_mb=20_000.0,
                          mem_mb=18_000.0, duration_ms=1_000.0)
    workload.append((OVERSIZED_AT_MS, oversized))
    return make_paper_cluster(num_nodes=4), workload, SimConfig(
        horizon_factor=1.0, min_horizon_ms=30_000.0
    )


CASES = {"ci": _ci, "horizon": _horizon}


class Run:
    """One run's result, API event log, live ticks and fast-forwarded
    spans ``(from_ms, ticks)``, and the pending queue's length at each
    ``idle_pass_noop`` check of a sanitized run."""

    def __init__(self, scheduler: str, case: str, obs: Observability | None = None) -> None:
        cluster, workload, config = CASES[case]()
        sim = KubeKnotsSimulator(cluster, make_scheduler(scheduler), workload, config, obs=obs)
        self.spans: list[tuple[float, int]] = []
        self.idle_checks: list[int] = []
        fast_forward = sim._maybe_fast_forward

        def spy(now: float, t_next: float) -> None:
            skipped = sim.ticks_skipped
            fast_forward(now, t_next)
            if sim.ticks_skipped > skipped:
                self.spans.append((now, sim.ticks_skipped - skipped))

        sim._maybe_fast_forward = spy
        if obs is not None and obs.sanitizer is not None:
            check = obs.sanitizer.check_idle_pass

            def checked(actions) -> None:
                self.idle_checks.append(sim.orchestrator.api.num_pending())
                check(actions)

            obs.sanitizer.check_idle_pass = checked
        self.san = obs.sanitizer if obs is not None else None
        self.result = sim.run()
        self.events = [(e.time, e.type.value, e.pod_uid, e.detail)
                       for e in sim.orchestrator.api.events]
        self.live_ticks = sim.events_fired
        self.horizon_ms = sim._horizon
        self.tick_ms = config.tick_ms


def _sanitized() -> Observability:
    return Observability(trace=False, metrics=False, audit=False, sanitize=True)


@pytest.fixture(scope="module", params=sorted(SCHEDULERS))
def runs(request):
    """A registered scheduler's runs of every case: ``{(case,
    sanitized): (held, unheld)}``."""
    name = request.param
    mp = pytest.MonkeyPatch()
    out = {}
    for case in CASES:
        for sanitized in (False, True):
            held = Run(name, case, _sanitized() if sanitized else None)
            mp.setattr(KubeKnots, "_repeats_noop", _rule_before_holds)
            try:
                unheld = Run(name, case, _sanitized() if sanitized else None)
            finally:
                mp.undo()
            out[case, sanitized] = (held, unheld)
    return name, out


@pytest.mark.parametrize("sanitized", [False, True], ids=["dark", "sanitized"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_held_runs_equal_unheld_runs(runs, case, sanitized):
    name, out = runs
    held, unheld = out[case, sanitized]
    tag = f"{name}/{case}"
    assert_kk_identical(held.result, unheld.result, tag)
    assert held.events == unheld.events, tag
    # The CI case holds a queue only under CBP: Res-Ag and Uniform place
    # the big pods on their requests, PP wakes a device for them.
    if case == "horizon" or name == "cbp":
        assert held.live_ticks < unheld.live_ticks, tag
    else:
        assert held.live_ticks == unheld.live_ticks, tag


@pytest.mark.parametrize("case", sorted(CASES))
def test_sanitized_held_runs_are_clean_and_check_held_passes(runs, case):
    name, out = runs
    held, unheld = out[case, True]
    tag = f"{name}/{case}"
    assert held.san.violations == [] and unheld.san.violations == [], tag
    # Under CBP both queues are held while a device still idles awake,
    # so the sanitized run re-runs held passes before it can
    # fast-forward.  Under Uniform the oversized pod arrives to a parked
    # cluster, and its run skips from the first failed pass to the
    # horizon.
    if name == "cbp":
        assert any(held.idle_checks), f"{tag}: no held pass was checked"
    assert not any(unheld.idle_checks), tag


def test_the_horizon_case_fast_forwards_only_with_holds(runs):
    name, out = runs
    held, unheld = out["horizon", False]
    after = [span for span in held.spans if span[0] >= OVERSIZED_AT_MS]
    assert after, f"{name}: no span after the oversized pod arrived"
    start, ticks = held.spans[-1]
    assert start + (ticks + 1) * held.tick_ms > held.horizon_ms, f"{name}: stopped short"
    assert not [span for span in unheld.spans if span[0] >= OVERSIZED_AT_MS], name
    assert held.result.makespan_ms == unheld.result.makespan_ms > held.horizon_ms


def test_a_sanitized_audited_run_logs_no_record_outside_a_pass(tmp_path, capsys):
    """The sanitizer's re-run of a held pass writes no audit record:
    every pass's records carry its own timestamp and name each pod at
    most once."""
    audit = tmp_path / "audit.jsonl"
    assert main([
        "simulate", "--mix", "1", "--scheduler", "cbp", "--duration", "60",
        "--load-factor", "0.02", "--sanitize", "--audit", str(audit),
    ]) == 0
    assert "0 violations" in capsys.readouterr().out
    passes: dict[int, list[dict]] = {}
    for line in audit.read_text().splitlines():
        record = json.loads(line)
        passes.setdefault(record["pass_id"], []).append(record)
    rejects = sum(r["kind"] == "reject" for records in passes.values() for r in records)
    assert rejects
    for pass_id, records in passes.items():
        assert len({r["ts"] for r in records}) == 1, pass_id
        pods = [r["pod_uid"] for r in records if r["pod_uid"] is not None]
        assert len(pods) == len(set(pods)), pass_id
