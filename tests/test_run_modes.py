"""Observing a run does not change what it computes.

Every registered scheduler runs three cases — a dense mix, capacity
churn with gangs and a device fault, and sparse arrivals that idle
fast-forward — dark, fully observed (trace, metrics, audit) and
sanitized.  All three record telemetry from the same ClusterState
columns, and an observed run takes the dark run's kubelet tick, so it
must equal the dark run bit for bit, API event log included.  A loaded
32×8 case checks that on the vectorized quantum too.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import make_paper_cluster
from repro.core.schedulers import SCHEDULERS, make_scheduler
from repro.obs.context import Observability
from repro.scenario.gangs import apply_gang_mix
from repro.scenario.spec import SCENARIOS
from repro.sim.simulator import DeviceFault, KubeKnotsSimulator, SimConfig
from repro.workloads.appmix import generate_appmix_workload
from tests.test_sim_equivalence import assert_kk_identical


def _dense():
    workload = generate_appmix_workload("app-mix-1", duration_s=2.0, seed=3, load_factor=4.0)
    return make_paper_cluster(num_nodes=6, gpus_per_node=2), workload, SimConfig(
        min_horizon_ms=8_000.0
    )


def _gang_fault():
    scenario = SCENARIOS["diurnal-gang"]
    workload = apply_gang_mix(
        generate_appmix_workload("app-mix-1", duration_s=2.0, seed=3), scenario.gangs
    )
    return make_paper_cluster(num_nodes=8, gpus_per_node=2), workload, SimConfig(
        min_horizon_ms=8_000.0,
        faults=(DeviceFault(at_ms=1_000.0, gpu_id="node2/gpu0", duration_ms=2_000.0),),
        scenario=scenario,
    )


def _sparse():
    jobs = generate_appmix_workload("app-mix-1", duration_s=2.0, seed=5)[:6]
    workload = [(i * 6_000.0, spec) for i, (_, spec) in enumerate(jobs)]
    return make_paper_cluster(num_nodes=4, gpus_per_node=2), workload, SimConfig(
        horizon_factor=1.0, min_horizon_ms=40_000.0
    )


def _loaded():
    """Enough running pods at once that ticks take the quantum's
    vectorized path at the default ``min_batch``."""
    workload = generate_appmix_workload(
        "app-mix-1", duration_s=1.0, seed=3, load_factor=32.0
    )
    return make_paper_cluster(num_nodes=32, gpus_per_node=8), workload, SimConfig(
        min_horizon_ms=4_000.0
    )


CASES = {"dense": _dense, "gang-fault": _gang_fault, "sparse": _sparse}


def _run(scheduler_name: str, build, obs: Observability | None):
    """One run of ``build()``'s case and its API event log; a sanitizer
    armed in ``obs`` halts on its first violation."""
    cluster, workload, config = build()
    sim = KubeKnotsSimulator(cluster, make_scheduler(scheduler_name), workload, config, obs=obs)
    result = sim.run()
    return result, [(e.time, e.type.value, e.pod_uid, e.detail) for e in sim.orchestrator.api.events]


@pytest.fixture(scope="module", params=sorted(SCHEDULERS))
def dark(request):
    """A registered scheduler and its dark run of every case."""
    return request.param, {case: _run(request.param, build, None) for case, build in CASES.items()}


def test_observed_runs_equal_dark_runs(dark):
    scheduler_name, dark_runs = dark
    for case, (dark_run, dark_events) in dark_runs.items():
        observed, events = _run(scheduler_name, CASES[case], Observability())
        assert_kk_identical(observed, dark_run, (scheduler_name, case))
        assert events == dark_events, (scheduler_name, case)


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
def test_observed_runs_take_the_dark_runs_quantum_ticks(scheduler_name):
    dark_run, dark_events = _run(scheduler_name, _loaded, None)
    observed, events = _run(scheduler_name, _loaded, Observability())
    assert dark_run.fast_quantum_ticks > 0, scheduler_name
    assert observed.fast_quantum_ticks == dark_run.fast_quantum_ticks, scheduler_name
    assert events == dark_events, scheduler_name
    assert_kk_identical(observed, dark_run, scheduler_name)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason='ROADMAP: "Quiescence skipping holds stale busy samples" — a dark run '
    "skips a node whose last pod finished and keeps its busy sample; a "
    "sanitized run steps it and records the idle one",
)
def test_sanitized_runs_equal_dark_runs(dark):
    scheduler_name, dark_runs = dark
    for case, (dark_run, _) in dark_runs.items():
        sanitized, _ = _run(
            scheduler_name, CASES[case],
            Observability(trace=False, metrics=False, audit=True, sanitize=True),
        )
        assert_kk_identical(sanitized, dark_run, (scheduler_name, case))
