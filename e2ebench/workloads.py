"""The benchmark's workloads: inputs from a seed, construction, digests.

Every simulation workload draws one fixed job population from the
repo's own generator (``generate_appmix_workload`` at a pinned
population seed) and lets ``--seed`` shift each arrival by up to one
execution tick either way.  The same seed gives the same inputs;
another seed submits the same jobs on other ticks, which changes every
decision that follows, while the amount of work stays put.  Letting the
seed redraw the population instead makes run time swing by 20-30% from
seed to seed (the app-mixes are bursty, a few long batch jobs set the
makespan), and even reordering a fixed population swings the sparse
workload by half its events (a job that arrives before its profile is
learned can wait 80 s), which no regression bound could sit above.
Each run also stops at a fixed simulated horizon, so every seed covers
the same span of cluster time.

The serving workload jitters the due times of ``synthesize_workload``'s
stream the same way.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any

#: Largest shift of an arrival, either way: one execution tick.
JITTER_MS = 10.0

__all__ = [
    "SimWorkload",
    "ServeWorkload",
    "SIM_WORKLOADS",
    "SERVE",
    "WORKLOADS",
    "sim_items",
    "build_sim",
    "serve_requests",
    "result_digest",
]


@dataclass(frozen=True)
class SimWorkload:
    """One offline simulation: a cluster, a policy and a job population."""

    name: str
    scheduler: str
    mix: str
    nodes: int
    gpus_per_node: int
    window_s: float            # arrival window of the job population
    load_factor: float
    population_seed: int       # pins the job population and arrival instants
    horizon_ms: float          # simulated span every seed runs for
    spacing_ms: float | None = None  # evenly spaced arrivals (sparse workloads)
    scenario: str | None = None


@dataclass(frozen=True)
class ServeWorkload:
    """The live service under an open-loop HTTP load."""

    name: str
    qps: float
    sessions: int              # server sessions per --trace 0 run
    load_share: float          # each session's schedule, as a share of --seconds
    trace_load_share: float    # the same, for each of the two --trace 1 sessions
    population_seed: int
    scrape_hz: float = 1.0
    threads: int = 2           # client threads == client connections


SIM_WORKLOADS: dict[str, SimWorkload] = {
    w.name: w
    for w in (
        SimWorkload(
            name="harvest_1024",
            scheduler="cbp", mix="app-mix-1", nodes=1024, gpus_per_node=8,
            window_s=2.0, load_factor=32.0, population_seed=3, horizon_ms=6_000.0,
        ),
        SimWorkload(
            name="paper_pp_32",
            scheduler="peak-prediction", mix="app-mix-3", nodes=32, gpus_per_node=8,
            window_s=90.0, load_factor=1.0, population_seed=3, horizon_ms=90_000.0,
        ),
        SimWorkload(
            name="churn_gang_256",
            scheduler="cbp", mix="app-mix-1", nodes=256, gpus_per_node=8,
            window_s=2.0, load_factor=16.0, population_seed=3, horizon_ms=8_500.0,
            scenario="diurnal-gang",
        ),
        SimWorkload(
            name="idle_sparse_64",
            scheduler="cbp", mix="app-mix-1", nodes=64, gpus_per_node=8,
            window_s=4.0, load_factor=1.0, population_seed=5, horizon_ms=440_000.0,
            spacing_ms=10_000.0,
        ),
    )
}

SERVE = ServeWorkload(
    name="serve_http",
    qps=100.0, sessions=3, load_share=0.25, trace_load_share=0.35, population_seed=1,
)

#: Every workload in the order a suite runs them.
WORKLOADS: dict[str, SimWorkload | ServeWorkload] = {**SIM_WORKLOADS, SERVE.name: SERVE}


def _jitter(items: list[tuple[float, Any]], seed: int) -> list[tuple[float, Any]]:
    """Shift every arrival by a seeded offset of up to one tick either way.

    The jobs and their order stay fixed, so every seed asks for the same
    work; which tick each job is submitted on changes, and with it every
    decision downstream.  The members of a gang keep one instant.
    """
    import numpy as np

    shifts = np.random.default_rng(seed).uniform(-JITTER_MS, JITTER_MS, len(items))
    out: list[tuple[float, Any]] = []
    for (at, spec), shift in zip(items, shifts):
        gang = getattr(spec, "gang", None)
        if gang is not None and gang.rank > 0:
            out.append((out[-1][0], spec))
        else:
            out.append((max(at + float(shift), 0.0), spec))
    out.sort(key=lambda item: item[0])
    return out


def sim_items(w: SimWorkload, seed: int) -> list:
    """The workload's ``(arrival_ms, PodSpec)`` items for ``seed``."""
    from repro.workloads.appmix import generate_appmix_workload

    population = generate_appmix_workload(
        w.mix, duration_s=w.window_s, seed=w.population_seed, load_factor=w.load_factor
    )
    if w.spacing_ms is not None:
        # Gaps longer than any job: each job runs alone, so the idle spans
        # (and the work) do not depend on the order the seed picks.
        population = [(i * w.spacing_ms, spec) for i, (_, spec) in enumerate(population)]
    if w.scenario is not None:
        from repro.scenario import apply_gang_mix, make_scenario

        gangs = make_scenario(w.scenario).gangs
        if gangs is not None:
            population = apply_gang_mix(population, gangs)
    return _jitter(population, seed)


def build_sim(w: SimWorkload, seed: int):
    """Synthesize the inputs and construct the simulator (the set-up)."""
    from repro.cluster.cluster import make_paper_cluster
    from repro.core.schedulers import make_scheduler
    from repro.sim.simulator import KubeKnotsSimulator, SimConfig

    scenario = None
    if w.scenario is not None:
        from repro.scenario import make_scenario

        scenario = make_scenario(w.scenario)
    config = SimConfig(horizon_factor=1.0, min_horizon_ms=w.horizon_ms, scenario=scenario)
    return KubeKnotsSimulator(
        make_paper_cluster(num_nodes=w.nodes, gpus_per_node=w.gpus_per_node),
        make_scheduler(w.scheduler),
        sim_items(w, seed),
        config,
    )


def serve_requests(w: ServeWorkload, seed: int, load_s: float) -> list[tuple[float, dict]]:
    """``(due_s, POST body)`` for the open-loop client, sorted by due time."""
    from repro.serve.loadgen import synthesize_workload

    population = synthesize_workload(w.qps, load_s, seed=w.population_seed)
    # The body's own seed pins the server-side trace synthesis.
    jobs = [
        (at, {"image": spec.image, "name": spec.name, "seed": i})
        for i, (at, spec) in enumerate(population)
    ]
    return [(at / 1_000.0, body) for at, body in _jitter(jobs, seed)]


def _fmt(x: float | None) -> str:
    # Ten significant digits: a real divergence shows, while a last-bit
    # difference from another SIMD reduction order does not.
    return "-" if x is None else format(float(x), ".10g")


def result_digest(result, api) -> str:
    """sha256 over what a run decided and produced: every API event, every
    pod's final state, the run counters and the telemetry totals."""
    h = hashlib.sha256()

    def put(*fields: str) -> None:
        h.update(("\x1f".join(fields) + "\n").encode())

    put("run", _fmt(result.makespan_ms), str(result.oom_kills),
        str(result.evictions), str(result.resizes), str(len(result.pods)))
    for pod in result.pods:
        put(pod.uid, pod.spec.name, pod.spec.image, pod.phase.value,
            str(pod.node_id), str(pod.gpu_id), _fmt(pod.alloc_mb),
            _fmt(pod.progress_ms), str(pod.restart_count), _fmt(pod.submitted_ms),
            _fmt(pod.scheduled_ms), _fmt(pod.started_ms), _fmt(pod.finished_ms))
    for event in api.events:
        put(_fmt(event.time), event.type.value, event.pod_uid, event.detail)
    # Telemetry totals: energy, utilization and memory sums, sample grid.
    put(
        _fmt(math.fsum(result.energy_j_per_gpu.values())),
        _fmt(math.fsum(float(s.sum()) for s in result.gpu_util_series.values())),
        _fmt(math.fsum(float(s.sum()) for s in result.gpu_mem_series.values())),
        str(len(result.sample_times_ms)),
        _fmt(float(result.sample_times_ms.sum()) if len(result.sample_times_ms) else 0.0),
    )
    return h.hexdigest()
