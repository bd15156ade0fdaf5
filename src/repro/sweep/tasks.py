"""Task vocabulary for the sweep fabric.

A task is a frozen dataclass describing one simulation completely: the
workload, the policy, and every knob that can change the outcome.  Two
invariants follow from that:

* **Picklable** — tasks cross the process-pool boundary, so they hold
  only primitives (strings, numbers, tuples, frozen dataclasses); the
  heavy objects (cluster, scheduler, workload) are built inside
  :meth:`execute`, in whichever process runs it.
* **Canonical repr** — the auto-generated dataclass ``repr`` is the
  task's cache identity (see :func:`repro.sweep.store.task_key`), so
  every outcome-relevant knob must be a field and defaults must be
  spelled the same way everywhere (e.g. kwargs as sorted tuples).

Heavy imports happen lazily inside ``execute`` so that unpickling a
task in a worker only loads this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # imported lazily at runtime to keep workers light
    from repro.experiments.runner import ExperimentSettings
    from repro.sim.dlsim import DLSimResult
    from repro.sim.simulator import SimResult
    from repro.workloads.dlt import DLWorkloadConfig

__all__ = ["MixTask", "DLTask", "HeteroTask", "ScenarioTask", "execute_task"]


@dataclass(frozen=True)
class MixTask:
    """One (app-mix, scheduler) cluster simulation.

    ``scheduler_kwargs`` parameterizes the scheduler (the ablation
    sweeps: ``(("percentile", 90.0),)`` etc.); ``heartbeat_ms``
    overrides the Knots heartbeat cadence (the staleness ablation).
    Pass kwargs as a *sorted* tuple of pairs so equal tasks spell
    equal reprs.
    """

    mix: str
    scheduler: str
    settings: "ExperimentSettings"
    scheduler_kwargs: tuple[tuple[str, Any], ...] = ()
    heartbeat_ms: float | None = None

    def execute(self) -> "SimResult":
        from repro.core.schedulers import make_scheduler
        from repro.sim.simulator import SimConfig, run_appmix

        s = self.settings
        if self.heartbeat_ms is None:
            config = SimConfig(fast_forward=s.fast_forward)
        else:
            from repro.core.knots import KnotsConfig

            config = SimConfig(
                fast_forward=s.fast_forward,
                knots=KnotsConfig(heartbeat_ms=self.heartbeat_ms),
            )
        return run_appmix(
            self.mix,
            make_scheduler(self.scheduler, **dict(self.scheduler_kwargs)),
            duration_s=s.duration_s,
            seed=s.seed,
            num_nodes=s.num_nodes,
            gpus_per_node=s.gpus_per_node,
            config=config,
            load_factor=s.load_factor,
        )


@dataclass(frozen=True)
class DLTask:
    """One DL-cluster simulation (Sec. V-C policies).

    The job list is regenerated from ``(config, jobs_seed)`` inside the
    worker — :func:`repro.workloads.dlt.generate_dl_workload` is
    deterministic, so this is equivalent to the deep-copied shared
    workload the paired comparisons used, without shipping jobs across
    the pool.
    """

    policy: str
    jobs_seed: int = 1
    config: "DLWorkloadConfig | None" = None
    policy_kwargs: tuple[tuple[str, Any], ...] = ()

    def execute(self) -> "DLSimResult":
        from repro.sim.dlsim import DLClusterSimulator, make_dl_policy
        from repro.workloads.dlt import generate_dl_workload

        jobs = generate_dl_workload(self.config, seed=self.jobs_seed)
        policy = make_dl_policy(self.policy, **dict(self.policy_kwargs))
        return DLClusterSimulator(jobs, policy).run()


@dataclass(frozen=True)
class ScenarioTask:
    """One (scenario, app-mix, scheduler) cluster simulation.

    The scenario is referenced by *registry name*
    (:data:`repro.scenario.spec.SCENARIOS`) rather than by value: the
    name is the content of the catalog entry, so the task repr — and
    with it the cache key — stays short, canonical and stable.
    """

    scenario: str
    mix: str
    scheduler: str
    settings: "ExperimentSettings"

    def execute(self) -> "SimResult":
        from repro.core.schedulers import make_scheduler
        from repro.scenario.spec import make_scenario
        from repro.sim.simulator import SimConfig, run_appmix

        s = self.settings
        config = SimConfig(
            fast_forward=s.fast_forward, scenario=make_scenario(self.scenario)
        )
        return run_appmix(
            self.mix,
            make_scheduler(self.scheduler),
            duration_s=s.duration_s,
            seed=s.seed,
            num_nodes=s.num_nodes,
            gpus_per_node=s.gpus_per_node,
            config=config,
            load_factor=s.load_factor,
        )


@dataclass(frozen=True)
class HeteroTask:
    """One run on the Fig. 5 heterogeneous cluster (extension study)."""

    scheduler: str
    seed: int = 0

    def execute(self) -> "SimResult":
        from repro.cluster.cluster import make_heterogeneous_cluster
        from repro.core.schedulers import make_scheduler
        from repro.experiments.hetero import FIG5_MODELS, build_hetero_workload
        from repro.sim.simulator import KubeKnotsSimulator

        cluster = make_heterogeneous_cluster(FIG5_MODELS)
        sim = KubeKnotsSimulator(
            cluster, make_scheduler(self.scheduler), build_hetero_workload(self.seed)
        )
        return sim.run()


def execute_task(task) -> Any:
    """Run one task; the function a pool worker imports and calls.

    Module-level (not a method reference) so ``ProcessPoolExecutor``
    pickles it by qualified name regardless of the task type.
    """
    return task.execute()
