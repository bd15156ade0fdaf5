"""Kube-Knots reproduction: GPU-aware dynamic container orchestration.

A full Python reproduction of *"Kube-Knots: Resource Harvesting through
Dynamic Container Orchestration in GPU-based Datacenters"* (Thinakaran
et al., IEEE CLUSTER 2019), including every substrate the paper runs
on: a discrete-event GPU cluster simulator, a Kubernetes-like
orchestration layer, the Knots telemetry plane (NVML sampler + one
cluster-wide telemetry ring), the CBP and Peak Prediction schedulers,
the Uniform / Res-Ag / Gandiva / Tiresias baselines, the Rodinia /
Djinn&Tonic / Alibaba workload models, and a benchmark harness that
regenerates every figure and table of the paper's evaluation.

Quick start::

    from repro import run_appmix, make_scheduler
    result = run_appmix("app-mix-1", make_scheduler("peak-prediction"),
                        duration_s=10.0, seed=1)
    print(result.qos_violations_per_kilo(), result.total_energy_j())
"""

from repro.cluster.cluster import Cluster, make_heterogeneous_cluster, make_paper_cluster
from repro.core.knots import Knots, KnotsConfig
from repro.core.orchestrator import KubeKnots
from repro.core.schedulers import (
    CBPScheduler,
    PeakPredictionScheduler,
    ResourceAgnosticScheduler,
    Scheduler,
    UniformScheduler,
    make_scheduler,
)
from repro.sim.simulator import KubeKnotsSimulator, SimConfig, SimResult, run_appmix
from repro.workloads.appmix import APP_MIXES, generate_appmix_workload

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "make_paper_cluster",
    "make_heterogeneous_cluster",
    "Knots",
    "KnotsConfig",
    "KubeKnots",
    "Scheduler",
    "UniformScheduler",
    "ResourceAgnosticScheduler",
    "CBPScheduler",
    "PeakPredictionScheduler",
    "make_scheduler",
    "KubeKnotsSimulator",
    "SimConfig",
    "SimResult",
    "run_appmix",
    "APP_MIXES",
    "generate_appmix_workload",
    "__version__",
]
