"""Simulators: event engine, shared harness, cluster + DL-cluster simulators."""

from repro.sim.dlsim import DLClusterSimulator, DLSimResult, make_dl_policy, run_dl_comparison
from repro.sim.engine import EventHandle, EventLoop, RepeatingEvent, SimulationError
from repro.sim.harness import FaultPlan, GridOneShot, TickHarness, run_until_idle
from repro.sim.simulator import KubeKnotsSimulator, SimConfig, SimResult, run_appmix

__all__ = [
    "EventLoop",
    "EventHandle",
    "RepeatingEvent",
    "SimulationError",
    "TickHarness",
    "GridOneShot",
    "FaultPlan",
    "run_until_idle",
    "KubeKnotsSimulator",
    "SimConfig",
    "SimResult",
    "run_appmix",
    "DLClusterSimulator",
    "DLSimResult",
    "make_dl_policy",
    "run_dl_comparison",
]
