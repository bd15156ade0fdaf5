"""A/B equivalence and scale smokes for the CBP/PP scheduling pass.

The array pass over :class:`ArrayPassState` is the only CBP/PP pass in
every mode; the per-device dict pass it replaced lives on in
:mod:`tests.dict_pass` as the oracle.  At the paper scale (32 nodes x 8
GPUs) every decision, sample series and energy figure must come out
bit-identical on both — with injected device faults, under audit and
metrics, and under the sanitizer with equal check counts — and so must
the heterogeneity-aware PP on a mixed-model cluster.  Sanitized runs at
256 and 1024 nodes double as scale smokes of the pass under the
sanitizer; a plain 1024-node run smokes the dark one.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import make_heterogeneous_cluster
from repro.core.schedulers import make_scheduler
from repro.core.schedulers.vectorized import ArrayPassState
from repro.experiments.hetero import FIG5_MODELS, build_hetero_workload
from repro.obs.context import Observability
from repro.sim.simulator import DeviceFault, KubeKnotsSimulator, SimConfig, run_appmix
from repro.workloads.appmix import generate_appmix_workload

from tests.dict_pass import DICT_SCHEDULERS
from tests.test_sim_equivalence import assert_kk_identical

PASS_SCHEDULERS = ["cbp", "peak-prediction"]

FAULTS = (
    DeviceFault(at_ms=300.0, gpu_id="node3/gpu1", duration_ms=800.0),
    DeviceFault(at_ms=500.0, gpu_id="node17/gpu6", duration_ms=600.0),
)


def _run(sched, *, oracle=False, nodes=32, gpus=8, duration_s=2.0, seed=3,
         horizon=10_000.0, faults=(), obs=None, load=1.0):
    scheduler = DICT_SCHEDULERS[sched]() if oracle else make_scheduler(sched)
    return run_appmix(
        "app-mix-1",
        scheduler,
        duration_s=duration_s,
        seed=seed,
        num_nodes=nodes,
        gpus_per_node=gpus,
        config=SimConfig(min_horizon_ms=horizon, faults=tuple(faults)),
        obs=obs,
        load_factor=load,
    )


def _observed():
    return Observability(trace=False, metrics=True, audit=True)


def _sanitized():
    return Observability(trace=False, metrics=False, audit=False, sanitize=True)


class TestPaperScaleAB:
    @pytest.mark.parametrize("sched", PASS_SCHEDULERS)
    def test_32x8_bit_identical(self, sched):
        array = _run(sched)
        oracle = _run(sched, oracle=True)
        assert_kk_identical(array, oracle, sched)
        assert array.completed(), sched      # the run did real work

    def test_32x8_with_faults_bit_identical(self):
        array = _run("cbp", faults=FAULTS)
        oracle = _run("cbp", oracle=True, faults=FAULTS)
        assert_kk_identical(array, oracle, "faults")

    @pytest.mark.parametrize("sched", PASS_SCHEDULERS)
    def test_observed_32x8_bit_identical(self, sched):
        obs = _observed()
        array = _run(sched, obs=obs, load=4.0)
        oracle = _run(sched, oracle=True, obs=_observed(), load=4.0)
        assert_kk_identical(array, oracle, sched)
        assert obs.audit.binds(), sched

    @pytest.mark.parametrize("sched", PASS_SCHEDULERS)
    def test_sanitized_32x8_bit_identical_with_equal_checks(self, sched):
        obs, oracle_obs = _sanitized(), _sanitized()
        array = _run(sched, obs=obs, load=4.0, faults=FAULTS)
        oracle = _run(sched, oracle=True, obs=oracle_obs, load=4.0, faults=FAULTS)
        assert_kk_identical(array, oracle, sched)
        assert obs.sanitizer.violations == [] == oracle_obs.sanitizer.violations
        assert obs.sanitizer.checks == oracle_obs.sanitizer.checks > 0

    def test_fast_pass_actually_engages(self, monkeypatch):
        """Every mode — dark, observed, sanitized — builds an
        ArrayPassState, and so does the heterogeneity-aware PP: no run
        of these policies takes another pass."""
        built = []
        orig = ArrayPassState.__init__

        def spy(self, *args, **kwargs):
            built.append(1)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(ArrayPassState, "__init__", spy)
        modes = {
            "dark": lambda: None,
            "audit": lambda: Observability(trace=False, metrics=False, audit=True),
            "sanitize": _sanitized,
        }
        for sched in PASS_SCHEDULERS + ["hetero-pp"]:
            for mode, obs in modes.items():
                built.clear()
                _run(sched, nodes=4, gpus=2, duration_s=1.0, horizon=5_000.0, obs=obs())
                assert built, (sched, mode)


# All four device models, two nodes of each: a 12 GB K80 next to a
# 32 GB V100 is where best-capacity-fit decides at a dense load.  The
# extension's own study (the Fig. 5 cluster and its workload of small
# pods and 13 GB peaks) is where a wake must fit the pod's peak.
HETERO_CASES = {
    "dense-fault": lambda: (
        make_heterogeneous_cluster(("P100", "M40", "V100", "K80") * 2),
        generate_appmix_workload("app-mix-1", duration_s=2.0, seed=3, load_factor=8.0),
        SimConfig(
            min_horizon_ms=8_000.0,
            faults=(DeviceFault(at_ms=1_500.0, gpu_id="node5/gpu0", duration_ms=1_000.0),),
        ),
    ),
    "fig5": lambda: (
        make_heterogeneous_cluster(FIG5_MODELS), build_hetero_workload(0), SimConfig()
    ),
}


def _hetero_run(case, oracle, obs=None):
    cluster, workload, config = HETERO_CASES[case]()
    scheduler = DICT_SCHEDULERS["hetero-pp"]() if oracle else make_scheduler("hetero-pp")
    return KubeKnotsSimulator(cluster, scheduler, workload, config, obs=obs).run()


class TestHeteroAB:
    @pytest.mark.parametrize("mode", ["dark", "audit"])
    @pytest.mark.parametrize("case", sorted(HETERO_CASES))
    def test_bit_identical(self, case, mode):
        def obs():
            return Observability(trace=False, metrics=False, audit=True) if mode == "audit" else None

        array = _hetero_run(case, False, obs())
        oracle = _hetero_run(case, True, obs())
        assert_kk_identical(array, oracle, (case, mode))
        assert array.completed()


class TestScaleSmokes:
    @pytest.mark.parametrize("nodes,duration_s,horizon", [
        (256, 0.5, 1_500.0),
        (1024, 0.25, 1_000.0),
    ])
    def test_sanitized_large_cluster(self, nodes, duration_s, horizon):
        """A sanitized run takes the array pass (its device-list checks
        included) and steps every node every tick on the object tick; it
        must stay clean at scale."""
        obs = _sanitized()
        result = _run("cbp", nodes=nodes, gpus=8,
                      duration_s=duration_s, horizon=horizon, obs=obs)
        assert obs.sanitizer.violations == []
        assert obs.sanitizer.checks > 0
        assert result.pods

    def test_1024_node_fast_path_smoke(self):
        result = _run("cbp", nodes=1024, gpus=8, duration_s=1.0, horizon=5_000.0)
        assert len(result.energy_j_per_gpu) == 1024 * 8
        assert result.completed()
        assert all(e >= 0.0 for e in result.energy_j_per_gpu.values())
