"""Tests for the simulated GPU device."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.cluster.cluster import make_paper_cluster
from repro.cluster.gpu import GPU
from repro.workloads.base import ResourceDemand


def demand(sm=0.5, mem=1_000.0, tx=0.0, rx=0.0) -> ResourceDemand:
    return ResourceDemand(sm=sm, mem_mb=mem, tx_mbps=tx, rx_mbps=rx)


class TestAllocation:
    def test_attach_reserves_memory(self):
        gpu = GPU("g", mem_capacity_mb=16_384)
        gpu.attach("a", 4_000)
        assert gpu.allocated_mem_mb == 4_000
        assert gpu.free_mem_mb == 12_384

    def test_attach_beyond_capacity_rejected(self):
        gpu = GPU("g", mem_capacity_mb=8_000)
        gpu.attach("a", 6_000)
        with pytest.raises(ValueError):
            gpu.attach("b", 3_000)

    def test_double_attach_rejected(self):
        gpu = GPU("g")
        gpu.attach("a", 100)
        with pytest.raises(ValueError):
            gpu.attach("a", 100)

    def test_exclusive_blocks_sharing(self):
        gpu = GPU("g")
        gpu.attach("a", 100, exclusive=True)
        assert not gpu.can_fit(1.0)
        with pytest.raises(ValueError):
            gpu.attach("b", 1.0)

    def test_exclusive_needs_empty_device(self):
        gpu = GPU("g")
        gpu.attach("a", 100)
        assert not gpu.can_fit(100, exclusive=True)

    def test_exclusive_request_must_fit_the_device(self):
        gpu = GPU("g", mem_capacity_mb=12_288)
        assert not gpu.can_fit(16_220.16, exclusive=True)
        with pytest.raises(ValueError):
            gpu.attach("a", 16_220.16, exclusive=True)
        assert gpu.can_fit(12_288, exclusive=True)
        gpu.attach("b", 12_288, exclusive=True)
        assert gpu.free_mem_mb == 0

    def test_detach_frees_reservation(self):
        gpu = GPU("g")
        gpu.attach("a", 5_000)
        gpu.detach("a")
        assert gpu.free_mem_mb == gpu.mem_capacity_mb
        with pytest.raises(KeyError):
            gpu.detach("a")

    def test_resize_harvests(self):
        gpu = GPU("g")
        gpu.attach("a", 8_000)
        harvested = gpu.resize("a", 2_000)
        assert harvested == 6_000
        assert gpu.free_mem_mb == gpu.mem_capacity_mb - 2_000

    def test_resize_grow_respects_capacity(self):
        gpu = GPU("g", mem_capacity_mb=8_000)
        gpu.attach("a", 4_000)
        gpu.attach("b", 3_500)
        with pytest.raises(ValueError):
            gpu.resize("a", 5_000)

    def test_attach_wakes_sleeping_device(self):
        gpu = GPU("g")
        gpu.sleep()
        assert gpu.asleep
        gpu.attach("a", 100)
        assert not gpu.asleep

    def test_sleep_requires_drained(self):
        gpu = GPU("g")
        gpu.attach("a", 100)
        with pytest.raises(ValueError):
            gpu.sleep()


class TestArbitration:
    def test_uncontended_full_share(self):
        gpu = GPU("g", interference_alpha=0.0)
        gpu.attach("a", 2_000)
        shares, sample, violation = gpu.arbitrate({"a": demand(sm=0.4)})
        assert shares["a"] == pytest.approx(1.0)
        assert violation is None
        assert sample.sm_util == pytest.approx(0.4)

    def test_oversubscribed_sm_shared_proportionally(self):
        gpu = GPU("g", interference_alpha=0.0)
        gpu.attach("a", 1_000)
        gpu.attach("b", 1_000)
        shares, sample, _ = gpu.arbitrate({"a": demand(sm=0.8), "b": demand(sm=1.0)})
        assert shares["a"] == pytest.approx(1.0 / 1.8)
        assert sample.sm_util == 1.0

    def test_interference_slows_co_runners(self):
        """Sec. I: sharing with busy neighbours taxes progress."""
        gpu = GPU("g", interference_alpha=1.0)
        gpu.attach("a", 1_000)
        gpu.attach("b", 1_000)
        shares, _, _ = gpu.arbitrate({"a": demand(sm=0.1), "b": demand(sm=0.5)})
        # a pays for b's 0.5 SM of activity: 1 / (1 + 0.5)
        assert shares["a"] == pytest.approx(1.0 / 1.5)
        assert shares["b"] == pytest.approx(1.0 / 1.1)

    def test_capacity_violation_picks_overcommitted_victim(self):
        gpu = GPU("g", mem_capacity_mb=10_000)
        gpu.attach("honest", 6_000)
        gpu.attach("burster", 3_000)
        _, _, violation = gpu.arbitrate(
            {"honest": demand(mem=6_000), "burster": demand(mem=5_000)}
        )
        assert violation is not None
        assert violation.victim_uid == "burster"  # over its reservation
        assert violation.demanded_mb == pytest.approx(11_000)

    def test_capacity_violation_falls_back_to_youngest(self):
        gpu = GPU("g", mem_capacity_mb=10_000)
        gpu.attach("old", 5_000)
        gpu.attach("young", 5_000)
        # both burst equally past their reservations: the most recently
        # attached container dies
        _, _, violation = gpu.arbitrate({"old": demand(mem=5_500), "young": demand(mem=5_500)})
        assert violation.victim_uid == "young"

    def test_pcie_saturates_at_link_rate(self):
        gpu = GPU("g", pcie_mbps=10_000)
        gpu.attach("a", 100)
        gpu.attach("b", 100)
        _, sample, _ = gpu.arbitrate({"a": demand(rx=8_000), "b": demand(rx=8_000)})
        assert sample.rx_mbps == 10_000

    def test_power_tracks_delivered_compute(self):
        """Stalled cycles don't draw peak dynamic power."""
        gpu = GPU("g", interference_alpha=1.0)
        gpu.attach("a", 100)
        gpu.attach("b", 100)
        _, contended, _ = gpu.arbitrate({"a": demand(sm=1.0), "b": demand(sm=1.0)})
        gpu2 = GPU("g2", interference_alpha=1.0)
        gpu2.attach("a", 100)
        _, solo, _ = gpu2.arbitrate({"a": demand(sm=1.0)})
        assert contended.power_w < solo.power_w

    def test_unknown_pod_demand_rejected(self):
        gpu = GPU("g")
        with pytest.raises(KeyError):
            gpu.arbitrate({"ghost": demand()})

    def test_idle_sample_reflects_sleep(self):
        gpu = GPU("g")
        awake = gpu.idle_sample().power_w
        gpu.sleep()
        asleep = gpu.idle_sample().power_w
        assert asleep < awake

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8),
        st.floats(min_value=0.0, max_value=2.0),
    )
    def test_shares_bounded_and_positive(self, sms, alpha):
        gpu = GPU("g", interference_alpha=alpha)
        demands = {}
        for i, s in enumerate(sms):
            gpu.attach(f"p{i}", 10.0)
            demands[f"p{i}"] = demand(sm=s, mem=10.0)
        shares, sample, _ = gpu.arbitrate(demands)
        assert all(0.0 < v <= 1.0 for v in shares.values())
        assert 0.0 <= sample.sm_util <= 1.0


def _bound_gpu():
    """One device bound to its cluster's ClusterState mirror (row 0)."""
    cluster = make_paper_cluster(num_nodes=1, gpus_per_node=1)
    return next(cluster.gpus()), cluster.state


def _mirror_row(state):
    return (state.sm_util[0], state.mem_used_mb[0], state.mem_util[0], state.power_w[0],
            state.tx_mbps[0], state.rx_mbps[0], state.sample_containers[0])


def _sample_row(sample):
    return (sample.sm_util, sample.mem_used_mb, sample.mem_util, sample.power_w,
            sample.tx_mbps, sample.rx_mbps, sample.num_containers)


class TestArbitrationMemo:
    """A call that repeats the previous call's demands returns its result."""

    @staticmethod
    def _busy():
        gpu, state = _bound_gpu()
        gpu.attach("a", 4_000)
        gpu.attach("b", 4_000)
        demands = {
            "a": demand(sm=0.7, mem=3_000.0, tx=50.0),
            "b": demand(sm=0.6, mem=2_500.0, rx=20.0),
        }
        return gpu, state, demands

    def test_repeat_returns_the_identical_sample(self):
        gpu, state, demands = self._busy()
        shares, sample, violation = gpu.arbitrate(demands)
        again_shares, again, again_violation = gpu.arbitrate(dict(demands))
        assert again is sample
        assert again_shares == shares
        assert violation is None and again_violation is None
        assert gpu.last_sample is sample
        assert _mirror_row(state) == _sample_row(sample)

    def test_equal_but_distinct_demands_hit(self):
        gpu, _, demands = self._busy()
        _, sample, _ = gpu.arbitrate(demands)
        copies = {
            uid: ResourceDemand(sm=d.sm, mem_mb=d.mem_mb, tx_mbps=d.tx_mbps, rx_mbps=d.rx_mbps)
            for uid, d in demands.items()
        }
        assert all(copies[uid] is not demands[uid] for uid in demands)
        assert gpu.arbitrate(copies)[1] is sample

    @pytest.mark.parametrize("change", ["order", "uids", "value"])
    def test_changed_demands_miss(self, change):
        gpu, _, demands = self._busy()
        _, sample, _ = gpu.arbitrate(demands)
        changed = {
            "order": dict(reversed(demands.items())),
            "uids": {"a": demands["a"]},
            "value": {**demands, "b": demand(sm=0.6, mem=2_500.5, rx=20.0)},
        }[change]
        shares, fresh, _ = gpu.arbitrate(changed)
        assert fresh is not sample
        # The recomputed result is what a device that never saw the
        # first call returns.
        ref_shares, ref_sample, _ = self._busy()[0].arbitrate(changed)
        assert shares == ref_shares
        assert fresh == ref_sample

    def test_violation_is_reported_on_every_call(self):
        gpu, _ = _bound_gpu()
        gpu.attach("old", 1_000)
        gpu.attach("young", 1_000)
        over = {
            "old": demand(mem=0.6 * gpu.mem_capacity_mb),
            "young": demand(mem=0.6 * gpu.mem_capacity_mb),
        }
        violations = [gpu.arbitrate(over)[2] for _ in range(3)]
        assert all(v is not None and v.victim_uid == "young" for v in violations)

    def test_empty_device_reports_sleep_power_after_sleeping(self):
        """An empty demand set is never memoized: its sample's power
        depends on ``asleep``, which the demands do not show."""
        gpu, state = _bound_gpu()
        _, awake, _ = gpu.arbitrate({})
        gpu.sleep()
        _, asleep, _ = gpu.arbitrate({})
        assert asleep.power_w == gpu.power_model.sleep_watts < awake.power_w
        assert state.power_w[0] == asleep.power_w

    def test_hit_restores_a_directly_written_mirror(self):
        """The quantum writes the mirror columns directly; a memo hit
        still writes its sample through, and marks the row for the ring."""
        gpu, state, demands = self._busy()
        _, sample, _ = gpu.arbitrate(demands)
        for column in (state.sm_util, state.mem_used_mb, state.mem_util, state.power_w,
                       state.tx_mbps, state.rx_mbps):
            column[0] = 0.0
        state.sample_dirty.clear()
        assert gpu.arbitrate(demands)[1] is sample
        assert _mirror_row(state) == _sample_row(sample)
        assert state.sample_dirty == {0}


class TestParked:
    def test_parked_needs_the_asleep_idle_sample(self):
        gpu = GPU("g")
        assert not gpu.resting() and not gpu.parked()
        gpu.sleep()
        # Asleep but still holding the awake idle sample: a step would
        # write the asleep one.
        assert gpu.resting() and not gpu.parked()
        gpu.last_sample = gpu.idle_sample()
        assert gpu.parked()
        gpu.fail()
        assert not gpu.resting() and not gpu.parked()
