"""Tests for the Rodinia batch workload models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.base import QoSClass
from repro.workloads.rodinia import (
    RODINIA_PROFILES,
    RODINIA_SUITE_ORDER,
    make_rodinia_trace,
    suite_timeline,
)
from tests.rodinia_oracle import oracle_rodinia_phases, oracle_rodinia_trace


class TestProfiles:
    def test_all_suite_apps_have_profiles(self):
        assert set(RODINIA_SUITE_ORDER) <= set(RODINIA_PROFILES)

    def test_profile_invariants(self):
        for p in RODINIA_PROFILES.values():
            assert 0 < p.steady_sm < p.peak_sm <= 1.0
            assert 0 < p.steady_mem_mb < p.peak_mem_mb
            assert p.base_ms > 0
            assert 0 < p.peak_fraction < 0.5


class TestTraceGeneration:
    def test_unknown_app_rejected(self, rng):
        with pytest.raises(KeyError):
            make_rodinia_trace("nonexistent", rng)

    def test_trace_is_batch_class(self, rng):
        assert make_rodinia_trace("lud", rng).qos_class is QoSClass.BATCH

    def test_runtime_scales_with_problem_size(self, rng):
        short = make_rodinia_trace("kmeans", np.random.default_rng(5), scale=1.0)
        long = make_rodinia_trace("kmeans", np.random.default_rng(5), scale=10.0)
        assert long.total_ms > 5 * short.total_ms

    def test_mem_scale_multiplies_footprint(self):
        base = make_rodinia_trace("lud", np.random.default_rng(5), mem_scale=1.0)
        big = make_rodinia_trace("lud", np.random.default_rng(5), mem_scale=3.0)
        assert big.peak_mem_mb() == pytest.approx(3 * base.peak_mem_mb())

    def test_requested_headroom_overstates(self, rng):
        trace = make_rodinia_trace("lud", rng, requested_headroom=1.5)
        assert trace.requested_mem_mb == pytest.approx(min(trace.peak_mem_mb() * 1.5, 16_384))

    def test_underrequest_headroom_understates(self, rng):
        trace = make_rodinia_trace("lud", rng, requested_headroom=0.5)
        assert trace.requested_mem_mb < trace.peak_mem_mb()

    def test_same_rng_state_reproducible(self):
        a = make_rodinia_trace("heartwall", np.random.default_rng(9))
        b = make_rodinia_trace("heartwall", np.random.default_rng(9))
        assert a.total_ms == b.total_ms
        assert a.peak_mem_mb() == b.peak_mem_mb()

    def test_peak_memory_is_transient(self, rng):
        """The paper: peak residency is a few percent of runtime."""
        trace = make_rodinia_trace("mummergpu", rng, scale=10)
        p80 = trace.mem_percentile(80)
        assert p80 < 0.5 * trace.peak_mem_mb()

    def test_bandwidth_led_phases_exist(self, rng):
        """An rx burst precedes compute peaks (PP's early marker)."""
        trace = make_rodinia_trace("leukocyte", rng)
        rx = [p.demand.rx_mbps for p in trace.phases]
        assert max(rx) > 1_000.0


class TestColumnBuilderMatchesOracle:
    """The column builder against the per-iteration builder it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        app=st.sampled_from(sorted(RODINIA_PROFILES)),
        scale=st.one_of(st.sampled_from([1.0, 10.0, 40.0]), st.floats(0.01, 60.0)),
        mem_scale=st.one_of(st.sampled_from([1.0, 3.0]), st.floats(0.1, 8.0)),
        headroom=st.floats(0.3, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_columns_and_stream_equal_the_oracle(self, app, scale, mem_scale, headroom, seed):
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        trace = make_rodinia_trace(
            app, rng_new, scale=scale, requested_headroom=headroom, mem_scale=mem_scale
        )
        phases, requested = oracle_rodinia_phases(
            app, rng_old, scale=scale, requested_headroom=headroom, mem_scale=mem_scale
        )
        cum, rows = trace.demand_table()
        durations = np.array([p.duration_ms for p in phases])
        demands = np.array(
            [(p.demand.sm, p.demand.mem_mb, p.demand.tx_mbps, p.demand.rx_mbps) for p in phases]
        )
        assert [p.duration_ms for p in trace.phases] == durations.tolist()
        assert rows.tobytes() == demands.tobytes()
        assert cum.tobytes() == np.cumsum(durations).tobytes()
        assert trace.total_ms == float(np.cumsum(durations)[-1])
        assert trace.requested_mem_mb == requested
        # The same draws, in the same order: the generators agree after.
        assert rng_new.random() == rng_old.random()

    def test_every_query_equals_the_oracle_trace(self):
        for app in RODINIA_PROFILES:
            trace = make_rodinia_trace(app, np.random.default_rng(11), scale=5.0, mem_scale=2.0)
            oracle = oracle_rodinia_trace(app, np.random.default_rng(11), scale=5.0, mem_scale=2.0)
            assert trace.phases == oracle.phases
            assert trace.peak_mem_mb() == oracle.peak_mem_mb()
            assert trace.peak_sm() == oracle.peak_sm()
            assert trace.mean_mem_mb() == oracle.mean_mem_mb()
            for q in (50.0, 80.0, 95.0):
                assert trace.mem_percentile(q) == oracle.mem_percentile(q)
                assert trace.sm_percentile(q) == oracle.sm_percentile(q)
            a, b = trace.sample_series(1.0), oracle.sample_series(1.0)
            assert all(a[k].tobytes() == b[k].tobytes() for k in a)


class TestSuiteTimeline:
    def test_boundaries_cover_all_apps(self):
        timeline = suite_timeline(np.random.default_rng(0), step_ms=1.0)
        assert len(timeline["boundaries_ms"]) == len(RODINIA_SUITE_ORDER) + 1
        assert timeline["boundaries_ms"][0] == 0.0

    def test_series_lengths_consistent(self):
        timeline = suite_timeline(np.random.default_rng(0), step_ms=1.0)
        n = len(timeline["time_ms"])
        for key in ("sm_util", "mem_used_mb", "tx_mbps", "rx_mbps"):
            assert len(timeline[key]) == n

    def test_bandwidth_median_to_peak_gap(self):
        """Fig. 3: ~400x between median and peak bandwidth."""
        timeline = suite_timeline(np.random.default_rng(42), step_ms=1.0)
        bw = timeline["rx_mbps"] + timeline["tx_mbps"]
        assert bw.max() / max(np.median(bw), 1e-9) > 50

    def test_memory_stays_on_card(self):
        timeline = suite_timeline(np.random.default_rng(0), step_ms=1.0)
        assert timeline["mem_used_mb"].max() <= 16_384
