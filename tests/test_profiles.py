"""Tests for the online per-image profile store."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.profiles import PROFILE_SERIES_POINTS, ImageProfile, ProfileStore
from repro.forecast.correlation import rank_with_ties
from repro.workloads.base import Phase, ResourceDemand, WorkloadTrace
from tests.conftest import make_trace


class TestImageProfile:
    def test_update_accumulates(self):
        profile = ImageProfile("img")
        trace = make_trace(mem_mb=1_000, peak_mem_mb=4_000)
        profile.update(trace.sample_series(5.0), runtime_ms=trace.total_ms)
        assert profile.observations == 1
        assert profile.mem_series.shape == (PROFILE_SERIES_POINTS,)
        assert profile.peak_mem_mb() == pytest.approx(4_000)
        assert profile.mean_runtime_ms == pytest.approx(trace.total_ms)

    def test_running_mean_of_series(self):
        profile = ImageProfile("img")
        lo = make_trace(mem_mb=1_000, peak_mem_mb=1_000)
        hi = make_trace(mem_mb=3_000, peak_mem_mb=3_000)
        profile.update(lo.sample_series(5.0), runtime_ms=100)
        profile.update(hi.sample_series(5.0), runtime_ms=100)
        assert profile.mem_series.mean() == pytest.approx(2_000, rel=0.01)

    def test_percentile_pools_samples(self):
        profile = ImageProfile("img")
        trace = make_trace(mem_mb=1_000, peak_mem_mb=8_000)  # peak 10 % of time
        profile.update(trace.sample_series(1.0), runtime_ms=trace.total_ms)
        assert profile.mem_percentile(80) == pytest.approx(1_000)
        assert profile.mem_percentile(99) > 6_000

    def test_no_observations_raises(self):
        with pytest.raises(ValueError):
            ImageProfile("img").peak_mem_mb()

    def test_sample_history_bounded(self):
        profile = ImageProfile("img")
        trace = make_trace()
        for _ in range(40):
            profile.update(trace.sample_series(10.0), runtime_ms=1.0)
        assert len(profile._mem_samples) <= 32
        assert profile.observations == 40


class TestProfileStore:
    def test_record_creates_profile(self):
        store = ProfileStore()
        store.record_trace("img/a", make_trace())
        assert "img/a" in store
        assert store.get("img/a").observations == 1
        assert store.images() == ["img/a"]

    def test_provision_unknown_image_uses_request(self):
        store = ProfileStore()
        assert store.provision_mb("ghost", 5_000) == 5_000

    def test_provision_known_image_uses_percentile(self):
        store = ProfileStore()
        store.record_trace("img", make_trace(mem_mb=1_000, peak_mem_mb=8_000))
        alloc = store.provision_mb("img", requested_mb=10_000, percentile=80)
        assert alloc == pytest.approx(1_000, rel=0.05)

    def test_provision_never_exceeds_request(self):
        """Harvesting only shrinks reservations."""
        store = ProfileStore()
        store.record_trace("img", make_trace(mem_mb=4_000, peak_mem_mb=4_000))
        assert store.provision_mb("img", requested_mb=500) == 500

    def test_correlation_series_none_for_unknown(self):
        assert ProfileStore().correlation_series("ghost") is None

    def test_correlation_series_fixed_length(self):
        store = ProfileStore()
        store.record_trace("img", make_trace(duration_ms=333.0))
        series = store.correlation_series("img")
        assert series.shape == (PROFILE_SERIES_POINTS,)

    def test_correlation_ranks_none_for_unknown(self):
        assert ProfileStore().correlation_ranks("ghost") is None

    def test_correlation_ranks_cached_per_observation_count(self):
        store = ProfileStore()
        store.record_trace("img", make_trace(mem_mb=1_000, peak_mem_mb=4_000))
        ranks1, _ = store.correlation_ranks("img")
        ranks2, _ = store.correlation_ranks("img")
        assert ranks2 is ranks1                   # same cached vector
        assert not ranks1.flags.writeable         # shared -> immutable

        store.record_trace("img", make_trace(mem_mb=3_000, peak_mem_mb=3_000))
        ranks3, _ = store.correlation_ranks("img")
        assert ranks3 is not ranks1               # new observation invalidates

    def test_version_tracks_observations(self):
        store = ProfileStore()
        assert store.version("ghost") == 0
        store.record_trace("img", make_trace())
        assert store.version("img") == 1
        store.record_trace("img", make_trace())
        assert store.version("img") == 2


# -- the per-version statistics cache ------------------------------------------

phase_params = st.tuples(
    st.floats(min_value=1.0, max_value=80.0),        # duration_ms
    st.floats(min_value=0.0, max_value=1.0),         # sm
    st.floats(min_value=0.0, max_value=16_000.0),    # mem_mb
)
phase_lists = st.lists(phase_params, min_size=1, max_size=5)


def _trace(phases, name: str = "gen") -> WorkloadTrace:
    return WorkloadTrace(
        name,
        [Phase(d, ResourceDemand(sm=sm, mem_mb=mem, tx_mbps=sm * 7.0, rx_mbps=mem / 3.0))
         for d, sm, mem in phases],
    )


def _fresh(profile: ImageProfile) -> dict:
    """Every cached statistic, recomputed from the raw fields."""
    pooled = np.concatenate(profile._mem_samples)
    ranks, ties = rank_with_ties(profile.mem_series)
    return {
        "sm_p75": float(np.percentile(profile.sm_series, 75)),
        "sm_peak": float(profile.sm_series.max()),
        "peak_mem_mb": float(max(s.max() for s in profile._mem_samples)),
        "p80": float(np.percentile(pooled, 80)),
        "p50": float(np.percentile(pooled, 50)),
        "ranks": ranks,
        "ties": ties,
    }


def _cached(profile: ImageProfile) -> dict:
    ranks, ties = profile.correlation_ranks()
    return {
        "sm_p75": profile.sm_p75(),
        "sm_peak": profile.sm_peak(),
        "peak_mem_mb": profile.peak_mem_mb(),
        "p80": profile.mem_percentile(80),
        "p50": profile.mem_percentile(50),
        "ranks": ranks,
        "ties": ties,
    }


def _assert_same(cached: dict, fresh: dict) -> None:
    for key, value in fresh.items():
        if key == "ranks":
            np.testing.assert_array_equal(cached[key], value)
        else:
            assert cached[key] == value, key


class TestStatisticsCache:
    @settings(max_examples=30, deadline=None)
    @given(
        runs=st.lists(phase_lists, min_size=1, max_size=40),
        read_every=st.integers(min_value=1, max_value=4),
    )
    def test_cached_equals_fresh_after_any_update_sequence(self, runs, read_every):
        profile = ImageProfile("img")
        for n, phases in enumerate(runs, start=1):
            trace = _trace(phases)
            profile.update(trace.sample_series(10.0), runtime_ms=trace.total_ms)
            if n % read_every == 0:
                _assert_same(_cached(profile), _fresh(profile))
        assert len(profile._mem_samples) == min(len(runs), 32)
        _assert_same(_cached(profile), _fresh(profile))
        assert profile.pressure_stats() == (
            profile.sm_p75(), profile.sm_peak(), profile.peak_mem_mb()
        )

    def test_eviction_past_32_samples_refreshes_the_peak(self):
        profile = ImageProfile("img")
        profile.update(_trace([(10.0, 0.5, 9_000.0)]).sample_series(1.0))
        for _ in range(32):
            assert profile.peak_mem_mb() == 9_000.0
            profile.update(_trace([(10.0, 0.5, 1_000.0)]).sample_series(1.0))
        # The 9 GB run was the oldest of 33 samples: evicted.
        assert profile.peak_mem_mb() == 1_000.0
        assert profile.mem_percentile(99) == 1_000.0

    @settings(max_examples=30, deadline=None)
    @given(before=phase_lists, after=phase_lists)
    def test_no_stale_read_after_update(self, before, after):
        profile = ImageProfile("img")
        profile.update(_trace(before).sample_series(10.0))
        _cached(profile)                          # warm every entry
        profile.update(_trace(after).sample_series(10.0))
        _assert_same(_cached(profile), _fresh(profile))

    def test_value_computed_once_per_version(self, monkeypatch):
        profile = ImageProfile("img")
        profile.update(make_trace().sample_series(5.0))
        calls = []
        real = np.percentile
        monkeypatch.setattr(
            np, "percentile", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        for _ in range(5):
            profile.sm_p75()
            profile.mem_percentile(80)
        assert len(calls) == 2
        profile.update(make_trace().sample_series(5.0))
        profile.sm_p75()
        assert len(calls) == 3

    def test_empty_profile_still_raises(self):
        profile = ImageProfile("img")
        with pytest.raises(ValueError):
            profile.mem_percentile(80)
        with pytest.raises(ValueError):
            profile.pressure_stats()


# -- sample_series against the per-sample demand_at loop ------------------------


def _sample_series_oracle(trace: WorkloadTrace, step_ms: float) -> dict[str, np.ndarray]:
    """The original implementation: one demand_at call per sample."""
    times = np.arange(0.0, trace.total_ms, step_ms)
    out = {k: np.empty(times.shape) for k in ("sm", "mem_mb", "tx_mbps", "rx_mbps")}
    for i, t in enumerate(times):
        d = trace.demand_at(float(t))
        out["sm"][i], out["mem_mb"][i] = d.sm, d.mem_mb
        out["tx_mbps"][i], out["rx_mbps"][i] = d.tx_mbps, d.rx_mbps
    return out


def _assert_series_equal(trace: WorkloadTrace, step_ms: float) -> None:
    got = trace.sample_series(step_ms)
    want = _sample_series_oracle(trace, step_ms)
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


class TestSampleSeries:
    @settings(max_examples=60, deadline=None)
    @given(phases=phase_lists, step=st.floats(min_value=0.5, max_value=50.0))
    def test_matches_demand_at_loop(self, phases, step):
        _assert_series_equal(_trace(phases), step)

    def test_samples_on_phase_ends(self):
        # Every phase end is a multiple of the step: the sample at a
        # boundary reads the next phase (side="right").
        trace = _trace([(10.0, 0.1, 100.0), (20.0, 0.2, 200.0), (10.0, 0.3, 300.0)])
        _assert_series_equal(trace, 10.0)
        np.testing.assert_array_equal(trace.sample_series(10.0)["mem_mb"], [100, 200, 200, 300])

    def test_final_partial_step(self):
        trace = _trace([(7.0, 0.4, 500.0), (8.0, 0.9, 900.0)])   # 15 ms, step 4
        _assert_series_equal(trace, 4.0)
        assert len(trace.sample_series(4.0)["sm"]) == 4

    def test_single_phase(self):
        trace = _trace([(33.0, 0.7, 1_234.0)])
        for step in (1.0, 10.0, 33.0, 50.0):
            _assert_series_equal(trace, step)

    def test_series_are_independent_arrays(self):
        series = make_trace().sample_series(5.0)
        assert all(arr.flags.c_contiguous and arr.base is None for arr in series.values())
