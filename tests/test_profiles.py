"""Tests for the online per-image profile store."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import profiles
from repro.core.profiles import (
    PROFILE_SERIES_POINTS,
    ImageProfile,
    ProfileStore,
    percentile_linear,
)
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
        real = profiles.percentile_linear
        monkeypatch.setattr(
            profiles, "percentile_linear", lambda *a, **k: calls.append(1) or real(*a, **k)
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

    def test_peaks_stay_aligned_with_samples_across_eviction(self):
        profile = ImageProfile("img")
        for i in range(40):
            mem = 1_000.0 + 500.0 * ((i * 7) % 11)
            profile.update(_trace([(10.0, 0.5, mem), (5.0, 0.2, mem / 2)]).sample_series(1.0))
            assert len(profile._mem_peaks) == len(profile._mem_samples) == min(i + 1, 32)
            assert profile._mem_peaks == [float(s.max()) for s in profile._mem_samples]
            assert profile.peak_mem_mb() == max(float(s.max()) for s in profile._mem_samples)


# -- the order statistic against np.percentile ---------------------------------

QUANTILES = [0, 50, 75, 80, 99.9, 100]

magnitudes = st.sampled_from([1e-3, 1.0, 1e3])
spread = st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=400)
# Signed zeros compare equal, so which one lands at an order statistic
# depends on the partition: the helper partitions where NumPy does.
tie_heavy = st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.5, 7.0, 1e3]), min_size=1, max_size=400)


def _assert_same_bits(values: np.ndarray, q: float) -> None:
    with np.errstate(invalid="ignore"):       # inf - inf in NumPy's lerp
        want = np.float64(np.percentile(values, q))
    got = np.float64(percentile_linear(values.copy(), q))
    assert got.tobytes() == want.tobytes(), (values, q, got, want)


class TestPercentileLinear:
    @settings(max_examples=500, deadline=None)
    @given(
        values=spread | tie_heavy,
        scale=magnitudes,
        q=st.sampled_from(QUANTILES) | st.floats(min_value=0.0, max_value=100.0),
    )
    def test_equals_np_percentile_bit_for_bit(self, values, scale, q):
        _assert_same_bits(np.array(values) * scale, q)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 399, 400])
    def test_every_length_edge(self, n):
        values = np.random.default_rng(n).uniform(0.0, 1e3, n)
        for q in QUANTILES:
            _assert_same_bits(values, q)

    def test_signed_zeros_and_infinity_follow_numpy(self):
        # A WorkloadTrace accepts -0.0 and inf memory demands.  The
        # five-zero case reads +0.0 only if the partition also places the
        # first and last positions, as NumPy's does.
        for values in (
            [-0.0], [-0.0, -0.0], [0.0, -0.0, 1.0], [-0.0, -0.0, -0.0, 0.0, -0.0],
            [1.0, np.inf], [np.inf],
        ):
            for q in QUANTILES:
                _assert_same_bits(np.array(values), q)

    def test_reorders_its_argument_in_place(self):
        arr = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
        assert percentile_linear(arr, 50) == 3.0
        assert arr[2] == 3.0 and sorted(arr) == [1.0, 2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("q", [-0.1, 100.5, float("nan")])
    def test_rejects_a_percentile_outside_0_to_100(self, q):
        with pytest.raises(ValueError):
            percentile_linear(np.array([1.0, 2.0]), q)


class TestRecordTrace:
    @settings(max_examples=40, deadline=None)
    @given(runs=st.lists(phase_lists, min_size=1, max_size=6))
    def test_two_column_record_equals_update_from_sample_series(self, runs):
        store, want = ProfileStore(), ImageProfile("img")
        for phases in runs:
            trace = _trace(phases)
            store.record_trace("img", trace, step_ms=10.0)
            want.update(trace.sample_series(10.0), runtime_ms=trace.total_ms)
        got = store.get("img")
        np.testing.assert_array_equal(got.mem_series, want.mem_series)
        np.testing.assert_array_equal(got.sm_series, want.sm_series)
        assert got.mean_runtime_ms == want.mean_runtime_ms
        for a, b in zip(got._mem_samples, want._mem_samples, strict=True):
            np.testing.assert_array_equal(a, b)
        assert got._mem_peaks == want._mem_peaks
        _assert_same(_cached(got), _fresh(want))


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
