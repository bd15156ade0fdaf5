"""Tests for the workload trace model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.base import Phase, QoSClass, ResourceDemand, WorkloadTrace


def phases_from(spec):
    return [
        Phase(d, ResourceDemand(sm=s, mem_mb=m, tx_mbps=0.0, rx_mbps=0.0))
        for d, s, m in spec
    ]


class TestValidation:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            WorkloadTrace("t", [])

    def test_bad_phase_duration(self):
        with pytest.raises(ValueError):
            Phase(0.0, ResourceDemand(0.1, 10, 0, 0))

    def test_bad_sm_demand(self):
        with pytest.raises(ValueError):
            Phase(1.0, ResourceDemand(1.5, 10, 0, 0))

    def test_negative_memory(self):
        with pytest.raises(ValueError):
            Phase(1.0, ResourceDemand(0.1, -5, 0, 0))


class TestDemandLookup:
    def test_demand_at_selects_phase(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.1, 100), (20, 0.5, 500)]))
        assert trace.demand_at(5).mem_mb == 100
        assert trace.demand_at(15).mem_mb == 500

    def test_demand_at_boundary_belongs_to_next_phase(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.1, 100), (20, 0.5, 500)]))
        assert trace.demand_at(10).mem_mb == 500

    def test_demand_past_end_holds_last(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.1, 100)]))
        assert trace.demand_at(999).mem_mb == 100

    def test_negative_progress_rejected(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.1, 100)]))
        with pytest.raises(ValueError):
            trace.demand_at(-1)

    def test_total_is_sum_of_durations(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.1, 1), (15, 0.2, 2), (5, 0.3, 3)]))
        assert trace.total_ms == 30

    @settings(max_examples=200, deadline=None)
    @given(
        durations=st.lists(
            st.one_of(
                st.floats(min_value=1e-3, max_value=1e4),
                st.integers(min_value=1, max_value=1_000),
            ),
            min_size=1,
            max_size=12,
        ),
        extra=st.lists(st.floats(min_value=0.0, max_value=3e5), max_size=8),
    )
    def test_demand_at_matches_searchsorted(self, durations, extra):
        """The lookup equals ``searchsorted(side="right")`` over the
        cumulative phase ends, clamped to the final phase, at every
        boundary, next to each, at 0, at the total and past it."""
        trace = WorkloadTrace(
            "t",
            [
                Phase(d, ResourceDemand(sm=0.5, mem_mb=float(i), tx_mbps=0.0, rx_mbps=0.0))
                for i, d in enumerate(durations)
            ],
        )
        cum = np.cumsum(durations)
        total = float(cum[-1])
        assert trace.total_ms == total
        probes = [0.0, total, total * 2.0 + 1.0, *extra]
        for end in cum.tolist():
            end = float(end)
            probes += [end, np.nextafter(end, 0.0), np.nextafter(end, np.inf)]
        for p in probes:
            idx = min(int(np.searchsorted(cum, p, side="right")), len(cum) - 1)
            assert trace.demand_at(p) is trace.phases[idx].demand, p


class TestStatistics:
    def test_peak_and_percentile(self):
        # 90 ms at 100 MB, 10 ms at 1000 MB
        trace = WorkloadTrace("t", phases_from([(90, 0.1, 100), (10, 0.9, 1000)]))
        assert trace.peak_mem_mb() == 1000
        assert trace.peak_sm() == 0.9
        assert trace.mem_percentile(80) == 100   # peak occupies only 10 %
        assert trace.mem_percentile(95) == 1000

    def test_mean_duration_weighted(self):
        trace = WorkloadTrace("t", phases_from([(90, 0.1, 100), (10, 0.9, 1000)]))
        assert trace.mean_mem_mb() == pytest.approx(0.9 * 100 + 0.1 * 1000)

    def test_requested_defaults_to_peak(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.5, 700)]))
        assert trace.requested_mem_mb == 700

    def test_requested_override(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.5, 700)]), requested_mem_mb=50)
        assert trace.requested_mem_mb == 50

    def test_percentile_bounds_validated(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.5, 700)]))
        with pytest.raises(ValueError):
            trace.mem_percentile(101)

    def test_default_qos_is_batch(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.5, 700)]))
        assert trace.qos_class is QoSClass.BATCH

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=100.0),
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=10_000.0),
            ),
            min_size=1,
            max_size=10,
        ),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_percentile_bounded_by_extremes(self, spec, q):
        trace = WorkloadTrace("t", phases_from(spec))
        p = trace.mem_percentile(q)
        mems = [m for _, _, m in spec]
        assert min(mems) <= p <= max(mems)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=100.0),
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=10_000.0),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_percentile_monotone_in_q(self, spec):
        trace = WorkloadTrace("t", phases_from(spec))
        values = [trace.mem_percentile(q) for q in (10, 50, 80, 100)]
        assert values == sorted(values)


class TestSampling:
    def test_sample_series_length(self):
        trace = WorkloadTrace("t", phases_from([(100, 0.3, 500)]))
        series = trace.sample_series(step_ms=10)
        assert len(series["sm"]) == 10
        assert set(series) == {"sm", "mem_mb", "tx_mbps", "rx_mbps"}

    def test_sample_series_values(self):
        trace = WorkloadTrace("t", phases_from([(50, 0.2, 100), (50, 0.8, 900)]))
        series = trace.sample_series(step_ms=25)
        assert list(series["mem_mb"]) == [100, 100, 900, 900]

    def test_bad_step_rejected(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.5, 1)]))
        with pytest.raises(ValueError):
            trace.sample_series(0.0)
