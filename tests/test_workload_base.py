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

    def test_infinite_duration_or_memory(self):
        with pytest.raises(ValueError, match="^phase duration must be finite, got inf$"):
            Phase(float("inf"), ResourceDemand(0.1, 10, 0, 0))
        with pytest.raises(ValueError, match="^memory demand must be finite$"):
            Phase(1.0, ResourceDemand(0.1, float("inf"), 0, 0))


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


def _phase_spec():
    return st.lists(
        st.tuples(
            st.floats(min_value=1e-3, max_value=1e4),
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=20_000.0),
            st.floats(min_value=0.0, max_value=5_000.0),
            st.floats(min_value=0.0, max_value=5_000.0),
        ),
        min_size=1,
        max_size=12,
    )


def _list_percentile(phases, values, q):
    """The duration-weighted percentile over Python lists, as a trace
    computed it when it kept one object per phase."""
    vals = np.asarray(list(values), dtype=float)
    weights = np.asarray([p.duration_ms for p in phases], dtype=float)
    order = np.argsort(vals)
    vals, weights = vals[order], weights[order]
    cdf = np.cumsum(weights) / weights.sum()
    idx = int(np.searchsorted(cdf, q / 100.0, side="left"))
    return float(vals[min(idx, len(vals) - 1)])


class TestColumns:
    @settings(max_examples=150, deadline=None)
    @given(spec=_phase_spec(), requested=st.one_of(st.none(), st.floats(0.0, 1e5)))
    def test_phase_list_and_columns_answer_alike(self, spec, requested):
        phases = [Phase(d, ResourceDemand(s, m, tx, rx)) for d, s, m, tx, rx in spec]
        listed = WorkloadTrace("t", phases, requested_mem_mb=requested)
        columns = WorkloadTrace.from_columns(
            "t", [row[0] for row in spec], [row[1:] for row in spec], requested_mem_mb=requested
        )
        for trace in (listed, columns):
            assert trace.phases == tuple(phases)
            assert trace.total_ms == float(np.cumsum([p.duration_ms for p in phases])[-1])
            assert trace.peak_mem_mb() == max(p.demand.mem_mb for p in phases)
            assert trace.peak_sm() == max(p.demand.sm for p in phases)
            assert trace.requested_mem_mb == (
                max(p.demand.mem_mb for p in phases) if requested is None else requested
            )
            for q in (0.0, 25.0, 50.0, 80.0, 95.0, 100.0):
                assert trace.mem_percentile(q) == _list_percentile(
                    phases, (p.demand.mem_mb for p in phases), q
                )
                assert trace.sm_percentile(q) == _list_percentile(
                    phases, (p.demand.sm for p in phases), q
                )
            assert trace.mean_mem_mb() == float(np.average(
                np.asarray([p.demand.mem_mb for p in phases]),
                weights=np.asarray([p.duration_ms for p in phases]),
            ))
        (cum_l, rows_l), (cum_c, rows_c) = listed.demand_table(), columns.demand_table()
        assert cum_l.tobytes() == cum_c.tobytes()
        assert rows_l.tobytes() == rows_c.tobytes()
        probes = [0.0, listed.total_ms, listed.total_ms + 1.0, *cum_l.tolist()]
        for p in probes:
            assert listed.demand_at(p) == columns.demand_at(p)
        step = max(listed.total_ms / 20.0, 1e-3)
        a, b = listed.sample_series(step), columns.sample_series(step)
        assert all(a[k].tobytes() == b[k].tobytes() for k in a)

    def test_demand_at_returns_the_same_object_on_repeat(self):
        trace = WorkloadTrace("t", phases_from([(10, 0.1, 100), (20, 0.5, 500)]))
        first = trace.demand_at(3.0)
        assert trace.demand_at(7.5) is first
        assert trace.demand_at(12.0) is trace.demand_at(29.0) is trace.demand_at(99.0)
        assert trace.demand_at(12.0) is not first
        assert trace.phases[0].demand is first

    def test_columns_are_read_only(self):
        trace = WorkloadTrace.from_columns("t", [10.0, 20.0], [(0.1, 100, 0, 0), (0.5, 500, 0, 0)])
        cum, rows = trace.demand_table()
        for column in (cum, rows):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1.0
        assert trace.demand_table()[0] is cum and trace.demand_table()[1] is rows

    def test_columns_are_copied(self):
        durations = np.array([10.0, 20.0])
        demands = np.array([(0.1, 100.0, 0.0, 0.0), (0.5, 500.0, 0.0, 0.0)])
        trace = WorkloadTrace.from_columns("t", durations, demands)
        durations[0], demands[0, 1] = 99.0, 9_999.0
        assert trace.total_ms == 30.0 and trace.peak_mem_mb() == 500.0

    @pytest.mark.parametrize(
        "durations, demands, message",
        [
            ([10.0, 0.0], [(0.1, 1, 0, 0), (0.1, 1, 0, 0)], "phase duration must be positive, got 0.0"),
            ([10.0, -2.0], [(0.1, 1, 0, 0), (0.1, 1, 0, 0)], "phase duration must be positive, got -2.0"),
            ([10.0, 5.0], [(0.1, 1, 0, 0), (1.5, 1, 0, 0)], r"SM demand must be in \[0, 1\], got 1.5"),
            ([10.0], [(float("nan"), 1, 0, 0)], r"SM demand must be in \[0, 1\], got nan"),
            ([10.0], [(0.1, -5, 0, 0)], "memory demand must be non-negative"),
            # The first bad phase decides, checked in Phase's order.
            ([10.0, 0.0], [(2.0, 1, 0, 0), (0.1, -1, 0, 0)], r"SM demand must be in \[0, 1\], got 2.0"),
            # NaN fails every check, so none reaches a profile's statistics.
            ([10.0, float("nan")], [(0.1, 1, 0, 0), (0.1, 1, 0, 0)], "phase duration must be positive, got nan"),
            ([10.0], [(0.1, float("nan"), 0, 0)], "memory demand must be non-negative"),
            # An infinity would reach a reservation as NaN (a p80 between
            # a finite and an infinite sample is inf - inf) or overflow a
            # profile's sampling grid.
            ([float("inf")], [(0.1, 1, 0, 0)], "phase duration must be finite, got inf"),
            ([10.0, 5.0], [(0.1, 1, 0, 0), (0.1, float("inf"), 0, 0)], "memory demand must be finite"),
            ([float("-inf")], [(0.1, 1, 0, 0)], "phase duration must be positive, got -inf"),
            ([10.0], [(0.1, float("-inf"), 0, 0)], "memory demand must be non-negative"),
        ],
    )
    def test_bad_columns_raise_the_phase_errors(self, durations, demands, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            WorkloadTrace.from_columns("t", durations, demands)
        # The same error building the first bad Phase raises.
        with pytest.raises(ValueError, match=f"^{message}$"):
            [Phase(d, ResourceDemand(*row)) for d, row in zip(durations, demands)]

    def test_column_shapes_are_checked(self):
        with pytest.raises(ValueError, match="at least one phase"):
            WorkloadTrace.from_columns("t", [], np.empty((0, 4)))
        with pytest.raises(ValueError, match="one duration and one"):
            WorkloadTrace.from_columns("t", [1.0, 2.0], [(0.1, 1, 0, 0)])
        with pytest.raises(ValueError, match="one duration and one"):
            WorkloadTrace.from_columns("t", [1.0], [(0.1, 1, 0)])

    @pytest.mark.parametrize("requested", [-1.0, -1e-9, float("nan"), float("inf"), float("-inf")])
    def test_bad_requested_memory_raises(self, requested):
        # A negative request would reach a bind as a negative reservation.
        with pytest.raises(ValueError, match="requested memory must be finite and non-negative"):
            WorkloadTrace.from_columns("t", [1.0], [(0.1, 1, 0, 0)], requested_mem_mb=requested)
        with pytest.raises(ValueError, match="requested memory must be finite and non-negative"):
            WorkloadTrace("t", phases_from([(10, 0.1, 100)]), requested_mem_mb=requested)
        zero = WorkloadTrace.from_columns("t", [1.0], [(0.1, 1, 0, 0)], requested_mem_mb=0.0)
        assert zero.requested_mem_mb == 0.0

    def test_pickle_round_trip_keeps_read_only_columns(self):
        import pickle

        trace = WorkloadTrace("t", phases_from([(10, 0.1, 100), (20, 0.5, 500)]), requested_mem_mb=321)
        trace.demand_at(5.0)
        loaded = pickle.loads(pickle.dumps(trace))
        assert loaded.phases == trace.phases
        assert loaded.requested_mem_mb == 321 and loaded.qos_class is trace.qos_class
        assert not any(c.flags.writeable for c in loaded.demand_table())
        assert pickle.dumps(loaded) == pickle.dumps(trace)
