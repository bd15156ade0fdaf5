"""Tests for counters/gauges/histograms and the Prometheus exporter."""

from __future__ import annotations

import math
import sys
import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("requests_total")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_counters_only_go_up(self):
        c = Counter("requests_total")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_labelled_series_are_independent(self):
        c = Counter("actions_total", labelnames=("kind",))
        c.inc(kind="bind")
        c.inc(kind="bind")
        c.inc(kind="resize")
        assert c.value(kind="bind") == 2.0
        assert c.value(kind="resize") == 1.0
        assert c.value(kind="sleep") == 0.0

    def test_wrong_label_set_rejected(self):
        c = Counter("actions_total", labelnames=("kind",))
        with pytest.raises(ValueError):
            c.inc(color="red")
        with pytest.raises(ValueError):
            c.inc()

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name with spaces")


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge("queue_depth")
        g.set(7.0)
        g.inc(-2.0)   # gauges may go down
        assert g.value() == 5.0


class TestHistogramBucketing:
    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus buckets are "le" (<=): an observation exactly on a
        # boundary counts toward that boundary's bucket.
        h = Histogram("lat_ms", buckets=(10.0, 100.0))
        h.observe(10.0)
        counts = h.bucket_counts()
        assert counts[10.0] == 1
        assert counts[100.0] == 1
        assert counts[math.inf] == 1

    def test_cumulative_counts(self):
        h = Histogram("lat_ms", buckets=(10.0, 100.0, 1000.0))
        for v in (5.0, 50.0, 500.0, 5_000.0):
            h.observe(v)
        counts = h.bucket_counts()
        assert counts == {10.0: 1, 100.0: 2, 1000.0: 3, math.inf: 4}
        assert h.count() == 4
        assert h.sum() == pytest.approx(5_555.0)

    def test_overflow_bucket(self):
        h = Histogram("lat_ms", buckets=(1.0,))
        h.observe(99.0)
        assert h.bucket_counts() == {1.0: 0, math.inf: 1}

    def test_unsorted_bucket_input_is_sorted(self):
        h = Histogram("lat_ms", buckets=(100.0, 1.0, 10.0))
        assert h.buckets == (1.0, 10.0, 100.0)

    def test_duplicate_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat_ms", buckets=(1.0, 1.0))

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat_ms", buckets=())


class TestPrometheusRender:
    def test_counter_text_format(self):
        c = Counter("pods_total", "Pods seen", labelnames=("qos",))
        c.inc(3, qos="batch")
        lines = c.render()
        assert lines[0] == "# HELP pods_total Pods seen"
        assert lines[1] == "# TYPE pods_total counter"
        assert 'pods_total{qos="batch"} 3' in lines

    def test_histogram_text_format(self):
        h = Histogram("wait_ms", "Queue wait", buckets=(10.0, 100.0))
        h.observe(7.0)
        h.observe(70.0)
        h.observe(700.0)
        lines = h.render()
        assert 'wait_ms_bucket{le="10"} 1' in lines
        assert 'wait_ms_bucket{le="100"} 2' in lines
        assert 'wait_ms_bucket{le="+Inf"} 3' in lines
        assert "wait_ms_sum 777" in lines
        assert "wait_ms_count 3" in lines

    def test_unobserved_histogram_still_exposes_buckets(self):
        h = Histogram("wait_ms", buckets=(10.0,))
        lines = h.render()
        assert 'wait_ms_bucket{le="+Inf"} 0' in lines
        assert "wait_ms_count 0" in lines

    def test_registry_render_is_sorted_and_terminated(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("z_total").inc()
        reg.gauge("a_gauge").set(1.0)
        text = reg.render()
        assert text.endswith("\n")
        assert text.index("a_gauge") < text.index("z_total")
        path = tmp_path / "metrics.prom"
        reg.write(path)
        assert path.read_text() == text


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total")
        b = reg.counter("x_total")
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total")

    def test_lookup(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")
        assert reg.get("x_total") is c
        assert reg.get("missing") is None
        assert reg.names() == ["x_total"]


class TestNullRegistry:
    def test_instruments_are_shared_noops(self):
        reg = NullMetricsRegistry()
        c1 = reg.counter("a_total")
        c2 = reg.counter("b_total")
        assert c1 is c2
        c1.inc(100)
        assert c1.value() == 0.0
        reg.gauge("g").set(5.0)
        reg.histogram("h").observe(1.0)
        assert reg.render() == ""
        assert reg.enabled is False


class TestLabelEscaping:
    def test_backslash_quote_and_newline_escaped_in_label_values(self):
        c = Counter("weird_total", labelnames=("path",))
        c.inc(path='C:\\pods\n"quoted"')
        line = c.render()[-1]
        assert line == 'weird_total{path="C:\\\\pods\\n\\"quoted\\""} 1'
        # The rendered line must stay one physical line.
        assert "\n" not in line

    def test_help_text_newline_and_backslash_escaped(self):
        g = Gauge("g", help="line one\nline two \\ slash")
        help_line = g.render()[0]
        assert help_line == "# HELP g line one\\nline two \\\\ slash"
        assert "\n" not in help_line

    def test_plain_values_unchanged(self):
        c = Counter("plain_total", labelnames=("kind",))
        c.inc(kind="bind")
        assert c.render()[-1] == 'plain_total{kind="bind"} 1'


GOLDEN = "tests/fixtures/metrics.prom"


def _golden_registry() -> MetricsRegistry:
    """A registry covering every instrument kind, label escaping and
    insertion order != sort order; pinned byte-for-byte by the golden
    file so /metrics stays deterministic across refactors."""
    reg = MetricsRegistry()
    # Registered out of name order: render() must sort.
    g = reg.gauge("zz_queue_depth", "Admission-queue depth")
    g.set(7)
    c = reg.counter(
        "serve_requests_total",
        "Requests by outcome",
        labelnames=("outcome", "route"),
    )
    # Insertion order differs from sorted label-key order.
    c.inc(outcome="rejected", route="/v1/pods")
    c.inc(3, outcome="accepted", route="/v1/pods")
    c.inc(outcome="accepted", route='odd\\"name\n')
    h = reg.histogram("decision_ms", "Decision latency", buckets=(1.0, 10.0))
    for v in (0.5, 0.5, 5.0, 50.0):
        h.observe(v)
    reg.counter("empty_total", "Never incremented")
    return reg


def test_render_matches_golden_file():
    rendered = _golden_registry().render()
    with open(GOLDEN, encoding="utf-8") as fh:
        assert rendered == fh.read()


def test_render_is_byte_stable_across_construction_orders():
    assert _golden_registry().render() == _golden_registry().render()


def _histogram_series(text: str, name: str) -> dict[str, dict[str, float]]:
    """{label set: {"inf": +Inf bucket, "count": _count}} from a render."""
    series: dict[str, dict[str, float]] = {}
    for line in text.splitlines():
        if line.startswith(f"{name}_bucket{{") and 'le="+Inf"' in line:
            labels = line[line.index("{"):line.index(",le=")] + "}"
            series.setdefault(labels, {})["inf"] = float(line.rsplit(" ", 1)[1])
        elif line.startswith(f"{name}_count{{"):
            labels = line[line.index("{"):line.index("}") + 1]
            series.setdefault(labels, {})["count"] = float(line.rsplit(" ", 1)[1])
    return series


def test_render_is_a_snapshot_under_a_concurrent_writer():
    """A scrape renders while the service thread adds label keys and
    observes.  Every render must succeed, and each histogram series must
    read one point in time: its +Inf bucket equals its _count."""
    reg = MetricsRegistry()
    hist = reg.histogram("wait_ms", "w", buckets=(1.0,), labelnames=("gpu",))
    counter = reg.counter("binds_total", "b", labelnames=("gpu",))
    stop = threading.Event()

    def writer() -> None:
        i = 0
        while not stop.is_set():
            hist.observe(5.0, gpu=f"g{i % 4}")    # lands in +Inf
            if i % 50 == 0 and i < 10_000:
                counter.inc(gpu=f"g{i}")           # a new label key
                hist.observe(0.5, gpu=f"new{i}")
            i += 1

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=writer)
    thread.start()
    try:
        for _ in range(300):
            text = reg.render()
            for labels, pair in _histogram_series(text, "wait_ms").items():
                assert pair["inf"] == pair["count"], (labels, pair)
    finally:
        stop.set()
        thread.join(timeout=10)
        sys.setswitchinterval(old_interval)
    assert not thread.is_alive()
    assert counter._values, "the writer never ran"
