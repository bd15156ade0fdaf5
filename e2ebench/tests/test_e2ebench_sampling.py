"""Inputs, digests, traced-vs-untraced equality, spans, the speed probe,
the open-loop client and the compare verdicts."""

import os
import time

import pytest

from e2ebench.benchstats import summarize, verdict
from e2ebench.layers import ROOT, instrument_sim, layer_metrics, run_counters
from e2ebench.probe import ELASTICITY, REF_US, SpeedProbe, reference_scale
from e2ebench.run import ROOT as REPO
from e2ebench.run import _env
from e2ebench.serve_load import POST, SCRAPE, Op, OpenLoopClient
from e2ebench.spans import HOOK, Spans, tail_percentile
from e2ebench.workloads import (
    JITTER_MS, SIM_WORKLOADS, SimWorkload, build_sim, result_digest, sim_items,
)

#: A 2-node cluster; the quantum engine's batch threshold is lowered so
#: even this run takes fast ticks.
TINY = SimWorkload(
    name="tiny", scheduler="cbp", mix="app-mix-1", nodes=2, gpus_per_node=4,
    window_s=1.5, load_factor=2.0, population_seed=0, horizon_ms=4_000.0,
)


def _run(seed, traced):
    sim = build_sim(TINY, seed)
    sim.orchestrator.quantum.min_batch = 1
    if not traced:
        return sim, sim.run(), None
    spans = Spans()
    instrument_sim(spans, sim)
    return sim, spans.span(ROOT, sim.run), spans


def test_same_seed_same_inputs_and_the_seed_only_shifts_arrivals():
    w = SIM_WORKLOADS["churn_gang_256"]
    a, b, c = sim_items(w, 1), sim_items(w, 1), sim_items(w, 2)
    assert [(t, s.name) for t, s in a] == [(t, s.name) for t, s in b]
    assert [t for t, _ in a] != [t for t, _ in c]
    assert sorted(s.name for _, s in a) == sorted(s.name for _, s in c)
    # Each seed moves an arrival by at most one tick from the population's.
    one, two = {s.name: t for t, s in a}, {s.name: t for t, s in c}
    assert all(abs(one[n] - two[n]) <= 2 * JITTER_MS for n in one)
    gangs = {}
    for t, s in c:
        if s.gang is not None:
            gangs.setdefault(s.gang.gang_id, set()).add(t)
    assert gangs and all(len(instants) == 1 for instants in gangs.values())


def test_digest_repeats_and_traced_equals_untraced():
    sim1, plain1, _ = _run(7, traced=False)
    sim2, plain2, _ = _run(7, traced=False)
    sim3, traced, spans = _run(7, traced=True)
    digests = {
        result_digest(plain1, sim1.orchestrator.api),
        result_digest(plain2, sim2.orchestrator.api),
        result_digest(traced, sim3.orchestrator.api),
    }
    assert len(digests) == 1
    assert plain1.fast_quantum_ticks > 0
    assert plain1.fast_quantum_ticks == plain2.fast_quantum_ticks == traced.fast_quantum_ticks
    counters = run_counters(sim3.orchestrator, sim3.events_fired)
    assert counters["cluster.fast_quantum_ticks"] == traced.fast_quantum_ticks
    assert counters["kube.evictions"] == traced.evictions
    layers = layer_metrics(spans, counters)
    assert layers["core.passes"] > 0 and layers["kube.ticks"] > 0
    assert 0 < layers["core.bind_yield"] <= 1
    table = spans.table()
    total = sum(row["self_ms"] for row in table.values())
    assert total == pytest.approx(table[ROOT]["total_ms"])
    assert table[HOOK]["calls"] == table["core.context"]["calls"]


def test_another_seed_changes_the_digest():
    sim_a, a, _ = _run(7, traced=False)
    sim_b, b, _ = _run(8, traced=False)
    assert result_digest(a, sim_a.orchestrator.api) != result_digest(b, sim_b.orchestrator.api)


def test_self_time_subtracts_direct_children_only():
    spans = Spans()
    spans.records = [          # (name, start, end) in the order calls return
        ("b", 15, 25),
        ("a", 10, 40),
        ("a", 55, 65),         # recursion: a inside a
        ("a", 50, 90),
        ("root", 0, 100),
    ]
    tree = spans.tree()
    assert [(name, parent) for name, _, _, parent in tree] == [
        ("root", -1), ("a", 0), ("b", 1), ("a", 0), ("a", 3),
    ]
    assert spans.self_ns(tree) == [30, 20, 10, 30, 10]
    table = spans.table()
    assert table["root"]["self_ms"] == pytest.approx(30e-6)
    assert table["a"]["self_ms"] == pytest.approx(60e-6)
    assert table["a"]["calls"] == 3
    # Nested same-name spans are counted once in the inclusive total.
    assert table["a"]["total_ms"] == pytest.approx(70e-6)


def test_wrap_records_nesting():
    spans = Spans()

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    layer = Layer()
    spans.wrap(layer, "inner", "inner")
    spans.wrap(layer, "outer", "outer")
    assert spans.span("root", layer.outer) == 2
    assert [(name, parent) for name, _, _, parent in spans.tree()] == [
        ("root", -1), ("outer", 0), ("inner", 1),
    ]


def test_a_slow_result_hook_is_charged_to_no_layer():
    spans = Spans()
    seen = []

    class Layer:
        def outer(self):
            return self.inner()

        def inner(self):
            return 1

    def slow_hook(result):
        seen.append(result)
        time.sleep(0.05)

    layer = Layer()
    spans.wrap(layer, "inner", "inner", slow_hook)
    spans.wrap(layer, "outer", "outer")
    spans.span("root", layer.outer)
    assert seen == [1]
    assert [(name, parent) for name, _, _, parent in spans.tree()] == [
        ("root", -1), ("outer", 0), ("inner", 1), (HOOK, 1),
    ]
    table = spans.table()
    assert table[HOOK]["self_ms"] >= 50.0
    assert table["outer"]["self_ms"] < 10.0
    assert table["inner"]["self_ms"] < 10.0


def test_reference_scale_takes_the_trimmed_window_mean():
    # (start ns, duration ns): twice the reference time inside 1-2 s, with
    # one fast and one slow outlier that the trimmed mean leaves out.
    ref_ns = int(REF_US * 1e3)
    inside = [1] + [2] * 8 + [9]
    samples = [(int(1.05e9 + k * 0.09e9), m * ref_ns) for k, m in enumerate(inside)]
    samples += [(int(t * 1e9), ref_ns) for t in (0.5, 2.3, 2.5, 2.7)]
    assert reference_scale(samples, 1.0, 2.0) == pytest.approx(0.5 ** ELASTICITY)
    # At the reference speed nothing is scaled.
    assert reference_scale(samples, 2.2, 3.0) == pytest.approx(1.0)
    # Too few kernels in the window: every kernel counts.
    assert reference_scale(samples[-2:], 0.0, 1.0) == pytest.approx(1.0)


def test_speed_probe_runs_on_its_cpu_and_stops():
    cpu = max(os.sched_getaffinity(0))
    probe = SpeedProbe(cpu, _env(), str(REPO))
    try:
        assert os.sched_getaffinity(probe.proc.pid) == {cpu}
        t0 = time.monotonic()
        time.sleep(0.2)
        probe.stop()
    finally:
        probe.close()
    assert probe.proc.returncode == 0
    assert len(probe.samples) >= 3
    assert all(duration > 0 for _, duration in probe.samples)
    assert probe.scale(t0, time.monotonic()) > 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(1000)))[0] == 99.0
    assert tail_percentile(list(range(100)))[0] == 90.0
    assert tail_percentile(list(range(15)))[0] == 50.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_latency_is_timed_from_the_due_time():
    clock = FakeClock()
    service_s = {0: 1.0, 1: 0.01, 2: 0.01, 3: 0.01}

    def send(op):
        clock.now += service_s[int(op.body or b"3")]
        return 202

    ops = [Op(0.0, POST, b"0"), Op(0.1, POST, b"1"), Op(0.2, POST, b"2"), Op(1.5, SCRAPE)]
    results = OpenLoopClient(ops, send, threads=1, clock=clock, sleep=clock.sleep).run(0.0)
    assert [r.latency_s for r in results] == pytest.approx([1.0, 0.91, 0.82, 0.01])
    # The stall of the first request made the next two late; the scrape,
    # due after the backlog cleared, went out on time.
    assert [r.late_s for r in results] == pytest.approx([0.0, 0.9, 0.81, 0.0])


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(base, [1.01, 1.00, 1.02, 0.99, 1.00], "lower", 0.1)[0] == "agree"
    assert verdict(base, [1.20, 1.21, 1.19, 1.22, 1.20], "lower", 0.1)[0] == "worse"
    assert verdict(base, [0.80, 0.81, 0.79, 0.80, 0.82], "lower", 0.1)[0] == "better"
    assert verdict(base, [1.20, 1.21, 1.19, 1.22, 1.20], "higher", 0.1)[0] == "better"
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0]
    assert verdict(base, noisy, "lower", 0.1)[0] == "unresolved"
    # Wide spread, but every change run beats every base run.
    assert verdict([1.0, 1.5, 1.2, 1.3, 1.4], [0.5, 0.8, 0.6, 0.7, 0.9], "lower", 0.1)[0] == "better"
    assert verdict(base, base, "lower", 0.1) == ("agree", 0.0)


def test_summary_quartiles_match_statistics_quantiles():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert (s["n"], s["median"], s["q1"], s["q3"]) == (4, 2.5, 1.25, 3.75)
    assert summarize([2.0])["q1"] == summarize([2.0])["q3"] == 2.0
