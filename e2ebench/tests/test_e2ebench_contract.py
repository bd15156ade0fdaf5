"""BENCHMARK.json is well formed and matches what the runner produces."""

import json
import re

from e2ebench.layers import RUN_COUNTERS, layer_metrics
from e2ebench.run import ROOT
from e2ebench.spans import Spans
from e2ebench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def _bench():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_top_level_keys_and_sizes():
    bench = _bench()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 1 <= len(bench["paths"]) <= 16
    for path in bench["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path
        assert (ROOT / path).is_dir()
    assert 1 <= len(bench["command"]) <= 32
    assert all(len(arg) <= 200 and not arg.startswith("/") for arg in bench["command"])
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_names_units_directions_bounds():
    bench = _bench()
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")


def test_setup_metric_has_the_largest_bound():
    e2e = {m["name"]: m for m in _bench()["end_to_end"]}
    setup = e2e["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e.values())


def test_workloads_match_the_runner():
    assert [w["name"] for w in _bench()["workloads"]] == list(WORKLOADS)


def test_runner_produces_every_declared_metric():
    bench = _bench()
    assert {m["name"] for m in bench["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb"}
    produced = set(layer_metrics(Spans(), dict.fromkeys(RUN_COUNTERS, 0)))
    produced.add("bench.trace_overhead")
    assert {m["name"] for m in bench["per_layer"]} <= produced
