"""Tests for the parallel sweep fabric (repro.sweep).

The load-bearing guarantees:

* serial, process-pool and warm-cache resolutions of the same tasks are
  **byte-identical** (cross-process determinism);
* cache keys track every outcome-relevant knob and the code version, so
  a stale cache can never masquerade as a fresh result;
* a worker that dies poisons the sweep loudly (``SweepError`` naming
  the task) instead of hanging it, and a ``SanitizerError`` raised in a
  worker crosses the pool boundary intact (the CLI's exit-3 contract).
"""

from __future__ import annotations

import os
import pickle
import threading
from dataclasses import dataclass

import pytest

import repro
from repro.analysis.sanitizer import SanitizerError, Violation
from repro.experiments.runner import ExperimentSettings, clear, mix_run
from repro.sweep import DLTask, MixTask, SweepError, run_tasks, task_key
from repro.sweep.fabric import clear_memo, last_stats
from repro.sweep.store import SCHEMA_TAG, ResultStore

SMALL = ExperimentSettings(duration_s=2.0, num_nodes=4, seed=7)
TASKS = [MixTask("app-mix-1", s, SMALL) for s in ("cbp", "uniform")]


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


@dataclass(frozen=True)
class _CrashTask:
    """A task whose worker dies without raising (exercises pool death)."""

    idx: int

    def execute(self):  # pragma: no cover - runs (and dies) in a worker
        os._exit(2)


class TestDeterminism:
    def test_serial_pool_and_cache_bit_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        serial = run_tasks(TASKS, jobs=1, store=store, memo=False)
        store.clear()
        pooled = run_tasks(TASKS, jobs=2, store=store, memo=False)
        assert last_stats()["misses"] == len(TASKS)
        cached = run_tasks(TASKS, jobs=2, store=store, memo=False)
        assert last_stats() == {"tasks": 2, "hits": 2, "misses": 0, "workers": 0}
        for a, b, c in zip(serial, pooled, cached):
            assert pickle.dumps(a) == pickle.dumps(b) == pickle.dumps(c)

    def test_duplicate_tasks_resolve_once(self, tmp_path):
        task = MixTask("app-mix-1", "uniform", SMALL)
        results = run_tasks([task, task, task], jobs=1, store=ResultStore(tmp_path))
        stats = last_stats()
        assert stats["tasks"] == 3 and stats["misses"] == 1
        assert results[0] is results[1] is results[2]


class TestCacheKeys:
    def test_key_is_stable_across_equal_tasks(self):
        a = MixTask("app-mix-1", "cbp", ExperimentSettings(duration_s=5.0))
        b = MixTask("app-mix-1", "cbp", ExperimentSettings(duration_s=5.0))
        assert task_key(a) == task_key(b)

    def test_every_knob_changes_the_key(self):
        base = MixTask("app-mix-1", "cbp", SMALL)
        variants = [
            MixTask("app-mix-2", "cbp", SMALL),
            MixTask("app-mix-1", "uniform", SMALL),
            MixTask("app-mix-1", "cbp", ExperimentSettings(duration_s=2.0, num_nodes=4, seed=8)),
            MixTask("app-mix-1", "cbp", ExperimentSettings(duration_s=2.0, num_nodes=4, seed=7,
                                                           fast_forward=False)),
            MixTask("app-mix-1", "cbp", SMALL, scheduler_kwargs=(("correlation_threshold", 0.7),)),
            MixTask("app-mix-1", "cbp", SMALL, heartbeat_ms=500.0),
        ]
        keys = {task_key(t) for t in variants}
        assert task_key(base) not in keys
        assert len(keys) == len(variants)

    def test_task_types_do_not_collide(self):
        assert task_key(MixTask("m", "s", SMALL)) != task_key(DLTask("s"))

    def test_version_bump_invalidates(self, monkeypatch, tmp_path):
        task = MixTask("app-mix-1", "uniform", SMALL)
        store = ResultStore(tmp_path)
        run_tasks([task], jobs=1, store=store, memo=False)
        old_key = task_key(task)
        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        assert task_key(task) != old_key
        run_tasks([task], jobs=1, store=store, memo=False)
        assert last_stats()["misses"] == 1  # the old entry no longer matches


class TestStore:
    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" + "0" * 62, object(), {"x": 1})
        path = store._path("ab" + "0" * 62)
        path.write_bytes(b"not a pickle")
        assert store.get("ab" + "0" * 62) is None
        assert not path.exists()

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cd" + "0" * 62
        store.put(key, object(), {"x": 1})
        payload = pickle.loads(store._path(key).read_bytes())
        assert payload["schema"] == SCHEMA_TAG
        payload["schema"] = "something-else/v0"
        store._path(key).write_bytes(pickle.dumps(payload))
        assert store.get(key) is None

    def test_env_var_redirects_default_store(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert ResultStore().root == tmp_path / "cache"


class TestMixRunView:
    def test_mix_run_uses_store_and_clear_invalidates_memo(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = mix_run("app-mix-1", "uniform", SMALL)
        assert last_stats()["misses"] == 1
        assert len(ResultStore()) == 1
        memo_hit = mix_run("app-mix-1", "uniform", SMALL)
        assert last_stats()["hits"] == 1 and memo_hit is first
        clear()  # memo dropped, disk kept
        disk_hit = mix_run("app-mix-1", "uniform", SMALL)
        assert last_stats() == {"tasks": 1, "hits": 1, "misses": 0, "workers": 0}
        assert disk_hit is not first
        assert pickle.dumps(disk_hit) == pickle.dumps(first)
        clear(disk=True)
        assert len(ResultStore()) == 0


class TestFailurePaths:
    def test_dead_worker_raises_sweep_error_not_hang(self, tmp_path):
        with pytest.raises(SweepError, match="_CrashTask"):
            run_tasks([_CrashTask(0), _CrashTask(1)], jobs=2,
                      store=ResultStore(tmp_path), memo=False)

    def test_sanitizer_error_survives_pickling(self):
        violation = Violation("dl-time-monotonic", 12.5, "time went backwards", {"dt": -1.0})
        err = pickle.loads(pickle.dumps(SanitizerError(violation)))
        assert isinstance(err, SanitizerError)
        assert err.violation == violation
        assert str(err) == str(SanitizerError(violation))


class TestThreadSafety:
    def test_concurrent_run_tasks_keep_memo_and_stats_coherent(self, tmp_path):
        # Regression for the fabric state lock: module-level memo and
        # stats are shared across callers, so concurrent run_tasks()
        # calls must neither corrupt them nor diverge in results.
        store = ResultStore(tmp_path)
        task = MixTask("app-mix-1", "uniform", SMALL)
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def work(idx: int):
            try:
                results[idx] = run_tasks([task], jobs=1, store=store)
            except BaseException as exc:  # surfaced below, not swallowed
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(results) == 4
        payloads = {pickle.dumps(r[0]) for r in results.values()}
        assert len(payloads) == 1, "concurrent callers saw divergent results"
        stats = last_stats()
        assert stats["tasks"] == 1
        assert stats["hits"] + stats["misses"] == 1  # a coherent snapshot


class TestBenchGuards:
    def test_warm_cache_miss_raises(self, monkeypatch):
        # The sweep bench's warm phase must be all hits; force one store
        # miss there (the cold phases make 8 lookups, all misses) and the
        # bench refuses to record numbers.
        from repro.bench.sweep import bench_sweep_parallel

        real_get = ResultStore.get
        lookups = []

        def get(self, key):
            lookups.append(key)
            return None if len(lookups) == 9 else real_get(self, key)

        monkeypatch.setattr(ResultStore, "get", get)
        with pytest.raises(RuntimeError, match="warm run expected 4 cache hits.*'misses': 1"):
            bench_sweep_parallel(quick=True)
