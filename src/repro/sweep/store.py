"""Persistent content-addressed result store (``.repro-cache/``).

Keys are ``sha256`` digests of everything that decides a result:

* a **schema tag** (bump :data:`SCHEMA_TAG` when the serialized result
  layout changes; v2: workload traces pickle as their phase columns),
* the **code fingerprint** — ``repro.__version__``, so a release that
  changes simulation behaviour invalidates every cached run,
* the task's **type name and repr** — the full parameter set, since
  sweep tasks are frozen dataclasses of primitives whose auto-repr is
  canonical.

Values are pickles of ``{"schema", "version", "task", "result"}``
written atomically (temp file + ``os.replace``), so concurrent sweeps
— including pool workers of other invocations — never observe a torn
entry; the worst race is two processes computing the same miss and one
overwriting the other with an identical payload.  Anything unreadable
or written by a different schema/version is treated as a miss and
dropped.

The store location defaults to ``.repro-cache/`` under the current
directory and can be redirected with the ``REPRO_CACHE_DIR``
environment variable (CI and tests point it at scratch space).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import threading
from pathlib import Path

__all__ = ["SCHEMA_TAG", "DEFAULT_CACHE_DIR", "ResultStore", "task_key"]

SCHEMA_TAG = "kube-knots/sweep-result/v2"
DEFAULT_CACHE_DIR = ".repro-cache"


def _fingerprint() -> str:
    import repro

    return f"{SCHEMA_TAG}|repro-{repro.__version__}"


def task_key(task) -> str:
    """Stable content address of a task under the current code version."""
    blob = f"{_fingerprint()}|{type(task).__name__}|{task!r}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultStore:
    """Filesystem-backed map from task key to simulation result.

    Entries live at ``<root>/<key[:2]>/<key>.pkl`` (fan-out keeps any
    one directory small).  All methods tolerate a missing root — the
    store materializes on the first :meth:`put`.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str):
        """The cached result for ``key``, or ``None`` on any miss.

        Corrupt, truncated or schema-mismatched entries are removed and
        reported as misses — a damaged cache can only cost time, never
        correctness.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            self._discard(path)
            return None
        if not isinstance(payload, dict) or payload.get("schema") != SCHEMA_TAG:
            self._discard(path)
            return None
        return payload.get("result")

    def put(self, key: str, task, result) -> None:
        """Persist ``result`` under ``key`` atomically."""
        import repro

        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": SCHEMA_TAG,
            "version": repro.__version__,
            "task": repr(task),
            "result": result,
        }
        # The temp name must be unique per writer — pid alone is not
        # enough once run_tasks() is called from multiple threads of one
        # process (same key -> same tmp path -> replace/unlink race).
        tmp = path.with_name(
            f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
        )
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # pragma: no cover - only on a failed dump
                tmp.unlink()

    def clear(self) -> None:
        """Delete every cached entry (the on-disk half of invalidation)."""
        shutil.rmtree(self.root, ignore_errors=True)

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - already gone / perms
            pass
