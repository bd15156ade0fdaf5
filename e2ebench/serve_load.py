"""Drive ``python -m repro serve`` over loopback HTTP.

One client process (the benchmark's own) runs a fixed schedule of
operations open loop: each ``POST /v1/pods`` and each ``GET /metrics``
scrape has a due time and is sent then, whatever the server answered
before.  ``threads`` workers take operations in due order, so at most
``threads`` connections are open at once.  Every latency is timed from
the operation's *due* time, so a stall that holds up later operations
is charged to them as well (no coordinated omission), and how late the
generator itself ran is reported beside it.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Op", "OpResult", "OpenLoopClient", "http_send", "ServerProcess", "schedule"]

POST = "POST /v1/pods"
SCRAPE = "GET /metrics"


@dataclass(frozen=True)
class Op:
    due_s: float               # offset from the schedule start
    kind: str                  # POST or SCRAPE
    body: bytes = b""


@dataclass(frozen=True)
class OpResult:
    kind: str
    status: int                # 0 when the connection failed
    latency_s: float           # response time minus due time
    late_s: float              # send time minus due time


def schedule(requests: list[tuple[float, dict]], load_s: float, scrape_hz: float) -> list[Op]:
    """POSTs at their due times plus ``scrape_hz`` scrapes over the load."""
    ops = [Op(due, POST, json.dumps(body).encode()) for due, body in requests]
    n_scrapes = int(load_s * scrape_hz)
    ops += [Op((k + 0.5) / scrape_hz, SCRAPE) for k in range(n_scrapes)]
    ops.sort(key=lambda op: op.due_s)
    return ops


def http_send(port: int, op: Op, timeout_s: float = 10.0) -> int:
    """Send one operation on a fresh connection; the HTTP status, or 0."""
    method, path = op.kind.split(" ", 1)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
    try:
        headers = {"Content-Type": "application/json"} if op.body else {}
        conn.request(method, path, body=op.body or None, headers=headers)
        response = conn.getresponse()
        response.read()
        return response.status
    except (OSError, http.client.HTTPException):
        return 0
    finally:
        conn.close()


class OpenLoopClient:
    """Run a schedule of operations open loop on ``threads`` workers."""

    def __init__(
        self,
        ops: list[Op],
        send: Callable[[Op], int],
        threads: int,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.ops = ops
        self.send = send
        self.threads = threads
        self.clock = clock
        self.sleep = sleep
        self._lock = threading.Lock()
        self._next = 0
        self._results: list[OpResult | None] = [None] * len(ops)

    def run(self, start: float) -> list[OpResult]:
        """Send every operation, due at ``start + op.due_s``; blocks."""
        workers = [
            threading.Thread(target=self._worker, args=(start,), name=f"e2ebench-client-{i}")
            for i in range(self.threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        results = [r for r in self._results if r is not None]
        if len(results) != len(self.ops):
            raise RuntimeError(f"{len(self.ops) - len(results)} operations were never sent")
        return results

    def _worker(self, start: float) -> None:
        while True:
            with self._lock:
                idx = self._next
                self._next += 1
            if idx >= len(self.ops):
                return
            op = self.ops[idx]
            due = start + op.due_s
            delay = due - self.clock()
            if delay > 0:
                self.sleep(delay)
            sent = self.clock()
            status = self.send(op)
            done = self.clock()
            result = OpResult(op.kind, status, done - due, sent - due)
            with self._lock:
                self._results[idx] = result


def _get_json(port: int, path: str) -> dict[str, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return json.loads(response.read())
    finally:
        conn.close()


class ServerProcess:
    """One server child pinned to ``cpus``: spawn, wait for ``/healthz``,
    read its CPU and peak memory from ``/proc``, stop it with SIGINT."""

    _LISTEN = re.compile(r"listening on http://[^:]+:(\d+)")

    def __init__(self, argv: list[str], env: dict[str, str], cwd: str, cpus: set[int]) -> None:
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        os.sched_setaffinity(self.proc.pid, cpus)
        self.port = 0

    def wait_ready(self, timeout_s: float = 15.0) -> float:
        """The ``time.monotonic()`` of the first ``/healthz`` 200."""
        line = self.proc.stderr.readline()  # type: ignore[union-attr]
        match = self._LISTEN.search(line)
        if match is None:
            raise RuntimeError(f"server did not report its port: {line!r}")
        self.port = int(match.group(1))
        deadline = self.spawned + timeout_s
        while time.monotonic() < deadline:
            if http_send(self.port, Op(0.0, "GET /healthz"), timeout_s=1.0) == 200:
                return time.monotonic()
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz")

    def stats(self) -> dict[str, Any]:
        return _get_json(self.port, "/v1/stats")

    def wait_placed(self, expected: int, timeout_s: float = 10.0) -> dict[str, Any]:
        """Poll ``/v1/stats`` until ``expected`` pods are placed (or time out)."""
        deadline = time.monotonic() + timeout_s
        while True:
            stats = self.stats()
            if stats["counts"]["placed"] >= expected or time.monotonic() > deadline:
                return stats
            time.sleep(0.01)

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, timeout_s: float = 15.0) -> int:
        """SIGINT (graceful drain), wait; kill if it hangs.  The exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return -9
        return self.proc.returncode
