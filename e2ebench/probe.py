"""A speed probe that shares the measured process's CPU.

On a shared virtual machine the vCPU a benchmark runs on slows by up to
half for seconds or minutes at a time, whenever whatever shares its
physical core gets busy.  Samples taken minutes apart then differ by
more than any useful regression bound (ten runs of one workload spread
by 11-28%, or 5-16% when each reported its fastest sample).  The probe
runs a fixed pure-Python kernel on the measured process's CPU every
``GAP_S`` seconds and records how long each kernel took.  A host time
measured over a window is then scaled to the reference speed, at which
the kernel takes ``REF_US``: by ``(REF_US / k) ** ELASTICITY``, where
``k`` is the kernel's mean time in the window with the slowest and the
fastest tenth left out.

Across 16 samples of each simulation workload the log of a sample's
host time follows the log of ``k`` with a correlation of 0.72-0.96 and a
slope (the elasticity) of 1.22-1.28: the simulator slows a quarter more
than the kernel does.  A random gather from an 8 MB array, a dictionary
walk and an object-building loop tracked worse or with slopes that
differed between workloads; the plain mean and the median of the kernel
times tracked worse than the trimmed mean.

    python3 -m e2ebench.probe

prints ``ready`` after its first kernel, then runs until a line arrives
on (or end of) its standard input, and prints its samples as JSON.  The
probe takes about 2% of the CPU it shares.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time

__all__ = ["REF_US", "ELASTICITY", "SpeedProbe", "bench_cpu", "pin", "reference_scale"]

#: Iterations of the kernel: about 0.5 ms.
KERNEL_ITERS = 10_000
#: Sleep between kernels.
GAP_S = 0.025
#: Kernel time that defines the reference speed.
REF_US = 500.0
#: How much more than the kernel the simulator slows, in log terms.
ELASTICITY = 1.25
#: Share of kernel times left out at each end of a window.
TRIM = 0.1
#: Fewest kernels a window must hold; with fewer, every kernel counts.
MIN_KERNELS = 3


def _kernel() -> int:
    s = 0
    for i in range(KERNEL_ITERS):
        s += i * i
    return s


def bench_cpu() -> int:
    """The CPU the measured processes and their probe are pinned to."""
    return max(os.sched_getaffinity(0))


def pin(pid: int, cpus: set[int]) -> None:
    """Pin a process (0: this one) and the threads it starts later."""
    os.sched_setaffinity(pid, cpus)


class SpeedProbe:
    """The probe process, pinned to ``cpu`` until :meth:`stop`."""

    def __init__(self, cpu: int, env: dict[str, str], cwd: str) -> None:
        self.samples: list[tuple[int, int]] = []
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "e2ebench.probe"], cwd=cwd, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            pin(self.proc.pid, {cpu})
            if self.proc.stdout.readline().strip() != "ready":  # type: ignore[union-attr]
                raise RuntimeError("the speed probe did not start")
        except BaseException:
            self.close()
            raise

    def stop(self) -> None:
        """End the probe and collect its ``(start_ns, duration_ns)`` kernels."""
        out, _ = self.proc.communicate("stop\n", timeout=30)
        self.samples = [tuple(s) for s in json.loads(out)]

    def close(self) -> None:
        """Kill the probe if it still runs (after an error)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def scale(self, t0_s: float, t1_s: float) -> float:
        return reference_scale(self.samples, t0_s, t1_s)


def reference_scale(samples: list[tuple[int, int]], t0_s: float, t1_s: float) -> float:
    """What a host time measured between two ``time.monotonic()``
    readings is multiplied by to give the time at the reference speed."""
    lo, hi = t0_s * 1e9, t1_s * 1e9
    inside = sorted(d for start, d in samples if lo <= start <= hi)
    if len(inside) < MIN_KERNELS:
        inside = sorted(d for _, d in samples)
    cut = int(len(inside) * TRIM)
    kept = inside[cut:len(inside) - cut]
    return (REF_US * 1e3 * len(kept) / sum(kept)) ** ELASTICITY


def main() -> int:
    samples: list[tuple[int, int]] = []
    while True:
        start = time.monotonic_ns()
        _kernel()
        samples.append((start, time.monotonic_ns() - start))
        if len(samples) == 1:
            print("ready", flush=True)
        ready, _, _ = select.select([sys.stdin], [], [], GAP_S)
        if ready:
            break
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
