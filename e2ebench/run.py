"""The end-to-end benchmark of the Kube-Knots reproduction.

One run of one workload (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints a small table and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every
``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0``, every
``per_layer`` metric with ``--trace 1``.  Simulation samples each run in
a fresh child process (``e2ebench.sample``) until the time is up, and
every sample's output digest is checked (against ``digests.json`` when
the seed is pinned there, otherwise all samples must agree).  A trace
run alternates untraced and traced samples, so it also measures what
tracing costs; its traced digests must equal the untraced ones.

Each measured process is pinned to one CPU beside a speed probe
(``e2ebench.probe``), and every host time is reported at the probe's
reference speed.

Helpers for people (not used by ``BENCHMARK.json``)::

    python3 e2ebench/run.py suite --rounds 5 --out runs.jsonl   # all workloads, taking turns
    python3 e2ebench/run.py report runs.jsonl                   # medians, spreads, layer split
    python3 e2ebench/run.py compare base.jsonl change.jsonl     # verdict per (metric, workload)
    python3 e2ebench/run.py pin                                 # regenerate digests.json

Everything runs from a source checkout: ``src/repro`` is imported from
the checkout the script sits in, and traces go to ``e2ebench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    # Run as a script: import the benchmark as the ``e2ebench`` package,
    # and ``repro`` (for the serving client) from this checkout.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from e2ebench.benchstats import spread, summarize, verdict  # noqa: E402
from e2ebench.probe import SpeedProbe, bench_cpu, pin  # noqa: E402
from e2ebench.workloads import SERVE, SIM_WORKLOADS, WORKLOADS  # noqa: E402

BENCH_DIR = ROOT / "e2ebench"
OUT_DIR = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"

#: Fewest samples a simulation run takes, whatever ``--seconds`` says.
MIN_SAMPLES = 3
#: A run gives up on a hung child after this many seconds from its start,
#: so it always ends within the 180 s a run may take.
RUN_DEADLINE_S = 150.0
#: The seeds ``digests.json`` pins for each simulation workload.
PINNED_SEEDS = range(32)


# -- plumbing ------------------------------------------------------------------


def _check_layout() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no src/repro under {ROOT}; run from a source checkout",
              file=sys.stderr)
        raise SystemExit(2)


def _env() -> dict[str, str]:
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def load_benchmark() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _load_digests() -> dict[str, dict[str, str]]:
    if not DIGESTS.is_file():
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ref(sample: dict[str, Any], key: str) -> float:
    """A sample's host time ``key`` at the probe's reference speed."""
    return sample[key] * sample["scale"][key]


def _child_sample(
    workload: str, seed: int, trace_path: Path | None, timeout_s: float = RUN_DEADLINE_S
) -> dict | None:
    """One simulation sample in a fresh interpreter pinned beside a speed
    probe; None if it failed."""
    argv = [sys.executable, "-m", "e2ebench.sample", workload, str(seed)]
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    cpu = bench_cpu()
    probe = SpeedProbe(cpu, _env(), str(ROOT))
    try:
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        pin(proc.pid, {cpu})
        try:
            out, err = proc.communicate(timeout=max(timeout_s, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"e2ebench: {workload} sample timed out", file=sys.stderr)
            return None
        probe.stop()
    finally:
        probe.close()
    if proc.returncode != 0:
        print(f"e2ebench: {workload} sample exited {proc.returncode}:\n{err}", file=sys.stderr)
        return None
    sample = json.loads(out.strip().splitlines()[-1])
    t0, t1, t2 = sample["window"]
    sample["scale"] = {"setup_s": probe.scale(t0, t1), "run_s": probe.scale(t1, t2)}
    return sample


# -- simulation workloads ---------------------------------------------------------


def run_sim(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Samples until ``seconds`` are used; a trace run alternates
    untraced and traced samples."""
    pinned = _load_digests().get(name, {}).get(str(seed))
    trace_path = OUT_DIR / f"trace-{name}-seed{seed}.json" if trace else None
    untraced: list[dict] = []
    traced: list[dict] = []
    crashed = 0
    took: list[float] = []
    start = time.perf_counter()
    min_samples = MIN_SAMPLES * (2 if trace else 1)
    while True:
        done = len(untraced) + len(traced) + crashed
        elapsed = time.perf_counter() - start
        if done >= min_samples and elapsed + _median(took) > seconds:
            break
        traced_turn = trace and done % 2 == 1
        t0 = time.perf_counter()
        sample = _child_sample(
            name, seed, trace_path if traced_turn else None, RUN_DEADLINE_S - elapsed
        )
        took.append(time.perf_counter() - t0)
        if sample is None:
            crashed += 1
        else:
            (traced if traced_turn else untraced).append(sample)
    if not untraced or (trace and not traced):
        raise RuntimeError(f"{name}: no sample completed")

    everything = untraced + traced
    reference = pinned or Counter(s["digest"] for s in everything).most_common(1)[0][0]
    quantum_ticks = untraced[0]["fast_quantum_ticks"]
    failed = crashed + sum(
        1 for s in everything
        if s["digest"] != reference or s["fast_quantum_ticks"] != quantum_ticks
    )
    record: dict[str, Any] = {
        "attempted": len(everything) + crashed,
        "failed": failed,
        "checks": {
            "digest": reference,
            "pinned": pinned is not None,
            "fast_quantum_ticks": quantum_ticks,
        },
        "samples": everything,
    }
    run_ref = [_ref(s, "run_s") for s in untraced]
    if not trace:
        record["summary"] = {
            "run_s": summarize(run_ref),
            "setup_s": summarize([_ref(s, "setup_s") for s in untraced]),
            "peak_rss_mb": summarize([s["peak_rss_mb"] for s in untraced]),
        }
        record["metrics"] = {key: s["median"] for key, s in record["summary"].items()}
        return record
    layers = {
        key: statistics.median(s["layers"][key] for s in traced) for key in traced[0]["layers"]
    }
    layers["bench.trace_overhead"] = (
        statistics.median(_ref(s, "run_s") for s in traced) / statistics.median(run_ref) - 1.0
    )
    record["metrics"] = layers
    record["spans"] = traced[-1]["spans"]
    return record


# -- the serving workload ---------------------------------------------------------


def _serve_argv(layers_path: Path | None, trace_path: Path | None) -> list[str]:
    if layers_path is None:
        return [sys.executable, "-m", "repro", "serve", "--qps", "0", "--duration", "0",
                "--port", "0", "--status-interval", "0"]
    return [sys.executable, "-m", "e2ebench.serve_child",
            "--layers", str(layers_path), "--trace", str(trace_path)]


def serve_session(
    seed: int, load_s: float, layers_path: Path | None = None, trace_path: Path | None = None
) -> dict[str, Any]:
    """One server process under one open-loop schedule, then SIGINT.

    The server and its speed probe share one CPU; the client runs on
    the others (on a one-CPU host, on that one).
    """
    from e2ebench.serve_load import POST, OpenLoopClient, ServerProcess, http_send, schedule
    from e2ebench.spans import percentile
    from e2ebench.workloads import serve_requests

    ops = schedule(serve_requests(SERVE, seed, load_s), load_s, SERVE.scrape_hz)
    cpu = bench_cpu()
    mine = os.sched_getaffinity(0)
    probe = SpeedProbe(cpu, _env(), str(ROOT))
    try:
        pin(0, (mine - {cpu}) or mine)
        server = ServerProcess(_serve_argv(layers_path, trace_path), _env(), str(ROOT), {cpu})
        try:
            ready = server.wait_ready()
            cpu0 = server.cpu_s()
            client = OpenLoopClient(ops, lambda op: http_send(server.port, op), SERVE.threads)
            start = time.monotonic() + 0.05
            results = client.run(start)
            posts = [r for r in results if r.kind == POST]
            scrapes = [r for r in results if r.kind != POST]
            accepted = sum(1 for r in posts if r.status == 202)
            stats = server.wait_placed(accepted)
            end = time.monotonic()
            server_cpu_s = server.cpu_s() - cpu0
            peak_rss_mb = server.peak_rss_mb()
        finally:
            exit_code = server.stop()
        probe.stop()
    finally:
        probe.close()
        pin(0, mine)
    counts = stats["counts"]
    non2xx = (len(posts) - accepted) + sum(1 for r in scrapes if r.status != 200)
    session_ok = (
        counts["accepted"] == accepted == counts["placed"]
        and counts["dropped"] == 0
        and exit_code == 0
    )
    out: dict[str, Any] = {
        "attempted": len(results) + 1,
        "failed": non2xx + (0 if session_ok else 1),
        "counts": counts,
        "exit_code": exit_code,
        "wall_s": end - start,
        # The server's wall time is set by the schedule; its CPU time is the work.
        "run_s": server_cpu_s,
        "setup_s": ready - server.spawned,
        "scale": {
            "run_s": probe.scale(start, end),
            "setup_s": probe.scale(server.spawned, ready),
        },
        "peak_rss_mb": peak_rss_mb,
        "client": {
            "serve.http.admit_p50_ms": percentile([r.latency_s * 1e3 for r in posts], 50.0),
            "serve.http.admit_p99_ms": percentile([r.latency_s * 1e3 for r in posts], 99.0),
            "serve.http.scrape_p50_ms": percentile([r.latency_s * 1e3 for r in scrapes], 50.0),
            "serve.gen.late_max_ms": max(r.late_s for r in results) * 1e3,
            "serve.bind_p50_ms": stats["decision_latency_ms"]["p50"],
            "serve.bind_p99_ms": stats["decision_latency_ms"]["p99"],
        },
    }
    if layers_path is not None and layers_path.is_file():
        with open(layers_path, encoding="utf-8") as fh:
            out.update(json.load(fh))
    return out


def run_serve(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """``--trace 0``: ``SERVE.sessions`` server sessions, each loaded for
    ``load_share`` of the time.  ``--trace 1``: an untraced and a traced
    session, ``trace_load_share`` each."""
    if not trace:
        sessions = [
            serve_session(seed, SERVE.load_share * seconds) for _ in range(SERVE.sessions)
        ]
        metrics = {key: _median([_ref(s, key) for s in sessions]) for key in ("run_s", "setup_s")}
        metrics["peak_rss_mb"] = _median([s["peak_rss_mb"] for s in sessions])
        for key in sessions[0]["client"]:
            metrics[key] = _median([s["client"][key] for s in sessions])
        return {
            "attempted": sum(s["attempted"] for s in sessions),
            "failed": sum(s["failed"] for s in sessions),
            "sessions": sessions,
            "metrics": metrics,
        }
    load_s = SERVE.trace_load_share * seconds
    plain = serve_session(seed, load_s)
    layers_path = OUT_DIR / f"layers-{SERVE.name}-seed{seed}.json"
    layers_path.unlink(missing_ok=True)
    traced = serve_session(
        seed, load_s, layers_path, OUT_DIR / f"trace-{SERVE.name}-seed{seed}.json"
    )
    if "layers" not in traced:
        raise RuntimeError("the traced server wrote no per-layer metrics")
    metrics = dict(traced["layers"])
    metrics.update(traced["client"])
    metrics["bench.trace_overhead"] = _ref(traced, "run_s") / _ref(plain, "run_s") - 1.0
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "sessions": [plain, {k: v for k, v in traced.items() if k != "spans"}],
        "metrics": metrics,
        "spans": traced["spans"],
    }


# -- one run (the BENCHMARK.json command) -------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            record_path: str | None) -> int:
    _check_layout()
    bench = load_benchmark()
    if workload not in WORKLOADS:
        print(f"e2ebench: unknown workload {workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if workload in SIM_WORKLOADS:
            record = run_sim(workload, seed, seconds, trace)
        else:
            record = run_serve(seed, seconds, trace)
    except (RuntimeError, OSError, KeyError, ValueError, subprocess.SubprocessError) as exc:
        print(f"e2ebench: {workload} failed: {exc}", file=sys.stderr)
        return 1
    declared = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
    if missing:
        print(f"e2ebench: {workload} does not produce {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    for name, value in sorted(record["metrics"].items()):
        print(f"  {workload:16s} {name:28s} {value:.6g}")
    if record_path:
        entry = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "host_cpus": os.cpu_count(), "result": result, **record,
        }
        with open(record_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
    print(json.dumps(result))
    return 0


# -- helpers for people ------------------------------------------------------------


def _read_records(path: str) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _values(records: list[dict], workload: str, metric: str, trace: int) -> list[float]:
    return [
        r["metrics"][metric] for r in records
        if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]
    ]


def cmd_suite(args: argparse.Namespace) -> int:
    """``rounds`` rounds of every workload taking turns (the starting
    workload rotates), then ``trace_rounds`` trace runs of each."""
    names = list(WORKLOADS)
    seconds = load_benchmark()["run_seconds"]
    plan = [
        (name, args.seed + r, 0)
        for r in range(args.rounds)
        for name in names[r % len(names):] + names[:r % len(names)]
    ] + [(name, args.seed + r, 1) for r in range(args.trace_rounds) for name in names]
    for name, seed, trace in plan:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                "--record", str(Path(args.out).resolve())]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_DEADLINE_S + 60)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        print(f"{name:16s} seed={seed:<3d} trace={trace} exit={proc.returncode} {last}",
              flush=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
    return cmd_report(argparse.Namespace(path=args.out))


def cmd_report(args: argparse.Namespace) -> int:
    """End-to-end medians and spreads, then per-layer medians and the
    span self-time split of the last trace run of each workload."""
    bounds = {m["name"]: f"{m['bound']:6.2f}" for m in load_benchmark()["end_to_end"]}
    records = _read_records(args.path)
    print(f"{'workload':16s} {'metric':24s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s} {'n':>3s}")
    for name in WORKLOADS:
        runs = [r for r in records if r["workload"] == name and r["trace"] == 0]
        # The declared metrics first, then what a run records beside them.
        keys = list(bounds) + sorted({k for r in runs for k in r["metrics"]} - set(bounds))
        for key in keys:
            values = _values(records, name, key, 0)
            if not values:
                continue
            s = summarize(values)
            print(f"{name:16s} {key:24s} {s['median']:10.4g} {s['q1']:10.4g} "
                  f"{s['q3']:10.4g} {spread(s):7.3f} {bounds.get(key, ''):>6s} {s['n']:3d}")
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    print(f"failed {failed} of {attempted} operations")
    for name in WORKLOADS:
        traces = [r for r in records if r["workload"] == name and r["trace"] == 1]
        if not traces:
            continue
        print(f"\n{name}: per-layer medians over {len(traces)} trace run(s)")
        for key in sorted(traces[-1]["metrics"]):
            print(f"  {key:28s} {_median(_values(records, name, key, 1)):12.6g}")
        spans = traces[-1].get("spans", {})
        root_ms = spans.get("root", {}).get("total_ms", 0.0)
        print(f"  self-time split of the last traced run ({root_ms:.1f} ms):")
        for span, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_ms"]):
            share = row["self_ms"] / root_ms if root_ms else 0.0
            print(f"    {span:22s} {row['self_ms']:10.1f} ms {share:6.1%} "
                  f"{int(row['calls']):8d} calls")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Verdict per (end-to-end metric, workload); exit 1 on any 'worse'
    or on failed operations in the change."""
    bench = load_benchmark()
    base, change = _read_records(args.base), _read_records(args.change)
    worse = 0
    print(f"{'workload':16s} {'metric':14s} {'base':>10s} {'change':>10s} {'delta':>8s} "
          f"{'bound':>6s}  verdict")
    for name in WORKLOADS:
        for m in bench["end_to_end"]:
            a = _values(base, name, m["name"], 0)
            b = _values(change, name, m["name"], 0)
            if not a or not b:
                continue
            result, delta = verdict(a, b, m["better"], m["bound"])
            worse += result == "worse"
            print(f"{name:16s} {m['name']:14s} {statistics.median(a):10.4g} "
                  f"{statistics.median(b):10.4g} {delta:+8.3f} {m['bound']:6.2f}  {result}")
    failed = sum(r["failed"] for r in change)
    if failed:
        print(f"change: {failed} failed operations")
    return 1 if worse or failed else 0


def cmd_pin(args: argparse.Namespace) -> int:
    """Record the output digest of one untraced sample per (workload, seed)."""
    _check_layout()
    digests = _load_digests()
    for name in SIM_WORKLOADS:
        table = digests.setdefault(name, {})
        for seed in PINNED_SEEDS:
            sample = _child_sample(name, seed, None)
            if sample is None:
                return 1
            table[str(seed)] = sample["digest"]
            print(f"{name:16s} seed={seed:<3d} {sample['digest']}", flush=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in ("suite", "report", "compare", "pin"):
        parser = argparse.ArgumentParser(prog="e2ebench/run.py")
        sub = parser.add_subparsers(dest="command", required=True)
        p = sub.add_parser("suite", help="every workload, taking turns, appended to --out")
        p.add_argument("--rounds", type=int, default=5)
        p.add_argument("--trace-rounds", type=int, default=1, dest="trace_rounds")
        p.add_argument("--seed", type=int, default=0, help="seed of round 0 (+1 per round)")
        p.add_argument("--out", required=True, metavar="RUNS.jsonl")
        p.set_defaults(func=cmd_suite)
        p = sub.add_parser("report", help="summarize a runs file")
        p.add_argument("path")
        p.set_defaults(func=cmd_report)
        p = sub.add_parser("compare", help="verdict per (end-to-end metric, workload)")
        p.add_argument("base")
        p.add_argument("change")
        p.set_defaults(func=cmd_compare)
        p = sub.add_parser("pin", help=f"regenerate digests.json (seeds 0-{PINNED_SEEDS[-1]})")
        p.set_defaults(func=cmd_pin)
        args = parser.parse_args(argv)
        return args.func(args)
    parser = argparse.ArgumentParser(prog="e2ebench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, metavar="RUNS.jsonl",
                        help="append the full run record (samples, checks, layers)")
    args = parser.parse_args(argv)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.record)


if __name__ == "__main__":
    sys.exit(main())
