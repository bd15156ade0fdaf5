"""Reference implementations of the pre-event-loop simulator drivers.

The event-driven cores in :mod:`repro.sim.simulator` and
:mod:`repro.sim.dlsim` are pinned bit-identical to the loops they
replaced (the same norm PR 3 set by retaining
``correlation_matrix_pairwise``).  This module keeps those loops
runnable:

* :func:`run_tick_reference` — the original fixed-tick ``while`` loop
  of ``KubeKnotsSimulator.run``: one iteration per
  ``tick_ms``, with in-loop fault application, an O(n²)
  list-scan-and-``remove`` repair list, and per-tick submission /
  heartbeat / scheduling phase checks.
* :func:`run_dl_reference` — the original advance-and-recompute loop of
  ``DLClusterSimulator.run``.

Both operate on a **freshly constructed, not yet run** simulator
instance and drive exactly the same substrate objects the event-driven
paths drive, so ``tests/test_sim_equivalence.py`` can compare the two
executions field by field, and ``repro.bench.simloop`` can time
old-vs-new on identical inputs.
"""

from __future__ import annotations

from repro.units import s_to_ms

__all__ = ["run_tick_reference", "run_dl_reference"]


def run_tick_reference(sim) -> "SimResult":  # noqa: F821 - forward ref, see import below
    """Drive a fresh :class:`~repro.sim.simulator.KubeKnotsSimulator`
    with the pre-PR fixed-tick loop and return its :class:`SimResult`."""

    cfg = sim.config
    api = sim.orchestrator.api
    obs = sim.obs
    tracer = obs.tracer
    if tracer.enabled:
        tracer.begin(
            "simulation", cat="sim",
            args={"scheduler": sim.orchestrator.scheduler.name, "pods": len(sim.workload)},
            ts=0.0,
        )
    arrival_end = sim.workload[-1][0] if sim.workload else 0.0
    horizon = max(arrival_end * cfg.horizon_factor, cfg.min_horizon_ms)

    fail_plan = sorted(cfg.faults, key=lambda f: f.at_ms)
    repairs: list[tuple[float, str]] = []
    next_fault = 0

    next_submit = 0
    next_schedule = 0.0
    next_heartbeat = 0.0
    t = 0.0
    while True:
        if obs.enabled:
            obs.clock.now = t
        # 0. failure-injection plan
        while next_fault < len(fail_plan) and fail_plan[next_fault].at_ms <= t:
            fault = fail_plan[next_fault]
            next_fault += 1
            gpu = sim.cluster.find_gpu(fault.gpu_id)
            if not gpu.failed:
                gpu.fail()
                repairs.append((fault.at_ms + fault.duration_ms, fault.gpu_id))
        for when, gpu_id in list(repairs):
            if when <= t:
                sim.cluster.find_gpu(gpu_id).repair()
                repairs.remove((when, gpu_id))

        # 1. submissions due this tick
        while next_submit < len(sim.workload) and sim.workload[next_submit][0] <= t:
            pod = api.submit(sim.workload[next_submit][1], t)
            next_submit += 1
            if tracer.enabled:
                tracer.instant(
                    "submit", cat="workload",
                    args={"pod": pod.uid, "image": pod.spec.image}, ts=t,
                )

        # 2. execute one quantum on every node
        sim.orchestrator.step_kubelets(t, cfg.tick_ms)

        # 3. telemetry heartbeat into the Knots telemetry ring
        if t >= next_heartbeat:
            sim.orchestrator.heartbeat(t)
            next_heartbeat = t + cfg.knots.heartbeat_ms
        sim._record(t, cfg.tick_ms)

        # 4. scheduling pass
        if t >= next_schedule:
            sim.orchestrator.scheduling_pass(t)
            next_schedule = t + cfg.schedule_interval_ms

        t += cfg.tick_ms
        if next_submit >= len(sim.workload) and api.all_done():
            break
        if t > horizon:
            break

    if tracer.enabled:
        tracer.end(args={"makespan_ms": t}, ts=t)
    return sim.collect_result(t)


def run_dl_reference(sim) -> "DLSimResult":  # noqa: F821 - forward ref, see import below
    """Drive a fresh :class:`~repro.sim.dlsim.DLClusterSimulator` with
    the pre-PR advance-and-recompute loop."""
    from repro.sim.dlsim import _EPS, _RunState, DLSimResult

    now = 0.0
    next_arrival_idx = 0
    policy = sim.policy
    n = len(sim.jobs)

    while True:
        policy.rates(now)
        t_candidates: list[float] = []
        if next_arrival_idx < n:
            t_candidates.append(sim.jobs[next_arrival_idx].arrival_s)
        for state in policy.running.values():
            if state.rate > _EPS:
                t_candidates.append(now + state.remaining_s / state.rate)
            elif state.paused_until is not None:
                t_candidates.append(state.paused_until)
        timer = policy.next_timer(now)
        if timer is not None and (policy.running or policy.pending):
            t_candidates.append(timer)
        if not t_candidates:
            break
        t_next = min(t_candidates)
        san = sim._san
        if san is not None:
            sim.obs.clock.now = s_to_ms(now)   # stamp violations in ms
            san.check_dl_time(now, t_next)
            san.check_dl_pool(sim.pool.load, sim.pool.dli)
        if t_next > sim.max_horizon_s:
            break
        dt = max(t_next - now, 0.0)

        # advance progress
        for state in policy.running.values():
            if state.rate > _EPS:
                state.remaining_s -= dt * state.rate
        now = t_next

        # completions
        done = [s for s in policy.running.values() if s.remaining_s <= 1e-6]
        for state in sorted(done, key=lambda s: s.job.job_id):
            state.job.finish_s = now
            policy.complete(state, now)
            if sim.obs.enabled:
                sim.obs.clock.now = s_to_ms(now)
                sim._m_completed.inc(policy=policy.name, kind=state.job.kind.value)
                tracer = sim.obs.tracer
                if tracer.enabled:
                    tracer.async_end(
                        f"dljob:{state.job.kind.value}", f"{policy.name}/{state.job.job_id}",
                        cat=policy.name, ts=s_to_ms(now),
                    )

        # arrivals
        while next_arrival_idx < n and sim.jobs[next_arrival_idx].arrival_s <= now + _EPS:
            job = sim.jobs[next_arrival_idx]
            next_arrival_idx += 1
            policy.submit(_RunState(job=job, gpus=[], remaining_s=job.service_s), now)
            if sim.obs.enabled:
                sim.obs.clock.now = s_to_ms(now)
                sim._m_submitted.inc(policy=policy.name, kind=job.kind.value)
                tracer = sim.obs.tracer
                if tracer.enabled:
                    tracer.async_begin(
                        f"dljob:{job.kind.value}", f"{policy.name}/{job.job_id}",
                        cat=policy.name,
                        args={"num_gpus": job.num_gpus, "service_s": job.service_s},
                        ts=s_to_ms(now),
                    )

        # policy timer
        timer = policy.next_timer(now)
        if timer is not None and timer <= now + _EPS:
            policy.on_timer(now)
            policy.reschedule(now)

        if next_arrival_idx >= n and not policy.running and not policy.pending:
            break

    return DLSimResult(policy=policy.name, jobs=sim.jobs, horizon_s=max(now, 1.0))
