"""Array-native execution quantum: the kubelet tick as ndarray ops.

PR 8 vectorized the *scheduling* pass; this module vectorizes the
*execution* quantum — the per-tick work :meth:`Kubelet.step_device`
does for every busy device: look up each running pod's demand in its
trace, arbitrate the device (interference shares, capacity check,
telemetry sample, power), advance progress, detect completions.  On a
dense 1024-node run that loop is where the wall clock goes.

Design
------
* **Pod-major arrays.**  Every hosted pod occupies a slot in a set of
  flat arrays (progress, cached demand row, device row, reservation,
  pull deadline), appended on admit and tombstoned on release —
  write-through hooks from the kubelet keep them in sync, exactly like
  the device arrays of :class:`~repro.cluster.state.ClusterState`.
  Slots are append-only and compacted order-preservingly, so the
  per-device slot order always equals the kubelet's dict insertion
  order — which is what makes the float sums below bit-identical.
* **Phase tables.**  Each :class:`~repro.workloads.base.WorkloadTrace`
  stores its phases as columns (``demand_table``): cumulative end-times
  plus a ``(phases, 4)`` demand matrix; all tables are concatenated so a
  slot's current demand is a cached row refreshed by ``searchsorted``
  only when progress crosses a phase boundary.
* **Segment sums via bincount.**  ``np.bincount(dev, weights=w)``
  accumulates sequentially in input order — the same left-to-right
  order as the object path's ``sum()`` over the demands dict — so
  per-device totals (SM, memory, PCIe, delivered compute) are
  bit-identical, unlike ``np.sum``/``np.add.reduceat`` whose pairwise
  reduction rounds differently.
* **Rare events drop to the object path.**  Devices with a capacity
  violation, a completion, or a failure this tick are replayed through
  the unmodified :meth:`Kubelet.step_device` — OOM victim selection
  (``_pick_victim`` tie-breaks), eviction notifications, requeue order
  and telemetry writes all come from the legacy code, so decisions
  stay bit-identical by construction.  The engine only writes device
  samples and pod progress for the common no-event case.

The engine leaves only the per-object ``gpu.last_sample`` stale
between rare events, and no policy reads it (the ``Scheduler``
device-state contract), so it engages in every run with observability
and the sanitizer off, whatever the policy.  It composes with
quiescence skipping: nodes with pods step every tick through the
vectorized path, idle nodes keep their quiet horizons and legacy steps.

This module must not import :mod:`repro.kube` (the kube layer imports
cluster; an import back would cycle) — kubelets and pods arrive
duck-typed through the constructor and hooks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["QuantumEngine", "demand_rows_at", "pick_victim_slots"]

_NEG_INF = float("-inf")


def demand_rows_at(cum: np.ndarray, rows: np.ndarray, progress: np.ndarray) -> np.ndarray:
    """Batched ``WorkloadTrace.demand_at`` over one trace's phase table.

    ``cum``/``rows`` come from ``WorkloadTrace.demand_table()``;
    ``progress`` is an array of non-negative progress values.  Returns
    the ``(len(progress), 4)`` demand rows, with progress at or past
    the trace end clamped to the final phase — the exact semantics of
    the scalar lookup (``side="right"`` plus the terminal clamp).
    """
    idx = np.searchsorted(cum, np.asarray(progress, dtype=float), side="right")
    np.minimum(idx, len(cum) - 1, out=idx)
    return rows[idx]


def pick_victim_slots(
    dev: np.ndarray,
    d_mem: np.ndarray,
    alloc_mb: np.ndarray,
    attach_seq: np.ndarray,
    violating: np.ndarray,
) -> dict[int, int]:
    """Replay ``GPU._pick_victim`` per violating device, array-native.

    ``dev``/``d_mem``/``alloc_mb``/``attach_seq`` are pod-major arrays
    (device row, memory demand, reservation, attach sequence number);
    ``violating`` lists device rows whose summed demand exceeded
    capacity.  Returns ``{device row: victim slot}`` using the legacy
    tie-breaks: pods bursting past their reservation (strictly more
    than ``alloc + 1e-9``) are preferred victims; among those — or all
    residents when none is over — the greatest ``attach_seq`` dies.
    """
    over = d_mem > alloc_mb + 1e-9
    victims: dict[int, int] = {}
    for d in violating:
        on = np.nonzero(dev == d)[0]
        pool = on[over[on]]
        if pool.size == 0:
            pool = on
        victims[int(d)] = int(pool[np.argmax(attach_seq[pool])])
    return victims


class QuantumEngine:
    """Vectorized per-tick advance over all hosting nodes.

    Owned by the orchestrator; installed as ``kubelet.engine`` on every
    node so the admit/start/release/resize paths write through.  The
    engine replaces the per-node ``Kubelet.step`` calls for nodes that
    host pods; empty due nodes still take the legacy step (and keep
    the quiet-horizon machinery).
    """

    #: Compact the slot arrays when tombstones outnumber live slots.
    _COMPACT_MIN_DEAD = 64

    #: Occupancy crossover: below this many running pods the fixed
    #: ndarray dispatch overhead of the batched advance costs more than
    #: iterating the demands dicts, so :meth:`step_due` routes sparse
    #: ticks wholesale through the legacy per-node step (which is
    #: bit-identical by construction).  Tuned on the dense bench; set
    #: to 0 to force the vectorized path (the A/B tests do).
    min_batch = 48

    def __init__(self, cluster, kubelets, quiet_until, epoch_seen) -> None:
        state = cluster.state
        self.state = state
        self._kubelets = list(kubelets)
        self._quiet_until = quiet_until
        self._epoch_seen = epoch_seen
        self._node_slices = state.node_slices
        self._gpus = [g for node in cluster for g in node.gpus]
        n = len(state)
        # Static per-device facts (heterogeneous fleets supported).
        # ``span = tdp - idle`` precomputed: the object path evaluates
        # ``idle + (tdp - idle) * u`` fresh, and the subtraction is
        # exact either way.
        self._idle_w = state.idle_watts
        self._span_w = state.tdp_watts - state.idle_watts
        self._pcie = state.pcie_mbps
        self._alpha = state.interference_alpha
        self._cap = state.mem_capacity_mb
        self._cap_eps = state.mem_capacity_mb + 1e-9
        #: Devices whose *state* sample holds vectorized busy values
        #: while the GPU object's ``last_sample`` was left stale — the
        #: idle path must force-write through the property once.
        self._stale = np.zeros(n, dtype=bool)
        #: Nodes the fast path handled on their last executed tick
        #: (the asleep-refresh replay is only needed on entry).
        self._was_fast = np.zeros(len(state.node_slices), dtype=bool)

        # Pod-major slot arrays (append + tombstone + compaction).
        cap = 256
        self._n_slots = 0
        self._dead = 0
        self._slot: dict[str, int] = {}
        self._pods: list = [None] * cap
        self._dev = np.zeros(cap, dtype=np.intp)
        self._node = np.zeros(cap, dtype=np.intp)
        self._run = np.zeros(cap, dtype=bool)
        self._alive = np.zeros(cap, dtype=bool)
        self._deadline = np.zeros(cap)
        self._progress = np.zeros(cap)
        self._alloc = np.zeros(cap)
        self._total = np.zeros(cap)
        self._cur_end = np.zeros(cap)
        self._d_sm = np.zeros(cap)
        self._d_mem = np.zeros(cap)
        self._d_tx = np.zeros(cap)
        self._d_rx = np.zeros(cap)
        self._t_off = np.zeros(cap, dtype=np.intp)
        self._t_k = np.zeros(cap, dtype=np.intp)
        self._t_j = np.zeros(cap, dtype=np.intp)

        # Concatenated phase tables, one segment per distinct trace.
        tcap = 256
        self._trace_len = 0
        self._trace_seg: dict[int, tuple[int, int]] = {}
        self._trace_refs: list = []   # keep traces alive so id() stays unique
        self._g_cum = np.zeros(tcap)
        self._g_sm = np.zeros(tcap)
        self._g_mem = np.zeros(tcap)
        self._g_tx = np.zeros(tcap)
        self._g_rx = np.zeros(tcap)

        #: Engagement counters (plain attributes: metrics are off
        #: whenever the engine exists).  ``fast_ticks`` counts ticks
        #: the vectorized advance ran over at least one hosting node;
        #: ``fallbacks`` counts devices replayed through the object
        #: path for a rare event.
        self.fast_ticks = 0
        self.fallbacks = 0
        #: Running pods currently registered, maintained by the
        #: start/release hooks: the per-tick crossover gate in
        #: :meth:`step_due` compares it against :attr:`min_batch`.
        self._n_running = 0
        #: True while the *pod objects* hold authoritative progress
        #: (initially, and whenever sparse ticks route through the
        #: legacy step).  The fast path resyncs the arrays on entry;
        #: the sparse route writes the arrays back on entry.
        self._progress_stale = True

    # -- write-through hooks (called from the kubelet) ---------------------

    def on_admit(self, pod, deadline: float) -> None:
        """Register a newly admitted pod (pulling, not yet running)."""
        s = self._n_slots
        if s == len(self._dev):
            self._grow_slots()
        self._n_slots = s + 1
        dev = self.state.index[pod.gpu_id]
        self._dev[s] = dev
        self._node[s] = self.state.node_of[dev]
        self._run[s] = False
        self._alive[s] = True
        self._deadline[s] = deadline
        self._progress[s] = pod.progress_ms
        self._alloc[s] = pod.alloc_mb
        trace = pod.spec.trace
        off, k = self._register_trace(trace)
        self._t_off[s] = off
        self._t_k[s] = k
        self._total[s] = trace.total_ms
        # Force a demand-row refresh on the first vectorized tick.
        self._cur_end[s] = _NEG_INF
        self._t_j[s] = 0
        self._pods[s] = pod
        self._slot[pod.uid] = s

    def on_pod_started(self, pod) -> None:
        """The image pull finished; the pod is RUNNING from this tick."""
        s = self._slot[pod.uid]
        self._run[s] = True
        self._n_running += 1
        self._progress[s] = pod.progress_ms
        self._cur_end[s] = _NEG_INF
        self._t_j[s] = 0

    def on_release(self, uid: str) -> None:
        """The pod left the node (completed, OOM-killed, or evicted)."""
        s = self._slot.pop(uid, None)
        if s is not None:
            self._alive[s] = False
            if self._run[s]:
                self._n_running -= 1
                self._run[s] = False
            self._pods[s] = None
            self._dead += 1

    def on_resize(self, uid: str, new_alloc_mb: float) -> None:
        s = self._slot.get(uid)
        if s is not None:
            self._alloc[s] = new_alloc_mb

    def flush(self) -> None:
        """Write vectorized progress back to the pod objects.

        Called once at result collection, and by :meth:`step_due` when
        occupancy drops below :attr:`min_batch` mid-run, so the legacy
        step (and still-running pods in the result) see true progress.
        No-op while the objects are already authoritative.
        """
        if self._progress_stale:
            return
        n = self._n_slots
        for s in np.nonzero(self._alive[:n] & self._run[:n])[0]:
            self._pods[s].progress_ms = float(self._progress[s])
        self._progress_stale = True

    # -- the per-tick advance ----------------------------------------------

    def step_due(self, now: float, dt_ms: float, prev_now, due_idx) -> list:
        """Advance every due node one tick; returns OOM/eviction victims.

        Hosting nodes go through the vectorized advance; empty due
        nodes take the unmodified legacy step and keep their quiet
        horizons, so quiescence skipping composes unchanged.
        """
        # Compact before routing, so that runs whose ticks all take the
        # legacy step drop dead slots and traces too.  Not in
        # ``on_release``: the rare-event replay calls it in the middle of
        # ``_fast_tick``, while slot indices are held.
        if self._dead >= self._COMPACT_MIN_DEAD and self._dead * 2 > self._n_slots:
            self._compact()
        kubelets = self._kubelets
        victims: list = []
        fast: list[int] = []
        legacy: list[int] = []
        if self._n_running < self.min_batch:
            # Sparse occupancy: the fixed ndarray dispatch cost of the
            # batched advance exceeds a couple dozen dict iterations,
            # so route every due node through the legacy step (in
            # ascending node order, preserving victim ordering).  The
            # objects become authoritative for progress: write the
            # arrays back first if a fast stint just ended.
            self.flush()
            legacy = [int(i) for i in due_idx]
        else:
            for i in due_idx:
                if kubelets[int(i)]._pods:
                    fast.append(int(i))
                else:
                    legacy.append(int(i))
        if fast:
            self._fast_tick(now, dt_ms, prev_now, fast, victims)
            self.fast_ticks += 1
        if legacy:
            epochs = self.state.node_epoch
            stale = self._stale
            for i in legacy:
                kubelet = kubelets[i]
                if self._was_fast[i]:
                    # Vectorized busy samples may be sitting in the
                    # state mirror with the GPU objects' memoized idle
                    # sample still in place; force the idle values
                    # through the property once so the legacy idle
                    # short-circuit's identity check stays sound.
                    start, stop = self._node_slices[i]
                    for dev in range(start, stop):
                        if stale[dev]:
                            gpu = self._gpus[dev]
                            gpu.last_sample = gpu.idle_sample()
                            stale[dev] = False
                    # The fast path never calls ``quiet_horizon`` for
                    # hosting nodes, so the kubelet's asleep-refresh
                    # list is stale from before the fast stint;
                    # recompute it before ``step`` replays idle clocks
                    # from it.  (Fast nodes step every tick and stamp
                    # asleep devices with ``now``, so the fresh replay
                    # is the same no-op the legacy path would do.)
                    kubelet._asleep_refresh = [
                        g.gpu_id
                        for g in kubelet.node.gpus
                        if g.asleep and not g.failed
                    ]
                    self._was_fast[i] = False
                victims.extend(kubelet.step(now, dt_ms, prev_now))
                self._quiet_until[i] = kubelet.quiet_horizon(now, dt_ms)
                self._epoch_seen[i] = epochs[i]
        return victims

    def _fast_tick(self, now, dt_ms, prev_now, nodes, victims) -> None:
        state = self.state
        kubelets = self._kubelets
        # Entry replay: a node whose previous executed tick was the
        # legacy path may have skipped ticks before it; replay the
        # asleep-device idle_since refresh exactly like Kubelet.step.
        # Continuously fast-handled nodes step every tick, where the
        # replay is provably a no-op, so it is skipped mid-stretch.
        if prev_now is not None:
            for i in nodes:
                if not self._was_fast[i]:
                    kubelet = kubelets[i]
                    idle_since = kubelet._idle_since
                    for gpu_id in kubelet._asleep_refresh:
                        idle_since[gpu_id] = prev_now
        n = self._n_slots
        nd = len(state)
        run = self._run
        alive = self._alive
        if self._progress_stale:
            # A sparse (legacy-routed) stint just ended: the objects
            # advanced progress; resync the arrays before they become
            # authoritative again.  Crossed phase boundaries are caught
            # by the row-refresh pass below (progress only advances).
            for s in np.nonzero(alive[:n] & run[:n])[0]:
                self._progress[s] = self._pods[s].progress_ms
            self._progress_stale = False

        # 1. Pull deadlines: start pods whose image pull finished.  The
        # object path runs a node's starts before its devices and no
        # start affects another node, so running all starts first is
        # order-equivalent — and it lets the demand pass below see the
        # newly started pods, keeping their start tick out of the rare
        # path.
        pending = alive[:n] & ~run[:n]
        if pending.any():
            due_start = pending & (self._deadline[:n] <= now)
            if due_start.any():
                for i in np.unique(self._node[:n][due_start]):
                    kubelets[int(i)].start_due_pods(now)

        # 2. Demand rows: refresh slots whose progress crossed a phase
        # boundary (searchsorted against the trace's cumulative ends —
        # the exact demand_at semantics including the terminal clamp).
        act = np.nonzero(run[:n] & alive[:n])[0]
        if act.size:
            need = act[self._progress[act] >= self._cur_end[act]]
            if need.size:
                self._refresh_rows(need)

            devs = self._dev[act]
            d_sm = self._d_sm[act]
            # 3. Per-device segment sums over *touched* devices only —
            # the tick's cost scales with hosted pods, not fleet size.
            # bincount over the unique-inverse keeps the sequential
            # slot-order accumulation (== the object path's dict order);
            # relabelling devices does not reorder the inputs.
            touched, inv = np.unique(devs, return_inverse=True)
            m = len(touched)
            counts_t = np.bincount(inv, minlength=m)
            total_sm_t = np.bincount(inv, weights=d_sm, minlength=m)
            total_mem_t = np.bincount(inv, weights=self._d_mem[act], minlength=m)

            # 4. Interference shares, elementwise as in GPU.arbitrate.
            alpha = self._alpha[devs]
            sm_scale_t = np.ones(m)
            np.divide(1.0, total_sm_t, out=sm_scale_t, where=total_sm_t > 1.0)
            t = total_sm_t[inv]
            share = sm_scale_t[inv] / (1.0 + alpha * (t - d_sm))
            new_prog = self._progress[act] + dt_ms * share

            # 5. Rare-event masks: capacity violations, completions and
            # failed devices replay the object path below.  ``rare``
            # stays fleet-width (a cheap bool copy) because the node
            # remainder loop probes it for empty devices too.
            rare = state.failed.copy()
            over_t = total_mem_t > self._cap_eps[touched]
            if over_t.any():
                rare[touched[over_t]] = True
            done = new_prog >= self._total[act]
            if done.any():
                rare[devs[done]] = True

            # 6. Vectorized sample + power for untouched busy devices —
            # the same expression tree as GPU.arbitrate, elementwise.
            write_t = ~rare[touched]
            if write_t.any():
                wd = touched[write_t]
                delivered_t = np.bincount(inv, weights=d_sm * share, minlength=m)
                u = np.minimum(
                    np.maximum(np.minimum(delivered_t[write_t], 1.0), 0.0), 1.0
                )
                mem_used = np.minimum(total_mem_t, self._cap[touched])[write_t]
                tx = np.minimum(
                    np.bincount(inv, weights=self._d_tx[act], minlength=m),
                    self._pcie[touched],
                )[write_t]
                rx = np.minimum(
                    np.bincount(inv, weights=self._d_rx[act], minlength=m),
                    self._pcie[touched],
                )[write_t]
                state.sm_util[wd] = np.minimum(total_sm_t, 1.0)[write_t]
                state.mem_used_mb[wd] = mem_used
                state.mem_util[wd] = mem_used / self._cap[wd]
                state.power_w[wd] = self._idle_w[wd] + self._span_w[wd] * u
                state.tx_mbps[wd] = tx
                state.rx_mbps[wd] = rx
                state.sample_containers[wd] = counts_t[write_t]
                state.sample_dirty.update(wd.tolist())
                state.sample_gen += 1
                self._stale[wd] = True

            # 7. Advance progress for pods on untouched devices.
            ok = ~rare[devs]
            self._progress[act[ok]] = new_prog[ok]
            busy = np.zeros(nd, dtype=bool)
            busy[touched] = True
        else:
            busy = np.zeros(nd, dtype=bool)
            rare = state.failed.copy()

        # 8. Per-node remainder: rare devices replay the object path;
        # busy devices refresh their idle clock; empty devices take the
        # legacy idle branch (sample fixed point + auto-pstate).
        gpus = self._gpus
        stale = self._stale
        for i in nodes:
            kubelet = kubelets[i]
            idle_since = kubelet._idle_since
            start, stop = self._node_slices[i]
            for dev in range(start, stop):
                gpu = gpus[dev]
                if rare[dev]:
                    self._drop_device(kubelet, gpu, dev, now, dt_ms, victims)
                elif busy[dev]:
                    idle_since[gpu.gpu_id] = now
                else:
                    if stale[dev]:
                        gpu.last_sample = gpu.idle_sample()
                        stale[dev] = False
                    else:
                        sample = gpu.idle_sample()
                        if gpu.last_sample is not sample:
                            gpu.last_sample = sample
                    if gpu.containers or gpu.asleep:
                        idle_since[gpu.gpu_id] = now
                    elif now - idle_since[gpu.gpu_id] >= kubelet.config.auto_pstate_idle_ms:
                        gpu.sleep()
            if kubelet._pods:
                self._quiet_until[i] = _NEG_INF
            else:
                self._quiet_until[i] = kubelet.quiet_horizon(now, dt_ms)
            self._was_fast[i] = True
        idx = np.asarray(nodes, dtype=np.intp)
        self._epoch_seen[idx] = state.node_epoch[idx]

    def _drop_device(self, kubelet, gpu, dev, now, dt_ms, victims) -> None:
        """Replay one device through the unmodified object path.

        Progress is written back to the pod objects first so
        ``demand_at``/victim selection see current state, and resynced
        for survivors afterwards (releases tombstone via the hooks).
        """
        n = self._n_slots
        slots = np.nonzero(
            (self._dev[:n] == dev) & self._alive[:n] & self._run[:n]
        )[0]
        pods = self._pods
        for s in slots:
            pods[s].progress_ms = float(self._progress[s])
        kubelet.step_device(gpu, now, dt_ms, victims, None)
        self.fallbacks += 1
        for s in slots:
            if self._alive[s]:
                self._progress[s] = pods[s].progress_ms
        self._stale[dev] = False

    # -- internals ----------------------------------------------------------

    def _refresh_rows(self, slots: np.ndarray) -> None:
        """Re-cache demand rows after phase crossings, batched.

        Equivalent to a per-slot ``searchsorted(cum, p, side="right")``
        (the exact ``demand_at`` semantics including the terminal
        clamp), but implemented as a vectorized advance from each
        slot's cached phase index (progress never runs backwards): one
        pass over the batch per phase the furthest slot crosses,
        instead of one scalar bisect per slot.  Phases are short
        against a tick, so that is several passes: at seed 0 the median
        phase of ``harvest_1024``'s and ``churn_gang_256``'s traces is
        0.6 ms against a 10 ms tick, a refreshed slot crosses 3.0 and
        3.5 phases per tick, and a call advances 6.4 and 7.7 times (one
        more mask finds nothing to advance).
        """
        offs = self._t_off[slots]
        last = self._t_k[slots] - 1
        p = self._progress[slots]
        j = np.minimum(self._t_j[slots], last)
        g_cum = self._g_cum
        while True:
            step = (j < last) & (p >= g_cum[offs + j])
            if not step.any():
                break
            j += step
        row = offs + j
        terminal = (j == last) & (p >= g_cum[row])
        # Final phase reached *and* past its end: demand never changes
        # again.  Otherwise the phase ends where its cumulative bound is.
        self._cur_end[slots] = np.where(terminal, np.inf, g_cum[row])
        self._t_j[slots] = j
        self._d_sm[slots] = self._g_sm[row]
        self._d_mem[slots] = self._g_mem[row]
        self._d_tx[slots] = self._g_tx[row]
        self._d_rx[slots] = self._g_rx[row]

    def _register_trace(self, trace) -> tuple[int, int]:
        seg = self._trace_seg.get(id(trace))
        if seg is not None:
            return seg
        cum, rows = trace.demand_table()
        k = len(cum)
        off = self._trace_len
        while off + k > len(self._g_cum):
            self._grow_tables()
        self._g_cum[off:off + k] = cum
        self._g_sm[off:off + k] = rows[:, 0]
        self._g_mem[off:off + k] = rows[:, 1]
        self._g_tx[off:off + k] = rows[:, 2]
        self._g_rx[off:off + k] = rows[:, 3]
        self._trace_len = off + k
        seg = (off, k)
        self._trace_seg[id(trace)] = seg
        self._trace_refs.append(trace)
        return seg

    def _grow_slots(self) -> None:
        cap = len(self._dev) * 2
        for name in (
            "_dev", "_node", "_run", "_alive", "_deadline", "_progress",
            "_alloc", "_total", "_cur_end", "_d_sm", "_d_mem", "_d_tx",
            "_d_rx", "_t_off", "_t_k", "_t_j",
        ):
            old = getattr(self, name)
            new = np.zeros(cap, dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, name, new)
        self._pods.extend([None] * (cap - len(self._pods)))

    def _grow_tables(self) -> None:
        cap = len(self._g_cum) * 2
        for name in ("_g_cum", "_g_sm", "_g_mem", "_g_tx", "_g_rx"):
            old = getattr(self, name)
            new = np.zeros(cap)
            new[: len(old)] = old
            setattr(self, name, new)

    def _compact(self) -> None:
        """Drop tombstones, preserving slot order (= admit order), and
        the phase tables of traces no live slot runs."""
        n = self._n_slots
        keep = np.nonzero(self._alive[:n])[0]
        m = len(keep)
        for name in (
            "_dev", "_node", "_run", "_alive", "_deadline", "_progress",
            "_alloc", "_total", "_cur_end", "_d_sm", "_d_mem", "_d_tx",
            "_d_rx", "_t_off", "_t_k", "_t_j",
        ):
            arr = getattr(self, name)
            arr[:m] = arr[keep]
        pods = self._pods
        live = [pods[int(s)] for s in keep]
        pods[:m] = live
        for s in range(m, n):
            pods[s] = None
        self._slot = {pod.uid: j for j, pod in enumerate(live)}
        self._n_slots = m
        self._dead = 0
        self._compact_tables(live)

    def _compact_tables(self, live: list) -> None:
        """Rebuild the phase tables from the traces of ``live`` (the
        compacted slots' pods): one segment per distinct trace, in slot
        order, with values copied, never recomputed.

        ``_trace_seg`` is keyed by ``id(trace)``, and a trace dropped
        from ``_trace_refs`` may be freed and its id reused, so both
        forget a dead trace together.
        """
        old_seg = self._trace_seg
        seg: dict[int, tuple[int, int]] = {}
        refs: list = []
        src: list[np.ndarray] = []
        offs = np.empty(len(live), dtype=np.intp)
        end = 0
        for j, pod in enumerate(live):
            trace = pod.spec.trace
            key = id(trace)
            mine = seg.get(key)
            if mine is None:
                off, k = old_seg[key]
                src.append(np.arange(off, off + k))
                mine = seg[key] = (end, k)
                refs.append(trace)
                end += k
            offs[j] = mine[0]
        cap = 256
        while cap < end:
            cap *= 2
        idx = np.concatenate(src) if src else np.empty(0, dtype=np.intp)
        for name in ("_g_cum", "_g_sm", "_g_mem", "_g_tx", "_g_rx"):
            table = np.zeros(cap)
            table[:end] = getattr(self, name)[idx]
            setattr(self, name, table)
        self._t_off[: len(live)] = offs
        self._trace_seg = seg
        self._trace_refs = refs
        self._trace_len = end
