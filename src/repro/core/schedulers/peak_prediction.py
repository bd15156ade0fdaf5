"""PP: Peak Prediction scheduler (paper Sec. IV-D, Algorithm 1).

PP is layered on CBP and relaxes its most costly restriction.  CBP
refuses to co-locate positively correlated pods; PP observes that
correlated pods are still safe together **if their peak phases do not
collide** — a GPU application's peaks are periodic (phase changes:
bandwidth burst precedes compute/memory peak), so near-term utilization
is forecastable.  Concretely, where CBP's correlation gate fails:

1. Compute the lag-1 autocorrelation of the device's recent memory
   series (Eq. 2).  ``r <= 0`` means no exploitable trend — move on to
   the next node.
2. Otherwise forecast the next second of device memory with first-order
   ARIMA (Eq. 3) over the five-second sliding window.
3. If predicted free memory covers the pod's reservation, schedule it
   there anyway; else repeat the admission checks on the next node in
   the sorted list.

PP additionally performs the *consolidation* behind the energy savings
of Fig. 11a: batch placement visits the fullest **active** device
first, drained devices are put into deep sleep (p_state 12), and a
sleeping device is woken only when nothing active can take a pod — or
when every active device is too compute-loaded to host a
latency-critical query without stretching it past its SLO.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedulers.base import (
    Action,
    Bind,
    PassState,
    SchedulingContext,
    Sleep,
    Wake,
)
from repro.core.schedulers.cbp import CBPScheduler
from repro.core.schedulers.vectorized import ArrayPassState
from repro.forecast.arima import Ar1Cache
from repro.forecast.autocorr import autocorrelation
from repro.kube.pod import Pod
from repro.workloads.base import QoSClass

__all__ = ["PeakPredictionScheduler"]


class PeakPredictionScheduler(CBPScheduler):
    """CBP + peak-phase forecasting + consolidation ("CBP+PP")."""

    name = "peak-prediction"
    requires_sharing = True

    def __init__(
        self,
        percentile: float = 80.0,
        correlation_threshold: float = 0.5,
        forecast_steps: int = 1,
        min_active_gpus: int = 1,
        forecast_safety: float = 1.2,
        **kwargs,
    ) -> None:
        super().__init__(percentile=percentile, correlation_threshold=correlation_threshold, **kwargs)
        self.forecast_steps = forecast_steps
        self.min_active_gpus = min_active_gpus
        #: Headroom multiplier over the raw point forecast: a point
        #: estimate has no error bars, and an OOM kill costs a relaunch
        #: (the exact failure mode PP exists to prevent).
        self.forecast_safety = forecast_safety
        self._forecast_hits = 0
        self._forecast_misses = 0
        #: Evidence from the last forecast evaluation (audit-only).
        self._last_forecast: dict | None = None
        #: Incremental AR(1) sufficient statistics per device series:
        #: the per-heartbeat Eq. 3 fit is O(points slid), not O(window).
        self._ar1 = Ar1Cache()

    def _candidate_gpus(
        self, pod: Pod, state: PassState, lc_ceiling: float | None = None
    ) -> list[str]:
        """Like CBP's order, but latency-critical pods only see devices
        under their SLO-derived SM ceiling: a busier device would
        stretch the query past its budget through co-location
        interference.  If that leaves nothing, the empty list sends the
        pod to the wake/relaxed path in :meth:`schedule`."""
        if pod.spec.qos_class is QoSClass.LATENCY_CRITICAL:
            ok, _hot = self._lc_candidate_split(pod, state, lc_ceiling)
            return ok
        return super()._candidate_gpus(pod, state)

    # -- pass ---------------------------------------------------------------

    def quantum_ok(self) -> bool:
        """Same contract as CBP's: stock PP with observability off runs
        the array-native pass over ``ClusterState``, which the
        vectorized quantum keeps exact."""
        return type(self) is PeakPredictionScheduler and self.vectorized

    def schedule(self, ctx: SchedulingContext) -> list[Action]:
        actions: list[Action] = []
        self._begin_pass()
        if type(self) is PeakPredictionScheduler and self._fast_pass_ok(ctx):
            return self._schedule_fast(ctx)
        # One snapshot, split into the awake devices Algorithm 1 walks
        # and the sleeping ones a wake may pick, each in its sorted order.
        views = ctx.knots.all_gpus_by_free_memory()
        active = [v for v in views if not v.asleep]
        sleeping = [v for v in views if v.asleep]
        state = PassState.from_views(active, ctx.residents_on)
        self._load_pressure(ctx, state)
        actions.extend(self._harvest(ctx, state))

        queue_depth = len(ctx.pending)
        unplaced = 0
        for pod in self._ordered_pending(ctx):
            alloc = self._provision(ctx, pod)
            expected_sm = self._expected_sm(ctx, pod)
            peak = self._peak_of(ctx, pod, alloc)
            attempts: list[dict] | None = [] if self._auditing else None
            placed = self._place_one(
                ctx, pod, alloc, peak, expected_sm, state, actions, attempts=attempts
            )
            if placed:
                continue
            view = self._wake_pick(sleeping, pod, alloc, peak)
            if view is not None:
                # Nothing active can take the pod safely: wake a device.
                sleeping.remove(view)
                actions.append(Wake(view.gpu_id))
                state.add_gpu(view)
                state.sm[view.gpu_id] = 0.0
                state.sm_peak[view.gpu_id] = 0.0
                state.overshoots[view.gpu_id] = []
                state.lc_count[view.gpu_id] = 0
                actions.append(Bind(pod.uid, view.gpu_id, alloc))
                if self._auditing:
                    self.obs.audit.record(
                        "wake", gpu_id=view.gpu_id, queue_depth=queue_depth,
                        evidence={"reason": "no-active-device-fits", "pod_uid": pod.uid},
                    )
                    evidence = self._bind_evidence(pod, alloc, peak, expected_sm, attempts)
                    evidence["admitted_via"] = "wake"
                    evidence["forecast"] = self._forecast_peek(
                        ctx, view.gpu_id, view.mem_capacity_mb, alloc
                    )
                    self._audit_bind(pod, view.gpu_id, alloc, queue_depth, evidence)
                self._book_pod(state, view.gpu_id, pod, alloc, expected_sm, peak)
            elif pod.spec.qos_class is QoSClass.LATENCY_CRITICAL:
                # No cool device and nothing to wake: place on the least
                # loaded device anyway — a stretched query beats an
                # indefinitely queued one.
                if not self._place_one(
                    ctx, pod, alloc, peak, expected_sm, state, actions,
                    relaxed=True, attempts=attempts,
                ):
                    unplaced += 1
                    if self._auditing:
                        self._audit_reject(
                            pod, queue_depth,
                            evidence={"alloc_mb": alloc, "peak_mb": peak, "attempts": attempts},
                        )
            else:
                unplaced += 1
                if self._auditing:
                    self._audit_reject(
                        pod, queue_depth,
                        evidence={"alloc_mb": alloc, "peak_mb": peak, "attempts": attempts},
                    )

        sleeps = self._consolidate(state, unplaced)
        if self._auditing:
            for action in sleeps:
                self.obs.audit.record(
                    "sleep", gpu_id=action.gpu_id, queue_depth=queue_depth,
                    evidence={"reason": "drained-device-consolidation"},
                )
        actions.extend(sleeps)
        return actions

    # -- array-native fast pass (see schedulers/vectorized.py) ---------------

    def _schedule_fast(self, ctx: SchedulingContext) -> list[Action]:
        """The PP pass over :class:`ArrayPassState`: same phase order,
        same candidate orders, same wake/relaxed/consolidation logic as
        the dict pass — scalar work only on the devices it actually
        visits."""
        actions: list[Action] = []
        cs = ctx.knots.state
        aps = ArrayPassState(cs, ~(cs.failed | cs.asleep | cs.cordoned))
        aps.load_residents(ctx, ctx.knots)
        actions.extend(self._harvest_fast(ctx, aps))

        # Sleeping (healthy) devices in the legacy visit order:
        # (-free, gpu_id).  Asleep devices host nothing, so their free
        # memory is stable for the whole pass.
        sleep_idx = np.nonzero(cs.asleep & ~cs.failed & ~cs.cordoned)[0]
        if len(sleep_idx) > 1:
            free = cs.mem_capacity_mb[sleep_idx] - cs.alloc_mb[sleep_idx]
            order = np.lexsort((cs.id_rank[sleep_idx], -free))
            sleep_idx = sleep_idx[order]
        sleeping = [int(i) for i in sleep_idx]

        gpu_ids = cs.gpu_ids
        unplaced = 0
        for pod in self._ordered_pending(ctx):
            alloc = self._provision(ctx, pod)
            expected_sm = self._expected_sm(ctx, pod)
            peak = self._peak_of(ctx, pod, alloc)
            is_lc = pod.spec.qos_class is QoSClass.LATENCY_CRITICAL
            if self._place_one_fast(ctx, pod, aps, alloc, peak, expected_sm, actions, is_lc, relaxed=False):
                continue
            wake_i = next((j for j in sleeping if alloc <= aps.caps[j]), None)
            if wake_i is not None:
                sleeping.remove(wake_i)
                gpu_id = gpu_ids[wake_i]
                actions.append(Wake(gpu_id))
                aps.wake(wake_i)
                actions.append(Bind(pod.uid, gpu_id, alloc))
                aps.book(
                    wake_i, gpu_id, pod.spec.image, is_lc,
                    alloc, expected_sm, peak, self._peak_sm_of(pod),
                )
            elif is_lc:
                if not self._place_one_fast(
                    ctx, pod, aps, alloc, peak, expected_sm, actions, is_lc, relaxed=True
                ):
                    unplaced += 1
            else:
                unplaced += 1

        if not unplaced:
            n_active = aps.n_included()
            n_sleeps = 0
            for i in aps.empty_included():
                if n_active - n_sleeps <= self.min_active_gpus:
                    break
                actions.append(Sleep(gpu_ids[i]))
                n_sleeps += 1
        return actions

    def _place_one_fast(
        self,
        ctx: SchedulingContext,
        pod: Pod,
        aps: ArrayPassState,
        alloc: float,
        peak: float,
        expected_sm: float,
        actions: list[Action],
        is_lc: bool,
        relaxed: bool,
    ) -> bool:
        """:meth:`_place_one` on the array state.  Non-relaxed LC pods
        only see devices under their SLO ceiling (PP's candidate
        override); the relaxed retry falls back to CBP's full order with
        the default ceiling."""
        fits = aps.fits_mask(
            alloc, peak, expected_sm, not is_lc,
            self.max_pods_per_gpu, self.usage_headroom, self.batch_sm_ceiling,
        )
        if is_lc:
            ceiling = self.lc_sm_ceiling if relaxed else self._lc_ceiling(ctx, pod)
            hot_allowed = relaxed
        else:
            ceiling = 0.0
            hot_allowed = False
        aps.begin_pod()
        hot = False
        gpu_ids = aps.cs.gpu_ids
        while True:
            if is_lc:
                i = aps.pick_lc(fits, ceiling, hot)
                if i < 0 and hot_allowed and not hot:
                    hot = True
                    continue
            else:
                i = aps.pick_batch(fits)
            if i < 0:
                return False
            gpu_id = gpu_ids[i]
            if self._admit(ctx, pod, gpu_id, alloc, aps):
                ok = True
            else:
                ok = self._forecast_admit(ctx, gpu_id, alloc, float(aps.caps[i]))
            if ok:
                actions.append(Bind(pod.uid, gpu_id, alloc))
                aps.book(
                    i, gpu_id, pod.spec.image, is_lc,
                    alloc, expected_sm, peak, self._peak_sm_of(pod),
                )
                return True
            aps.reject(i)

    def _wake_pick(self, sleeping: list, pod: Pod, alloc: float, peak: float):
        """First sleeping device adequate for the pod, or None.

        Adequacy here is reservation fit; the heterogeneity-aware
        subclass tightens this to peak fit so a harvested reservation
        never lures a large pod onto a small device.
        """
        for view in sleeping:
            if alloc <= view.mem_capacity_mb:
                return view
        return None

    def _place_one(
        self,
        ctx: SchedulingContext,
        pod: Pod,
        alloc: float,
        peak: float,
        expected_sm: float,
        state: PassState,
        actions: list[Action],
        relaxed: bool = False,
        attempts: list[dict] | None = None,
    ) -> bool:
        """Algorithm 1's SCHEDULE procedure over the sorted node list."""
        auditing = self._auditing and attempts is not None
        if relaxed:
            candidates = CBPScheduler._candidate_gpus(self, pod, state)
        else:
            candidates = self._candidate_gpus(pod, state, self._lc_ceiling(ctx, pod))
        for gpu_id in candidates:
            if not self._fits(state, gpu_id, alloc, peak, pod, expected_sm):
                if auditing:
                    attempts.append(self._attempt(state, gpu_id, "no-fit"))
                continue
            self._last_forecast = None
            if self._admit(ctx, pod, gpu_id, alloc, state):
                ok = True
                via = "correlation-gate"
            else:
                ok = self._forecast_admit(ctx, gpu_id, alloc, state.caps[gpu_id])
                via = "forecast"
            if ok:
                actions.append(Bind(pod.uid, gpu_id, alloc))
                if auditing:
                    attempts.append(self._attempt(state, gpu_id, "bound"))
                    evidence = self._bind_evidence(pod, alloc, peak, expected_sm, attempts)
                    evidence["admitted_via"] = via
                    if relaxed:
                        evidence["relaxed"] = True
                    # Every PP placement records the forecast it saw —
                    # the ARIMA one that admitted it, or a peek at what
                    # the forecaster would have said for the device.
                    evidence["forecast"] = (
                        self._last_forecast
                        if self._last_forecast is not None
                        else self._forecast_peek(ctx, gpu_id, state.caps[gpu_id], alloc)
                    )
                    self._audit_bind(pod, gpu_id, alloc, len(ctx.pending), evidence)
                self._book_pod(state, gpu_id, pod, alloc, expected_sm, peak)
                return True
            if auditing:
                entry = self._attempt(state, gpu_id, "forecast-reject")
                if self._last_forecast is not None:
                    entry["forecast"] = self._last_forecast
                attempts.append(entry)
        return False

    def _forecast_util(self, gpu_id: str, window) -> float:
        """Eq. 3 forecast of a device's memory utilization, clipped to [0, 1].

        Fitting goes through the incremental :class:`Ar1Cache`: per
        heartbeat the device's sliding window gains one point and loses
        at most a few, so the steady-state fit updates rolling
        sufficient statistics instead of re-reducing the whole window
        (with the exact batch fit as the cache-miss fallback).
        """
        model = self._ar1.fit(gpu_id, window.times, window.values)
        pred = model.forecast(float(window.values[-1]), self.forecast_steps)
        np.clip(pred, 0.0, 1.0, out=pred)
        return float(pred[-1])

    def _forecast_admit(self, ctx: SchedulingContext, gpu_id: str, alloc: float, cap_mb: float) -> bool:
        """The ARIMA branch: admit if predicted free memory covers ``alloc``."""
        window = ctx.knots.memory_window(gpu_id, ctx.now)
        if len(window) < 3:
            if self._auditing:
                self._last_forecast = {"reason": "short-window", "admitted": False}
            return False
        values = np.asarray(window.values)
        if autocorrelation(values, lag=1) <= 0.0:
            if self._auditing:
                self._last_forecast = {"reason": "no-trend", "admitted": False}
            return False          # trend not strong enough to predict
        pred_util = self._forecast_util(gpu_id, window)
        pred_free_mb = (1.0 - float(pred_util)) * cap_mb
        admitted = pred_free_mb >= alloc * self.forecast_safety
        if self._auditing:
            self._last_forecast = {
                "predicted_peak_util": round(float(pred_util), 4),
                "predicted_free_mb": round(pred_free_mb, 1),
                "required_mb": round(alloc * self.forecast_safety, 1),
                "safety": self.forecast_safety,
                "window_points": int(len(values)),
                "admitted": admitted,
            }
        if admitted:
            self._forecast_hits += 1
            return True
        self._forecast_misses += 1
        return False

    def _forecast_peek(
        self, ctx: SchedulingContext, gpu_id: str, cap_mb: float, alloc: float
    ) -> dict:
        """Audit-only forecast snapshot for a device (no counters touched).

        Used when a placement was admitted without the ARIMA branch, so
        the audit record still carries the predicted peak the device was
        heading toward at decision time.
        """
        window = ctx.knots.memory_window(gpu_id, ctx.now)
        if len(window) < 3:
            return {"reason": "short-window"}
        values = np.asarray(window.values)
        pred_util = self._forecast_util(gpu_id, window)
        return {
            "predicted_peak_util": round(float(pred_util), 4),
            "predicted_free_mb": round((1.0 - float(pred_util)) * cap_mb, 1),
            "required_mb": round(alloc * self.forecast_safety, 1),
            "safety": self.forecast_safety,
            "window_points": int(len(values)),
        }

    # -- consolidation / power management ------------------------------------

    def _consolidate(self, state: PassState, unplaced: int) -> list[Action]:
        """Sleep drained devices beyond the minimum active set.

        Only devices with no residents and no bind issued this pass are
        candidates; the paper keeps low-load mixes on a minimal number
        of active GPUs with the rest in minimum-power idle.
        """
        if unplaced:
            return []            # demand still unplaced — keep capacity up
        empty = sorted(gid for gid, c in state.count.items() if c == 0)
        n_active = len(state.count)
        sleeps: list[Action] = []
        for gid in empty:
            if n_active - len(sleeps) <= self.min_active_gpus:
                break
            sleeps.append(Sleep(gid))
        return sleeps

    # -- introspection --------------------------------------------------------

    @property
    def forecast_stats(self) -> tuple[int, int]:
        """(admits via forecast, rejects via forecast) this run."""
        return self._forecast_hits, self._forecast_misses
