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

The pass is CBP's array pass over awake devices plus the wake, relaxed
retry and consolidation steps, in every mode.  Three hooks
(:meth:`~PeakPredictionScheduler._fit_restriction`,
:meth:`~PeakPredictionScheduler._pick_batch`,
:meth:`~PeakPredictionScheduler._wake_need`) let a subclass narrow the
devices a pod may take, reorder batch picks and raise the bar for a
wake; the heterogeneity-aware PP uses all three.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedulers.base import (
    Action,
    Bind,
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

    # -- pass ---------------------------------------------------------------

    def schedule(self, ctx: SchedulingContext) -> list[Action]:
        self._begin_pass()
        cs = ctx.knots.state
        aps = self._pass_state(ctx, cs.failed | cs.asleep | cs.cordoned)
        actions: list[Action] = list(self._harvest(ctx, aps))

        # Sleeping (healthy) devices in Algorithm 1's order: (-free,
        # gpu_id).  Asleep devices host nothing, so their free memory is
        # stable for the whole pass.
        sleep_idx = np.nonzero(cs.asleep & ~cs.failed & ~cs.cordoned)[0]
        if len(sleep_idx) > 1:
            free = cs.mem_capacity_mb[sleep_idx] - cs.alloc_mb[sleep_idx]
            order = np.lexsort((cs.id_rank[sleep_idx], -free))
            sleep_idx = sleep_idx[order]
        sleeping = [int(i) for i in sleep_idx]

        gpu_ids = cs.gpu_ids
        queue_depth = len(ctx.pending)
        unplaced = 0
        for pod in self._ordered_pending(ctx):
            alloc = self._provision(ctx, pod)
            expected_sm = self._expected_sm(ctx, pod)
            peak = self._peak_of(ctx, pod, alloc)
            is_lc = pod.spec.qos_class is QoSClass.LATENCY_CRITICAL
            fits = aps.fits_mask(
                alloc, peak, expected_sm, not is_lc,
                self.max_pods_per_gpu, self.usage_headroom, self.batch_sm_ceiling,
            )
            trail = self._trail(aps, fits)
            if self._place_one(
                ctx, pod, aps, fits, alloc, peak, expected_sm, actions, relaxed=False, trail=trail
            ):
                continue
            need = self._wake_need(pod, alloc)
            wake_i = next((j for j in sleeping if need <= aps.caps[j]), None)
            if wake_i is not None:
                # Nothing active can take the pod safely: wake a device.
                sleeping.remove(wake_i)
                gpu_id = gpu_ids[wake_i]
                actions.append(Wake(gpu_id))
                aps.wake(wake_i)
                actions.append(Bind(pod.uid, gpu_id, alloc))
                if trail is not None:
                    self.obs.audit.record(
                        "wake", gpu_id=gpu_id, queue_depth=queue_depth,
                        evidence={"reason": "no-active-device-fits", "pod_uid": pod.uid},
                    )
                    evidence = self._bind_evidence(pod, alloc, peak, expected_sm, trail)
                    evidence["admitted_via"] = "wake"
                    evidence["forecast"] = self._forecast_peek(
                        ctx, gpu_id, float(aps.caps[wake_i]), alloc
                    )
                    self._audit_bind(pod, gpu_id, alloc, queue_depth, evidence)
                aps.book(
                    wake_i, gpu_id, pod.spec.image, is_lc,
                    alloc, expected_sm, peak, self._peak_sm_of(pod),
                )
                continue
            # No cool device and nothing to wake: a query goes to the
            # least loaded device anyway — a stretched query beats an
            # indefinitely queued one.
            if is_lc and self._place_one(
                ctx, pod, aps, fits, alloc, peak, expected_sm, actions, relaxed=True, trail=trail
            ):
                continue
            unplaced += 1
            if trail is not None:
                self._audit_reject(
                    pod, queue_depth,
                    evidence={"alloc_mb": alloc, "peak_mb": peak, **trail},
                )

        # Consolidation: sleep drained devices beyond the minimum active
        # set, unless demand is still unplaced.  Only devices with no
        # residents and no bind issued this pass are candidates; the
        # paper keeps low-load mixes on a minimal number of active GPUs
        # with the rest in minimum-power idle.
        if not unplaced:
            n_active = aps.n_included()
            n_sleeps = 0
            for i in aps.empty_included():
                if n_active - n_sleeps <= self.min_active_gpus:
                    break
                actions.append(Sleep(gpu_ids[i]))
                n_sleeps += 1
                if self._auditing:
                    self.obs.audit.record(
                        "sleep", gpu_id=gpu_ids[i], queue_depth=queue_depth,
                        evidence={"reason": "drained-device-consolidation"},
                    )
        return actions

    def _place_one(
        self,
        ctx: SchedulingContext,
        pod: Pod,
        aps: ArrayPassState,
        fits: np.ndarray,
        alloc: float,
        peak: float,
        expected_sm: float,
        actions: list[Action],
        *,
        relaxed: bool,
        trail: dict | None,
    ) -> bool:
        """Algorithm 1's SCHEDULE procedure: offer the pod to the devices
        that fit, in its visit order, until the correlation gate or the
        ARIMA forecast admits it.

        On the first try a latency-critical pod only sees devices under
        its SLO-derived SM ceiling: a busier device would stretch the
        query past its budget through co-location interference.  The
        relaxed retry falls back to CBP's full order with the default
        ceiling, and skips :meth:`_fit_restriction`.
        """
        is_lc = pod.spec.qos_class is QoSClass.LATENCY_CRITICAL
        if is_lc:
            ceiling = self.lc_sm_ceiling if relaxed else self._lc_ceiling(ctx, pod)
        else:
            ceiling = 0.0
        if not relaxed:
            restriction = self._fit_restriction(pod, aps)
            if restriction is not None:
                fits = fits & restriction
        aps.begin_pod()
        hot = False
        gpu_ids = aps.cs.gpu_ids
        while True:
            if is_lc:
                i = aps.pick_lc(fits, ceiling, hot)
                if i < 0 and relaxed and not hot:
                    hot = True
                    continue
            else:
                i = self._pick_batch(aps, fits)
            if i < 0:
                return False
            gpu_id = gpu_ids[i]
            cap = float(aps.caps[i])
            self._last_forecast = None
            if self._admit(ctx, pod, gpu_id, alloc, aps):
                via = "correlation-gate"
            elif self._forecast_admit(ctx, gpu_id, alloc, cap):
                via = "forecast"
            else:
                if trail is not None:
                    entry = self._attempt(aps, i, "forecast-reject")
                    if self._last_forecast is not None:
                        entry["forecast"] = self._last_forecast
                    trail["attempts"].append(entry)
                aps.reject(i)
                continue
            actions.append(Bind(pod.uid, gpu_id, alloc))
            if trail is not None:
                trail["attempts"].append(self._attempt(aps, i, "bound"))
                evidence = self._bind_evidence(pod, alloc, peak, expected_sm, trail)
                evidence["admitted_via"] = via
                if relaxed:
                    evidence["relaxed"] = True
                # Every PP placement records the forecast it saw — the
                # ARIMA one that admitted it, or a peek at what the
                # forecaster would have said for the device.
                evidence["forecast"] = (
                    self._last_forecast
                    if self._last_forecast is not None
                    else self._forecast_peek(ctx, gpu_id, cap, alloc)
                )
                self._audit_bind(pod, gpu_id, alloc, len(ctx.pending), evidence)
            aps.book(
                i, gpu_id, pod.spec.image, is_lc,
                alloc, expected_sm, peak, self._peak_sm_of(pod),
            )
            return True

    # -- hooks for subclasses ------------------------------------------------

    def _fit_restriction(self, pod: Pod, aps: ArrayPassState) -> np.ndarray | None:
        """Devices the pod may take on its first try, ANDed onto the fit
        mask; ``None`` leaves the mask as it is."""
        return None

    def _pick_batch(self, aps: ArrayPassState, fits: np.ndarray) -> int:
        """The next device a batch pod is offered to: PP's consolidation
        order, fewest live queries, then fullest."""
        return aps.pick_batch(fits)

    def _wake_need(self, pod: Pod, alloc: float) -> float:
        """Capacity a sleeping device needs to be woken for the pod: its
        reservation."""
        return alloc

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

    # -- introspection --------------------------------------------------------

    @property
    def forecast_stats(self) -> tuple[int, int]:
        """(admits via forecast, rejects via forecast) this run."""
        return self._forecast_hits, self._forecast_misses
