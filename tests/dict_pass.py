"""The per-device dict scheduling pass: the oracle for the array pass.

CBP and PP once ran Algorithm 1 twice over: a pass over dicts keyed by
gpu_id, which sorted every placeable device per pending pod, and the
array pass over :class:`~repro.core.schedulers.vectorized.ArrayPassState`.
The array pass is now the only one that ships.  This module keeps the
dict pass, without its decision-audit records, so tests can run both
on the same workload and require identical results:

* :class:`DictCBP`, :class:`DictPP` and :class:`DictHetero` subclass the
  shipped CBP, PP and heterogeneity-aware PP.  They inherit provisioning,
  the correlation gate and the ARIMA branch, and replace only the pass.
* Under a sanitizer the dict pass takes ``Knots.all_gpus_by_free_memory``
  as its device list, so its checks match the shipped pass's.
* Under an audit log the shipped PP pass peeks at the forecast of every
  device it binds to without the ARIMA branch.  A peek checks a window
  under the sanitizer and advances the AR(1) cache, so the oracle peeks
  at the same points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.schedulers import (
    Action,
    Bind,
    CBPScheduler,
    HeteroAwarePeakPrediction,
    PeakPredictionScheduler,
    Resize,
    SchedulingContext,
    Sleep,
    Wake,
)
from repro.core.schedulers.base import resident_pressure
from repro.kube.pod import Pod
from repro.workloads.base import QoSClass

__all__ = ["PassState", "DictCBP", "DictPP", "DictHetero", "DICT_SCHEDULERS"]


@dataclass
class PassState:
    """Per-pass accounting as dicts keyed by gpu_id."""

    free: dict[str, float]     # unreserved memory, MB
    caps: dict[str, float]     # capacity, MB
    sm: dict[str, float]       # expected SM demand (profile-based pressure)
    count: dict[str, int]      # resident pod count
    overshoots: dict[str, list[float]] = field(default_factory=dict)
    sm_peak: dict[str, float] = field(default_factory=dict)
    lc_count: dict[str, int] = field(default_factory=dict)
    planned_images: dict[str, list[str]] = field(default_factory=dict)

    @classmethod
    def from_views(cls, views, residents_on) -> "PassState":
        return cls(
            free={v.gpu_id: v.free_alloc_mb for v in views},
            caps={v.gpu_id: v.mem_capacity_mb for v in views},
            sm={v.gpu_id: v.sm_util for v in views},
            count={v.gpu_id: len(residents_on(v.gpu_id)) for v in views},
        )

    def add_gpu(self, view) -> None:
        self.free[view.gpu_id] = view.free_alloc_mb
        self.caps[view.gpu_id] = view.mem_capacity_mb
        self.sm[view.gpu_id] = view.sm_util
        self.count[view.gpu_id] = 0

    def book(self, gpu_id: str, alloc_mb: float, expected_sm: float = 0.0, peak_sm: float = 0.0) -> None:
        self.free[gpu_id] -= alloc_mb
        self.sm[gpu_id] = self.sm.get(gpu_id, 0.0) + expected_sm
        self.sm_peak[gpu_id] = self.sm_peak.get(gpu_id, 0.0) + max(peak_sm, expected_sm)
        self.count[gpu_id] = self.count.get(gpu_id, 0) + 1


class DictCBPPass:
    """CBP's dict pass, mixed in ahead of a shipped CBP class."""

    def schedule(self, ctx: SchedulingContext) -> list[Action]:
        self._begin_pass()
        views = ctx.knots.all_gpus_by_free_memory()
        state = PassState.from_views(views, ctx.residents_on)
        self._load_pressure(ctx, state)
        actions: list[Action] = list(self._harvest(ctx, state))
        actions.extend(self._place(ctx, state))
        return actions

    def _load_pressure(self, ctx: SchedulingContext, state: PassState) -> None:
        profiles = ctx.knots.profiles
        for gpu_id in state.free:
            sm, sm_peak, overshoots, lc = resident_pressure(profiles, ctx.residents_on(gpu_id))
            state.sm[gpu_id] = sm
            state.sm_peak[gpu_id] = sm_peak
            state.overshoots[gpu_id] = overshoots
            state.lc_count[gpu_id] = lc

    def _harvest(self, ctx: SchedulingContext, state: PassState) -> list[Resize]:
        resizes: list[Resize] = []
        if not ctx.pending:
            return resizes
        for gpu_id, residents in ctx.residents.items():
            if gpu_id not in state.free:
                continue
            for res in residents:
                if res.qos_class is QoSClass.LATENCY_CRITICAL:
                    continue
                target = ctx.knots.profiles.provision_mb(res.image, res.alloc_mb, self.percentile)
                if target < res.alloc_mb - self.resize_margin_mb:
                    resizes.append(Resize(res.uid, gpu_id, target))
                    state.free[gpu_id] += res.alloc_mb - target
        return resizes

    def _candidate_gpus(
        self, pod: Pod, state: PassState, lc_ceiling: float | None = None
    ) -> list[str]:
        if pod.spec.qos_class is QoSClass.LATENCY_CRITICAL:
            ok, hot = self._lc_candidate_split(pod, state, lc_ceiling)
            return ok + hot
        return sorted(
            state.free, key=lambda gid: (state.lc_count.get(gid, 0), state.free[gid], gid)
        )

    def _lc_candidate_split(
        self, pod: Pod, state: PassState, lc_ceiling: float | None
    ) -> tuple[list[str], list[str]]:
        ceiling = self.lc_sm_ceiling if lc_ceiling is None else lc_ceiling
        ok = [g for g in state.free if state.sm_peak.get(g, 0.0) < ceiling]
        ok_set = set(ok)
        hot = [g for g in state.free if g not in ok_set]
        ok.sort(key=lambda gid: (-state.sm_peak.get(gid, 0.0), -state.free[gid], gid))
        hot.sort(key=lambda gid: (state.sm_peak.get(gid, 0.0), -state.free[gid], gid))
        return ok, hot

    def _place(self, ctx: SchedulingContext, state: PassState) -> list[Action]:
        actions: list[Action] = []
        for pod in self._ordered_pending(ctx):
            alloc = self._provision(ctx, pod)
            expected_sm = self._expected_sm(ctx, pod)
            peak = self._peak_of(ctx, pod, alloc)
            for gpu_id in self._candidate_gpus(pod, state, self._lc_ceiling(ctx, pod)):
                if not self._fits(state, gpu_id, alloc, peak, pod, expected_sm):
                    continue
                if not self._admit(ctx, pod, gpu_id, alloc, state):
                    continue
                actions.append(Bind(pod.uid, gpu_id, alloc))
                self._book_pod(state, gpu_id, pod, alloc, expected_sm, peak)
                break
        return actions

    def _book_pod(
        self, state: PassState, gpu_id: str, pod: Pod, alloc: float, expected_sm: float, peak: float
    ) -> None:
        state.book(gpu_id, alloc, expected_sm, peak_sm=self._peak_sm_of(pod))
        state.overshoots.setdefault(gpu_id, []).append(max(peak - alloc, 0.0))
        state.planned_images.setdefault(gpu_id, []).append(pod.spec.image)
        if pod.spec.qos_class is QoSClass.LATENCY_CRITICAL:
            state.lc_count[gpu_id] = state.lc_count.get(gpu_id, 0) + 1

    def _fits(
        self, state: PassState, gpu_id: str, alloc: float, peak: float, pod: Pod, expected_sm: float
    ) -> bool:
        if state.count.get(gpu_id, 0) >= self.max_pods_per_gpu:
            return False
        if alloc > state.free[gpu_id]:
            return False
        cap = state.caps[gpu_id]
        allocated_after = cap - (state.free[gpu_id] - alloc)
        overs = sorted(
            state.overshoots.get(gpu_id, []) + [max(peak - alloc, 0.0)], reverse=True
        )
        if allocated_after + sum(overs[:2]) > self.usage_headroom * cap:
            return False
        if pod.spec.qos_class is QoSClass.BATCH:
            if state.lc_count.get(gpu_id, 0) > 0:
                return False
            return state.sm.get(gpu_id, 0.0) + expected_sm <= self.batch_sm_ceiling
        return True


class DictPPPass(DictCBPPass):
    """PP's dict pass: consolidation order, wake, relaxed retry, sleep."""

    def schedule(self, ctx: SchedulingContext) -> list[Action]:
        self._begin_pass()
        views = ctx.knots.all_gpus_by_free_memory()
        active = [v for v in views if not v.asleep]
        sleeping = [v for v in views if v.asleep]
        state = PassState.from_views(active, ctx.residents_on)
        self._load_pressure(ctx, state)
        actions: list[Action] = list(self._harvest(ctx, state))
        unplaced = 0
        for pod in self._ordered_pending(ctx):
            alloc = self._provision(ctx, pod)
            expected_sm = self._expected_sm(ctx, pod)
            peak = self._peak_of(ctx, pod, alloc)
            if self._place_one(ctx, pod, alloc, peak, expected_sm, state, actions):
                continue
            view = self._wake_pick(sleeping, pod, alloc, peak)
            if view is not None:
                sleeping.remove(view)
                actions.append(Wake(view.gpu_id))
                state.add_gpu(view)
                state.sm[view.gpu_id] = 0.0
                state.sm_peak[view.gpu_id] = 0.0
                state.overshoots[view.gpu_id] = []
                state.lc_count[view.gpu_id] = 0
                actions.append(Bind(pod.uid, view.gpu_id, alloc))
                if self._auditing:
                    self._forecast_peek(ctx, view.gpu_id, view.mem_capacity_mb, alloc)
                self._book_pod(state, view.gpu_id, pod, alloc, expected_sm, peak)
            elif pod.spec.qos_class is QoSClass.LATENCY_CRITICAL:
                if not self._place_one(
                    ctx, pod, alloc, peak, expected_sm, state, actions, relaxed=True
                ):
                    unplaced += 1
            else:
                unplaced += 1
        actions.extend(self._consolidate(state, unplaced))
        return actions

    def _candidate_gpus(
        self, pod: Pod, state: PassState, lc_ceiling: float | None = None
    ) -> list[str]:
        if pod.spec.qos_class is QoSClass.LATENCY_CRITICAL:
            ok, _hot = self._lc_candidate_split(pod, state, lc_ceiling)
            return ok
        return DictCBPPass._candidate_gpus(self, pod, state)

    def _wake_pick(self, sleeping: list, pod: Pod, alloc: float, peak: float):
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
    ) -> bool:
        if relaxed:
            candidates = DictCBPPass._candidate_gpus(self, pod, state)
        else:
            candidates = self._candidate_gpus(pod, state, self._lc_ceiling(ctx, pod))
        for gpu_id in candidates:
            if not self._fits(state, gpu_id, alloc, peak, pod, expected_sm):
                continue
            self._last_forecast = None
            ok = self._admit(ctx, pod, gpu_id, alloc, state) or self._forecast_admit(
                ctx, gpu_id, alloc, state.caps[gpu_id]
            )
            if ok:
                actions.append(Bind(pod.uid, gpu_id, alloc))
                if self._auditing and self._last_forecast is None:
                    self._forecast_peek(ctx, gpu_id, state.caps[gpu_id], alloc)
                self._book_pod(state, gpu_id, pod, alloc, expected_sm, peak)
                return True
        return False

    def _consolidate(self, state: PassState, unplaced: int) -> list[Action]:
        if unplaced:
            return []
        empty = sorted(gid for gid, c in state.count.items() if c == 0)
        n_active = len(state.count)
        sleeps: list[Action] = []
        for gid in empty:
            if n_active - len(sleeps) <= self.min_active_gpus:
                break
            sleeps.append(Sleep(gid))
        return sleeps


class DictCBP(DictCBPPass, CBPScheduler):
    """CBP on the dict pass."""


class DictPP(DictPPPass, PeakPredictionScheduler):
    """PP on the dict pass."""


class DictHetero(DictPPPass, HeteroAwarePeakPrediction):
    """Heterogeneity-aware PP on the dict pass: spill protection and
    best-capacity-fit as a filter and stable re-sort of PP's order, and a
    wake that needs the pod's peak to fit."""

    def _wake_pick(self, sleeping: list, pod, alloc: float, peak: float):
        need = max(alloc, self.peak_headroom * pod.spec.trace.peak_mem_mb())
        for view in sleeping:
            if view.mem_capacity_mb >= need:
                return view
        return None

    def _candidate_gpus(
        self, pod: Pod, state: PassState, lc_ceiling: float | None = None
    ) -> list[str]:
        order = super()._candidate_gpus(pod, state, lc_ceiling)
        peak = pod.spec.trace.peak_mem_mb()
        order = [g for g in order if state.caps.get(g, 0.0) >= self.peak_headroom * peak]
        if pod.spec.qos_class is QoSClass.BATCH:
            order.sort(key=lambda g: state.caps.get(g, 0.0))
        return order


#: The shipped scheduler name each oracle stands in for.
DICT_SCHEDULERS = {
    "cbp": DictCBP,
    "peak-prediction": DictPP,
    "hetero-pp": DictHetero,
}
