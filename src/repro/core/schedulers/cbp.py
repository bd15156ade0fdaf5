"""CBP: Correlation Based Provisioning (paper Sec. IV-C).

Four mechanisms on top of Res-Ag's sharing substrate, all driven by
Knots data instead of static requests:

1. **Right-size provisioning** — a new pod of a known image is reserved
   its image's 80th-percentile memory footprint, not the user's
   worst-case request.  (80 was chosen because almost no container in
   the Alibaba trace exceeds 80 % of its provisioned memory, and more
   aggressive percentiles cause constant docker resizes — Sec. IV-C.)
2. **Harvesting** — resident batch pods that were admitted before their
   image had a profile are resized down to the 80th percentile, freeing
   reservation space for pending pods.  Latency-critical pods are never
   shrunk.
3. **Correlation-gated co-location** — a large pod may join a device
   only if its usage series is *not* positively correlated (Spearman
   rho below 0.5) with any resident pod: uncorrelated pods have a low
   probability of peaking together, so provisioning both at their
   average case is safe (the 1-(1-X)^2 argument of Sec. IV-C).
4. **Real-time capacity awareness** — admission also checks the
   device's *physically used* memory from the latest heartbeat, so a
   harvested (below-peak) reservation never lets total usage approach
   capacity.  This is the "considers the real-time GPU utilization to
   safely schedule and co-locate" requirement stated at the end of
   Sec. IV-B, and it is what keeps CBP essentially crash-free where
   Res-Ag OOMs.

CBP's known weakness (which motivates PP): when the arrival mix is
dominated by mutually correlated pods there are not enough negatively
correlated partners, the schedule order skews, and pending pods queue.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedulers.base import (
    Action,
    Bind,
    PassState,
    Resize,
    ResidentPod,
    Scheduler,
    SchedulingContext,
    resident_pressure,
)
from repro.core.schedulers.vectorized import ArrayPassState
from repro.forecast.correlation import spearman_from_ranks
from repro.kube.pod import Pod
from repro.workloads.base import QoSClass

__all__ = ["CBPScheduler"]


class CBPScheduler(Scheduler):
    """Correlation-based provisioning and placement."""

    name = "cbp"
    requires_sharing = True

    def __init__(
        self,
        percentile: float = 80.0,
        correlation_threshold: float = 0.5,
        resize_margin_mb: float = 64.0,
        max_pods_per_gpu: int = 8,
        corr_gate_min_mb: float = 1_300.0,
        usage_headroom: float = 0.95,
        batch_sm_ceiling: float = 1.15,
        lc_sm_ceiling: float = 0.25,
        interference_alpha: float = 0.7,
        vectorized: bool = True,
    ) -> None:
        self.percentile = percentile
        self.correlation_threshold = correlation_threshold
        #: Don't bother resizing for less than this (docker-resize churn).
        self.resize_margin_mb = resize_margin_mb
        self.max_pods_per_gpu = max_pods_per_gpu
        #: Pods smaller than this bypass the correlation gate: a
        #: footprint under ~8 % of the device cannot meaningfully
        #: contribute to a capacity violation, and gating tiny inference
        #: queries would only add queueing delay (their SLO budget).
        self.corr_gate_min_mb = corr_gate_min_mb
        #: Fraction of physical memory that (used + new alloc) may reach.
        self.usage_headroom = usage_headroom
        #: Stop stacking batch pods onto a device once its expected SM
        #: demand passes this: beyond saturation, added containers only
        #: dilate everyone's runtime (the GPU time-shares compute).
        self.batch_sm_ceiling = batch_sm_ceiling
        #: Fallback SM ceiling for latency-critical queries whose image
        #: has no runtime profile yet; profiled images get an
        #: SLO-derived per-query ceiling (see :meth:`_lc_ceiling`).
        self.lc_sm_ceiling = lc_sm_ceiling
        #: The interference coefficient assumed when inverting the
        #: co-location slowdown model (matches the device default).
        self.interference_alpha = interference_alpha
        #: Use the array-native pass over :class:`ClusterState` when no
        #: per-candidate observer is live (see :meth:`_fast_pass_ok`).
        #: Decisions are bit-identical either way; ``False`` pins the
        #: dict path (the A/B axis the equivalence tests exercise).
        self.vectorized = vectorized
        #: Evidence captured by the last :meth:`_admit` call — the
        #: per-resident-image Spearman ρ values the gate evaluated.
        #: Only populated while the decision audit log is enabled.
        self._last_correlations: dict[str, float] | None = None
        self._auditing = False
        #: Pass-scoped admission-rho memo: (candidate image, resident
        #: image, candidate profile version, resident profile version)
        #: -> rho (or None for an unprofiled resident).  Profiles only
        #: change between passes, so k residents cost k dict lookups
        #: after the first evaluation instead of k re-rankings.
        self._rho_memo: dict[tuple[str, str, int, int], float | None] = {}

    # -- pass ---------------------------------------------------------------

    def _begin_pass(self) -> None:
        """Reset pass-scoped state (audit flag, admission-rho memo)."""
        self._auditing = self.obs.audit.enabled
        self._rho_memo.clear()

    def _fast_pass_ok(self, ctx: SchedulingContext) -> bool:
        """Whether the array-native pass may replace the dict pass.

        Requires observability fully off — the audit trail records one
        attempt line per *enumerated* candidate, and the fast path
        deliberately never enumerates the devices it skips — plus a
        knots runtime that exposes the SoA :class:`ClusterState`.
        Subclasses that override candidate ordering (the heterogeneity-
        aware PP) are excluded by the exact-type checks at the call
        sites.
        """
        return (
            self.vectorized
            and not self._auditing
            and not self.obs.enabled
            and self.obs.sanitizer is None
            and getattr(ctx.knots, "state", None) is not None
        )

    def quantum_ok(self) -> bool:
        """The vectorized execution quantum is safe under stock CBP:
        with observability off it always takes the array-native pass,
        which reads telemetry through ``ClusterState`` (kept exact by
        the quantum), never from the GPU objects.
        Subclasses that override candidate ordering fall back to the
        dict pass, so the same exact-type gate applies."""
        return type(self) is CBPScheduler and self.vectorized

    def schedule(self, ctx: SchedulingContext) -> list[Action]:
        actions: list[Action] = []
        self._begin_pass()
        if type(self) is CBPScheduler and self._fast_pass_ok(ctx):
            cs = ctx.knots.state
            aps = ArrayPassState(cs, ~(cs.failed | cs.cordoned))
            aps.load_residents(ctx, ctx.knots)
            actions.extend(self._harvest_fast(ctx, aps))
            actions.extend(self._place_fast(ctx, aps))
            return actions
        views = ctx.knots.all_gpus_by_free_memory()
        state = PassState.from_views(views, ctx.residents_on)
        self._load_pressure(ctx, state)
        actions.extend(self._harvest(ctx, state))
        actions.extend(self._place(ctx, state))
        return actions

    def _load_pressure(self, ctx: SchedulingContext, state: PassState) -> None:
        """Replace raw (capped) SM telemetry with profile-based demand
        (see :func:`resident_pressure`) and collect each device's
        peak-memory overshoots for the two-peak capacity guard."""
        profiles = ctx.knots.profiles
        for gpu_id in state.free:
            sm, sm_peak, overshoots, lc = resident_pressure(profiles, ctx.residents_on(gpu_id))
            state.sm[gpu_id] = sm
            state.sm_peak[gpu_id] = sm_peak
            state.overshoots[gpu_id] = overshoots
            state.lc_count[gpu_id] = lc

    # -- harvesting ----------------------------------------------------------

    def _harvest(self, ctx: SchedulingContext, state: PassState) -> list[Resize]:
        """``Docker_Resize(Node_List, Pend_Apps)``: shrink over-provisioned
        batch residents to their image's 80th-percentile footprint."""
        resizes: list[Resize] = []
        if not ctx.pending:
            return resizes       # nothing waiting — leave containers alone
        for gpu_id, residents in ctx.residents.items():
            if gpu_id not in state.free:
                continue          # device not visible this pass (asleep)
            for res in residents:
                if res.qos_class is QoSClass.LATENCY_CRITICAL:
                    continue
                target = ctx.knots.profiles.provision_mb(res.image, res.alloc_mb, self.percentile)
                if target < res.alloc_mb - self.resize_margin_mb:
                    resizes.append(Resize(res.uid, gpu_id, target))
                    state.free[gpu_id] += res.alloc_mb - target
                    if self._auditing:
                        self.obs.audit.record(
                            "resize",
                            pod_uid=res.uid,
                            image=res.image,
                            qos=res.qos_class.value,
                            gpu_id=gpu_id,
                            alloc_mb=target,
                            queue_depth=len(ctx.pending),
                            evidence={
                                "old_alloc_mb": res.alloc_mb,
                                "harvested_mb": res.alloc_mb - target,
                                "percentile": self.percentile,
                            },
                        )
        return resizes

    # -- array-native fast pass (see schedulers/vectorized.py) ---------------

    def _harvest_fast(self, ctx: SchedulingContext, aps: ArrayPassState) -> list[Resize]:
        """:meth:`_harvest` over the array state: same residents walk,
        same resize predicate, free credited into the column vector."""
        resizes: list[Resize] = []
        if not ctx.pending:
            return resizes
        index = aps.cs.index
        included = aps.included
        profiles = ctx.knots.profiles
        for gpu_id, residents in ctx.residents.items():
            i = index.get(gpu_id)
            if i is None or not included[i]:
                continue
            for res in residents:
                if res.qos_class is QoSClass.LATENCY_CRITICAL:
                    continue
                target = profiles.provision_mb(res.image, res.alloc_mb, self.percentile)
                if target < res.alloc_mb - self.resize_margin_mb:
                    resizes.append(Resize(res.uid, gpu_id, target))
                    aps.free[i] += res.alloc_mb - target
        return resizes

    def _place_fast(self, ctx: SchedulingContext, aps: ArrayPassState) -> list[Action]:
        """:meth:`_place` with vectorized fit masks and arg-min candidate
        picks.  The admission gate stays scalar and is invoked on exactly
        the devices the dict path's candidate walk would reach — same
        order, same rho-memo evolution, same binds."""
        actions: list[Action] = []
        gpu_ids = aps.cs.gpu_ids
        for pod in self._ordered_pending(ctx):
            alloc = self._provision(ctx, pod)
            expected_sm = self._expected_sm(ctx, pod)
            peak = self._peak_of(ctx, pod, alloc)
            is_lc = pod.spec.qos_class is QoSClass.LATENCY_CRITICAL
            fits = aps.fits_mask(
                alloc, peak, expected_sm, not is_lc,
                self.max_pods_per_gpu, self.usage_headroom, self.batch_sm_ceiling,
            )
            ceiling = self._lc_ceiling(ctx, pod) if is_lc else 0.0
            aps.begin_pod()
            hot = False
            while True:
                if is_lc:
                    i = aps.pick_lc(fits, ceiling, hot)
                    if i < 0 and not hot:
                        hot = True
                        continue
                else:
                    i = aps.pick_batch(fits)
                if i < 0:
                    break
                gpu_id = gpu_ids[i]
                if self._admit(ctx, pod, gpu_id, alloc, aps):
                    actions.append(Bind(pod.uid, gpu_id, alloc))
                    aps.book(
                        i, gpu_id, pod.spec.image, is_lc,
                        alloc, expected_sm, peak, self._peak_sm_of(pod),
                    )
                    break
                aps.reject(i)
        return actions

    # -- placement -----------------------------------------------------------

    def _ordered_pending(self, ctx: SchedulingContext) -> list[Pod]:
        """Latency-critical first (FCFS, SLO-aware), then batch FFD."""
        lc, batch = self.split_by_qos(ctx.pending)
        return lc + self.ffd_order(batch)

    def _candidate_gpus(
        self, pod: Pod, state: PassState, lc_ceiling: float | None = None
    ) -> list[str]:
        """Device visit order for one pod.

        Batch pods bin-pack: fullest device (least free memory) first,
        which is what harvests fragmentation into co-location instead of
        leaving slivers stranded on every node.  Latency-critical pods
        are SLO-aware *and* consolidation-friendly: among the devices
        whose compute pressure stays under the query's interference
        budget, pick the busiest (co-locate with batch — the paper's
        whole point); devices over the budget come last, coolest first.
        """
        if pod.spec.qos_class is QoSClass.LATENCY_CRITICAL:
            ok, hot = self._lc_candidate_split(pod, state, lc_ceiling)
            return ok + hot
        # Batch: prefer devices not hosting live inference queries, then
        # pack tight (least free memory first).
        return sorted(
            state.free, key=lambda gid: (state.lc_count.get(gid, 0), state.free[gid], gid)
        )

    def _lc_candidate_split(
        self, pod: Pod, state: PassState, lc_ceiling: float | None
    ) -> tuple[list[str], list[str]]:
        """(devices under the query's SM budget, busiest first; the rest).

        The budget is checked against each device's *peak* co-runner SM:
        a query overlapping a co-runner's compute surge is exactly the
        interference scenario the SLO budget must survive.
        """
        ceiling = self.lc_sm_ceiling if lc_ceiling is None else lc_ceiling
        ok = [g for g in state.free if state.sm_peak.get(g, 0.0) < ceiling]
        ok_set = set(ok)
        hot = [g for g in state.free if g not in ok_set]
        ok.sort(key=lambda gid: (-state.sm_peak.get(gid, 0.0), -state.free[gid], gid))
        hot.sort(key=lambda gid: (state.sm_peak.get(gid, 0.0), -state.free[gid], gid))
        return ok, hot

    def _lc_ceiling(self, ctx: SchedulingContext, pod: Pod) -> float:
        """SLO-derived co-location budget for a latency-critical query.

        The query tolerates interference stretch up to (roughly)
        ``threshold / runtime``; inverting the interference model gives
        the co-runner SM demand it can live next to.  The runtime comes
        from the image's observed profile (runtime feedback, not a
        priori knowledge); unknown images get the conservative default.
        """
        threshold = pod.spec.qos_threshold_ms
        profile = ctx.knots.profiles.get(pod.spec.image)
        if threshold is None or profile is None or not profile.observations:
            return self.lc_sm_ceiling
        runtime = max(profile.mean_runtime_ms, 1.0)
        allowed_stretch = 0.6 * threshold / runtime       # 40 % safety margin
        if allowed_stretch <= 1.0:
            return 0.1            # already at the edge: want a near-idle device
        ceiling = (allowed_stretch - 1.0) / self.interference_alpha
        return float(np.clip(ceiling, 0.1, 4.0))

    def _place(self, ctx: SchedulingContext, state: PassState) -> list[Action]:
        actions: list[Action] = []
        auditing = self._auditing
        queue_depth = len(ctx.pending)
        for pod in self._ordered_pending(ctx):
            alloc = self._provision(ctx, pod)
            expected_sm = self._expected_sm(ctx, pod)
            peak = self._peak_of(ctx, pod, alloc)
            attempts: list[dict] | None = [] if auditing else None
            placed = False
            for gpu_id in self._candidate_gpus(pod, state, self._lc_ceiling(ctx, pod)):
                if not self._fits(state, gpu_id, alloc, peak, pod, expected_sm):
                    if auditing:
                        attempts.append(self._attempt(state, gpu_id, "no-fit"))
                    continue
                if not self._admit(ctx, pod, gpu_id, alloc, state):
                    if auditing:
                        attempts.append(self._attempt(state, gpu_id, "correlated"))
                    continue
                actions.append(Bind(pod.uid, gpu_id, alloc))
                if auditing:
                    attempts.append(self._attempt(state, gpu_id, "bound"))
                    self._audit_bind(
                        pod, gpu_id, alloc, queue_depth,
                        evidence=self._bind_evidence(pod, alloc, peak, expected_sm, attempts),
                    )
                self._book_pod(state, gpu_id, pod, alloc, expected_sm, peak)
                placed = True
                break
            # No admissible device: the pod stays pending (CBP's queueing
            # cost for positively correlated arrivals).
            if not placed and auditing:
                self._audit_reject(
                    pod, queue_depth,
                    evidence={"alloc_mb": alloc, "peak_mb": peak, "attempts": attempts},
                )
        return actions

    # -- audit evidence ------------------------------------------------------

    def _attempt(self, state: PassState, gpu_id: str, outcome: str) -> dict:
        """One candidate-device score line for the audit trail."""
        entry = {
            "gpu_id": gpu_id,
            "outcome": outcome,
            "free_mb": round(state.free.get(gpu_id, 0.0), 1),
            "sm": round(state.sm.get(gpu_id, 0.0), 3),
        }
        if outcome == "correlated" and self._last_correlations is not None:
            entry["correlations"] = self._last_correlations
        return entry

    def _bind_evidence(
        self, pod: Pod, alloc: float, peak: float, expected_sm: float, attempts: list[dict]
    ) -> dict:
        """Everything the CBP decision used, audit-ready."""
        return {
            "request_mb": pod.spec.requested_mem_mb,
            "peak_mb": peak,
            "expected_sm": round(expected_sm, 3),
            "percentile": self.percentile,
            "correlations": self._last_correlations,
            "attempts": attempts,
        }

    def _book_pod(
        self,
        state: PassState,
        gpu_id: str,
        pod: Pod,
        alloc: float,
        expected_sm: float,
        peak: float,
    ) -> None:
        """Record a planned bind into the pass-local accounting."""
        state.book(gpu_id, alloc, expected_sm, peak_sm=self._peak_sm_of(pod))
        state.overshoots.setdefault(gpu_id, []).append(max(peak - alloc, 0.0))
        state.planned_images.setdefault(gpu_id, []).append(pod.spec.image)
        if pod.spec.qos_class is QoSClass.LATENCY_CRITICAL:
            state.lc_count[gpu_id] = state.lc_count.get(gpu_id, 0) + 1

    def _peak_sm_of(self, pod: Pod) -> float:
        """Worst-case SM demand of a pod (from its trace)."""
        return float(pod.spec.trace.peak_sm())

    def _peak_of(self, ctx: SchedulingContext, pod: Pod, alloc: float) -> float:
        """Best estimate of the pod's peak memory: profile, else request."""
        profile = ctx.knots.profiles.get(pod.spec.image)
        if profile is not None and profile.observations:
            return profile.peak_mem_mb()
        return max(pod.spec.requested_mem_mb, alloc)

    def _fits(
        self,
        state: PassState,
        gpu_id: str,
        alloc: float,
        peak: float,
        pod: Pod,
        expected_sm: float,
    ) -> bool:
        """Reservation fit + two-peak physical safety + SM-saturation fit.

        The physical guard provisions for the common case but insists the
        device could absorb the *two largest* peak overshoots firing at
        once: co-located peaks are individually rare (a few percent duty
        cycle), so simultaneous triple peaks are negligible, while pairs
        do happen over a long run (Sec. IV-C's failure-probability
        argument made concrete).
        """
        if state.count.get(gpu_id, 0) >= self.max_pods_per_gpu:
            return False
        if alloc > state.free[gpu_id]:
            return False
        cap = state.caps[gpu_id]
        allocated_after = cap - (state.free[gpu_id] - alloc)
        overs = sorted(
            state.overshoots.get(gpu_id, []) + [max(peak - alloc, 0.0)], reverse=True
        )
        worst_two = sum(overs[:2])
        if allocated_after + worst_two > self.usage_headroom * cap:
            return False
        if pod.spec.qos_class is QoSClass.BATCH:
            # Never drop a batch kernel next to a live inference query:
            # the query's SLO budget was computed against the co-runner
            # load at *its* placement time.  Queries are short-lived, so
            # the batch pod only waits a scheduling pass or two.
            if state.lc_count.get(gpu_id, 0) > 0:
                return False
            return state.sm.get(gpu_id, 0.0) + expected_sm <= self.batch_sm_ceiling
        return True

    def _expected_sm(self, ctx: SchedulingContext, pod: Pod) -> float:
        """The pod's expected compute load, booked into the pass-local SM
        view so several queries bound in one pass spread across devices."""
        profile = ctx.knots.profiles.get(pod.spec.image)
        if profile is not None and profile.observations:
            return profile.sm_p75()
        return pod.spec.trace.peak_sm() * 0.5

    def _provision(self, ctx: SchedulingContext, pod: Pod) -> float:
        """Reservation for a pending pod: p80 of its image if known."""
        return ctx.knots.profiles.provision_mb(
            pod.spec.image, pod.spec.requested_mem_mb, self.percentile
        )

    def _admit(
        self, ctx: SchedulingContext, pod: Pod, gpu_id: str, alloc: float, state: PassState
    ) -> bool:
        """``Can_Co-locate``: correlation gate against every resident."""
        # Gate on the pod's *peak* footprint, not its (possibly resized)
        # reservation: a harvested pod still surges to its peak, and it
        # is peaks colliding that causes capacity violations.
        profile = ctx.knots.profiles.get(pod.spec.image)
        peak = profile.peak_mem_mb() if profile is not None and profile.observations else alloc
        self._last_correlations = None
        if max(alloc, peak) < self.corr_gate_min_mb:
            return True
        candidate = ctx.knots.profiles.correlation_ranks(pod.spec.image)
        if candidate is None:
            # First pod of an image: no signal.  It carries its full
            # request as reservation, so co-location is already safe
            # against reservation arithmetic.
            return True
        resident_images = [res.image for res in ctx.residents_on(gpu_id)]
        resident_images += state.planned_images.get(gpu_id, [])
        # ρ per resident image, captured for the decision audit trail.
        correlations: dict[str, float] | None = {} if self._auditing else None
        for image in resident_images:
            rho = self._admission_rho(ctx, pod.spec.image, candidate, image)
            if rho is None:
                continue
            if correlations is not None:
                correlations[image] = round(float(rho), 4)
            if rho >= self.correlation_threshold:
                self._last_correlations = correlations
                return False
        self._last_correlations = correlations
        return True

    def _admission_rho(
        self,
        ctx: SchedulingContext,
        cand_image: str,
        candidate: tuple[np.ndarray, bool],
        res_image: str,
    ) -> float | None:
        """Memoized Spearman rho between two image profiles.

        ``None`` means the resident image has no profile yet (no
        correlation signal — the original gate skipped it).  Ranks come
        pre-computed from the profile store, so a memo miss is one dot
        product, and every further resident of the same image this pass
        is a dictionary lookup.
        """
        profiles = ctx.knots.profiles
        key = (
            cand_image,
            res_image,
            profiles.version(cand_image),
            profiles.version(res_image),
        )
        memo = self._rho_memo
        if key in memo:
            return memo[key]
        resident = profiles.correlation_ranks(res_image)
        if resident is None:
            memo[key] = None
            return None
        cand_ranks, cand_ties = candidate
        res_ranks, res_ties = resident
        rho = spearman_from_ranks(cand_ranks, res_ranks, cand_ties or res_ties)
        memo[key] = rho
        return rho
