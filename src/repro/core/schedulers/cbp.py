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

Every pass — dark, observed, sanitized or served — runs over
:class:`ArrayPassState` (``core/schedulers/vectorized.py``), the
ClusterState columns, and writes the decision audit itself when the
log is on.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedulers.base import (
    Action,
    Bind,
    Resize,
    Scheduler,
    SchedulingContext,
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

    def _pass_state(self, ctx: SchedulingContext, excluded: np.ndarray) -> ArrayPassState:
        """The pass's accounting over every device not in ``excluded``.

        Under the sanitizer the pass also takes Algorithm 1's device
        list once, for the checks it runs on every placeable device
        (``mirror_consistency``, ``memory_conservation``).
        """
        if self.obs.sanitizer is not None:
            ctx.knots.all_gpus_by_free_memory()
        aps = ArrayPassState(ctx.knots.state, ~excluded)
        aps.load_residents(ctx, ctx.knots)
        return aps

    def schedule(self, ctx: SchedulingContext) -> list[Action]:
        self._begin_pass()
        cs = ctx.knots.state
        aps = self._pass_state(ctx, cs.failed | cs.cordoned)
        actions: list[Action] = list(self._harvest(ctx, aps))
        actions.extend(self._place(ctx, aps))
        return actions

    # -- harvesting ----------------------------------------------------------

    def _harvest(self, ctx: SchedulingContext, aps: ArrayPassState) -> list[Resize]:
        """``Docker_Resize(Node_List, Pend_Apps)``: shrink over-provisioned
        batch residents to their image's 80th-percentile footprint and
        credit the freed reservation to their device."""
        resizes: list[Resize] = []
        if not ctx.pending:
            return resizes       # nothing waiting — leave containers alone
        index = aps.cs.index
        included = aps.included
        profiles = ctx.knots.profiles
        for gpu_id, residents in ctx.residents.items():
            i = index.get(gpu_id)
            if i is None or not included[i]:
                continue          # device not placeable this pass
            for res in residents:
                if res.qos_class is QoSClass.LATENCY_CRITICAL:
                    continue
                target = profiles.provision_mb(res.image, res.alloc_mb, self.percentile)
                if target < res.alloc_mb - self.resize_margin_mb:
                    resizes.append(Resize(res.uid, gpu_id, target))
                    aps.free[i] += res.alloc_mb - target
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

    # -- placement -----------------------------------------------------------

    def _ordered_pending(self, ctx: SchedulingContext) -> list[Pod]:
        """Latency-critical first (FCFS, SLO-aware), then batch FFD."""
        lc, batch = self.split_by_qos(ctx.pending)
        return lc + self.ffd_order(batch)

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

    def _place(self, ctx: SchedulingContext, aps: ArrayPassState) -> list[Action]:
        """Bind each pending pod to the first device of its visit order
        that fits and passes the correlation gate.

        Batch pods bin-pack: devices hosting no live inference query
        first, then the fullest (least free memory), which harvests
        fragmentation into co-location instead of leaving slivers
        stranded on every node.  Latency-critical pods are SLO-aware
        *and* consolidation-friendly: among the devices whose *peak*
        co-runner SM stays under the query's interference budget (a
        query overlapping a co-runner's compute surge is exactly the
        scenario the budget must survive), the busiest first —
        co-location with batch is the paper's whole point; devices over
        the budget come last, coolest first.  A pod no device admits
        stays pending (CBP's queueing cost for positively correlated
        arrivals).
        """
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
            trail = self._trail(aps, fits)
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
                    if trail is not None:
                        self._audit_reject(
                            pod, len(ctx.pending),
                            evidence={"alloc_mb": alloc, "peak_mb": peak, **trail},
                        )
                    break
                gpu_id = gpu_ids[i]
                if self._admit(ctx, pod, gpu_id, alloc, aps):
                    actions.append(Bind(pod.uid, gpu_id, alloc))
                    if trail is not None:
                        trail["attempts"].append(self._attempt(aps, i, "bound"))
                        self._audit_bind(
                            pod, gpu_id, alloc, len(ctx.pending),
                            evidence=self._bind_evidence(pod, alloc, peak, expected_sm, trail),
                        )
                    aps.book(
                        i, gpu_id, pod.spec.image, is_lc,
                        alloc, expected_sm, peak, self._peak_sm_of(pod),
                    )
                    break
                if trail is not None:
                    trail["attempts"].append(self._attempt(aps, i, "correlated"))
                aps.reject(i)
        return actions

    # -- audit evidence ------------------------------------------------------

    def _trail(self, aps: ArrayPassState, fits: np.ndarray) -> dict | None:
        """A pod's audit trail, or ``None`` while the audit log is off.

        ``attempts`` gets one line per device the pass offers to the
        admission gate, in visit order, as it offers them; ``no_fit``
        counts the placeable devices the fit mask ruled out.  Listing
        those one by one would cost O(devices) per pod.
        """
        if not self._auditing:
            return None
        return {"attempts": [], "no_fit": aps.n_included() - int(np.count_nonzero(fits))}

    def _attempt(self, aps: ArrayPassState, i: int, outcome: str) -> dict:
        """One offered-device line of the audit trail."""
        entry = {
            "gpu_id": aps.cs.gpu_ids[i],
            "outcome": outcome,
            "free_mb": round(float(aps.free[i]), 1),
            "sm": round(float(aps.sm[i]), 3),
        }
        if outcome == "correlated" and self._last_correlations is not None:
            entry["correlations"] = self._last_correlations
        return entry

    def _bind_evidence(
        self, pod: Pod, alloc: float, peak: float, expected_sm: float, trail: dict
    ) -> dict:
        """Everything the CBP decision used, audit-ready."""
        return {
            "request_mb": pod.spec.requested_mem_mb,
            "peak_mb": peak,
            "expected_sm": round(expected_sm, 3),
            "percentile": self.percentile,
            "correlations": self._last_correlations,
            **trail,
        }

    def _peak_sm_of(self, pod: Pod) -> float:
        """Worst-case SM demand of a pod (from its trace)."""
        return float(pod.spec.trace.peak_sm())

    def _peak_of(self, ctx: SchedulingContext, pod: Pod, alloc: float) -> float:
        """Best estimate of the pod's peak memory: profile, else request."""
        profile = ctx.knots.profiles.get(pod.spec.image)
        if profile is not None and profile.observations:
            return profile.peak_mem_mb()
        return max(pod.spec.requested_mem_mb, alloc)

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
        self, ctx: SchedulingContext, pod: Pod, gpu_id: str, alloc: float, aps: ArrayPassState
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
        resident_images += aps.planned_images.get(gpu_id, [])
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
