"""Heterogeneity-aware Peak Prediction (extension).

The Kube-Knots design figure (Fig. 5) pictures a heterogeneous cluster
— P100s next to M40s, V100s and K80s — but the evaluation runs on
uniform P100s, leaving device heterogeneity as the obvious extension.
This scheduler adds capacity-aware placement on top of PP:

* **Best-capacity-fit for batch.**  A 2 GB job parked on a 32 GB V100
  strands premium capacity that an 11 GB job will later need; among the
  devices PP would accept, prefer the one whose *capacity* is smallest
  while still leaving the pod's peak-footprint headroom.  This keeps
  the big devices free for the big pods.
* **Peak-aware spill protection.**  A pod whose observed peak footprint
  simply cannot fit a small device is never routed to it, even when its
  harvested (80th-percentile) reservation would — avoiding guaranteed
  future capacity violations on the small models.

Both ride on PP's array pass as three hooks: a per-pod restriction of
the fit mask (spill protection, first try only — a latency-critical
query's relaxed retry keeps PP's unrestricted order), capacity as the
leading key of the batch pick, and the capacity a sleeping device
needs before it is woken.  Everything else — harvesting, the
correlation gate, ARIMA forecasting, consolidation and deep sleep — is
inherited unchanged from
:class:`~repro.core.schedulers.peak_prediction.PeakPredictionScheduler`.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedulers.peak_prediction import PeakPredictionScheduler
from repro.core.schedulers.vectorized import ArrayPassState
from repro.kube.pod import Pod

__all__ = ["HeteroAwarePeakPrediction"]


class HeteroAwarePeakPrediction(PeakPredictionScheduler):
    """PP + device-capacity awareness for mixed-model clusters."""

    name = "hetero-pp"
    requires_sharing = True

    def __init__(self, peak_headroom: float = 1.05, **kwargs) -> None:
        super().__init__(**kwargs)
        #: A device must fit ``peak_headroom x`` the pod's peak memory
        #: (alone) to be considered at all — the spill-protection rule.
        self.peak_headroom = peak_headroom

    def _fit_restriction(self, pod: Pod, aps: ArrayPassState) -> np.ndarray:
        """Spill protection: only devices that could hold the pod's peak."""
        return aps.caps >= self.peak_headroom * pod.spec.trace.peak_mem_mb()

    def _pick_batch(self, aps: ArrayPassState, fits: np.ndarray) -> int:
        """Best-capacity-fit: the smallest capacity first, PP's
        consolidation order among devices of the same model."""
        return aps.pick_batch(fits, aps.caps)

    def _wake_need(self, pod: Pod, alloc: float) -> float:
        """Only wake a device whose capacity fits the pod's *peak*."""
        return max(alloc, self.peak_headroom * pod.spec.trace.peak_mem_mb())
