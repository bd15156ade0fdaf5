"""Online per-image resource profiles.

Kube-Knots needs *no a priori profiling* (Sec. I, contribution list):
instead, Knots observes containers as they run and accumulates a
profile per docker image — the "container resource usage profiles"
box in the design figure (Fig. 5).  CBP consults these profiles to

* resize new pods of a known image to the 80th-percentile footprint of
  what that image has actually used, and
* compute correlation between a candidate and the pods already resident
  on a device.

The first pod of an image has no profile; the schedulers then fall back
to the user's request, exactly as a cold production system would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.forecast.correlation import rank_with_ties
from repro.workloads.base import WorkloadTrace

__all__ = ["ImageProfile", "ProfileStore", "PROFILE_SERIES_POINTS"]

#: Length all correlation series are resampled to, so any two profiles
#: can be compared regardless of the underlying runtimes.
PROFILE_SERIES_POINTS = 64


def _resample_to(series: np.ndarray, n: int) -> np.ndarray:
    """Linear resample of a series to exactly ``n`` points."""
    series = np.asarray(series, dtype=float)
    if len(series) == 0:
        return np.zeros(n)
    if len(series) == 1:
        return np.full(n, series[0])
    x_old = np.linspace(0.0, 1.0, len(series))
    x_new = np.linspace(0.0, 1.0, n)
    return np.interp(x_new, x_old, series)


@dataclass
class ImageProfile:
    """Accumulated usage statistics for one image."""

    image: str
    observations: int = 0
    # Normalized-time series, running mean over observations.
    mem_series: np.ndarray = field(default_factory=lambda: np.zeros(PROFILE_SERIES_POINTS))
    sm_series: np.ndarray = field(default_factory=lambda: np.zeros(PROFILE_SERIES_POINTS))
    mean_runtime_ms: float = 0.0
    # Pooled percentile inputs.
    _mem_samples: list[np.ndarray] = field(default_factory=list)
    # Statistics cache keyed on `observations`, the profile's version:
    # update() is the only mutator of the fields the statistics read, and
    # every update bumps the version, so a cached value is never stale.
    _stats: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _stats_version: int = field(default=-1, init=False, repr=False, compare=False)

    def update(self, sampled: dict[str, np.ndarray], runtime_ms: float = 0.0) -> None:
        """Fold one completed run's sampled series into the profile."""
        mem = _resample_to(sampled["mem_mb"], PROFILE_SERIES_POINTS)
        sm = _resample_to(sampled["sm"], PROFILE_SERIES_POINTS)
        n = self.observations
        self.mem_series = (self.mem_series * n + mem) / (n + 1)
        self.sm_series = (self.sm_series * n + sm) / (n + 1)
        self.mean_runtime_ms = (self.mean_runtime_ms * n + runtime_ms) / (n + 1)
        self.observations = n + 1
        self._mem_samples.append(np.asarray(sampled["mem_mb"], dtype=float))
        if len(self._mem_samples) > 32:       # bound memory
            self._mem_samples.pop(0)

    def _stat(self, key, compute):
        """``compute()``, evaluated once per profile version.

        Schedulers read these statistics for every resident on every
        pass, while the profile only changes when a pod of the image
        completes.
        """
        if self._stats_version != self.observations:
            self._stats = {}
            self._stats_version = self.observations
        stats = self._stats
        if key in stats:
            return stats[key]
        value = stats[key] = compute()
        return value

    def _require_samples(self) -> None:
        if not self._mem_samples:
            raise ValueError(f"no observations for image {self.image!r}")

    def correlation_ranks(self) -> tuple[np.ndarray, bool]:
        """(average ranks of ``mem_series``, tie flag), ranked once.

        CBP's admission gate Spearman-correlates this profile against
        every resident of every candidate device; caching the ranks per
        profile version makes each comparison a dot product instead of
        a re-ranking.  The cached vector is read-only — it is shared by
        every consumer.
        """
        return self._stat("ranks", self._ranks)

    def _ranks(self) -> tuple[np.ndarray, bool]:
        ranks, ties = rank_with_ties(self.mem_series)
        ranks.flags.writeable = False
        return ranks, ties

    # -- the statistics CBP provisions with ---------------------------------

    def sm_p75(self) -> float:
        """75th percentile of the SM series: the image's expected compute
        load (compute phases are where co-location interference happens)."""
        return self._stat("sm_p75", lambda: float(np.percentile(self.sm_series, 75)))

    def sm_peak(self) -> float:
        """Peak of the SM series: the image's worst-case compute load."""
        return self._stat("sm_peak", lambda: float(self.sm_series.max()))

    def mem_percentile(self, q: float) -> float:
        self._require_samples()
        return self._stat(
            ("mem_percentile", q),
            lambda: float(np.percentile(np.concatenate(self._mem_samples), q)),
        )

    def peak_mem_mb(self) -> float:
        self._require_samples()
        return self._stat(
            "peak_mem_mb", lambda: float(max(s.max() for s in self._mem_samples))
        )

    def pressure_stats(self) -> tuple[float, float, float]:
        """``(sm_p75, sm_peak, peak_mem_mb)`` as one cached tuple: what a
        scheduling pass reads for every resident of the image."""
        return self._stat(
            "pressure", lambda: (self.sm_p75(), self.sm_peak(), self.peak_mem_mb())
        )

    def mean_mem_mb(self) -> float:
        self._require_samples()
        return float(np.concatenate(self._mem_samples).mean())


class ProfileStore:
    """All image profiles known to the head node."""

    def __init__(self) -> None:
        self._profiles: dict[str, ImageProfile] = {}

    def __contains__(self, image: str) -> bool:
        return image in self._profiles

    def get(self, image: str) -> ImageProfile | None:
        return self._profiles.get(image)

    def images(self) -> list[str]:
        return sorted(self._profiles)

    def record_trace(self, image: str, trace: WorkloadTrace, step_ms: float = 10.0) -> None:
        """Record a completed pod's observed usage (runtime feedback)."""
        profile = self._profiles.get(image)
        if profile is None:
            profile = self._profiles[image] = ImageProfile(image=image)
        profile.update(trace.sample_series(step_ms), runtime_ms=trace.total_ms)

    def provision_mb(self, image: str, requested_mb: float, percentile: float = 80.0) -> float:
        """The reservation CBP grants a new pod of ``image``.

        With history: the image's ``percentile``-th memory footprint
        (never above the request — harvesting only shrinks).  Without
        history: the request, untouched.
        """
        profile = self._profiles.get(image)
        if profile is None or profile.observations == 0:
            return requested_mb
        return min(profile.mem_percentile(percentile), requested_mb)

    def correlation_series(self, image: str) -> np.ndarray | None:
        """Normalized-time memory series for correlation checks, or None."""
        profile = self._profiles.get(image)
        if profile is None or profile.observations == 0:
            return None
        return profile.mem_series

    def correlation_ranks(self, image: str) -> tuple[np.ndarray, bool] | None:
        """Cached (ranks, tie flag) of ``image``'s correlation series.

        ``None`` under exactly the conditions :meth:`correlation_series`
        returns ``None`` — no profile or no observations yet.
        """
        profile = self._profiles.get(image)
        if profile is None or profile.observations == 0:
            return None
        return profile.correlation_ranks()

    def version(self, image: str) -> int:
        """Profile version (observation count; 0 if unknown image).

        Keys cross-pass memoization: a (candidate, resident) rho is
        valid as long as both profiles' versions are unchanged.
        """
        profile = self._profiles.get(image)
        return 0 if profile is None else profile.observations
