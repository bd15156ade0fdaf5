"""The CBP/PP scheduling pass state, as columns over ClusterState.

:class:`ArrayPassState` holds one pass's accounting — unreserved
memory, resident count, expected and peak SM demand, latency-critical
count and the top-2 peak overshoots of every device — as column
vectors over the :class:`~repro.cluster.state.ClusterState` index, so

* pass setup is four O(n) vector ops plus a sparse walk of the
  *occupied* devices (``ctx.residents``), and
* candidate selection per pod is a vectorized fit mask plus a
  lexicographic arg-min — O(n) flat, where sorting Algorithm 1's device
  list per pod would be O(n log n).

The arg-min picks the device a full sort of the list by the same key
would visit first: tie-breaks on gpu_id use ``ClusterState.id_rank``
(the precomputed lexicographic rank of the id strings).  So the pass
offers a pod to the admission gate on exactly the devices, and in the
order, of Algorithm 1's walk, skipping those that fail the fit mask.

This is the only CBP/PP pass: dark, observed, sanitized and served
runs all take it, and the decision audit lists the devices it offers.
``tests/dict_pass.py`` keeps the per-device dict pass it replaced as
the test oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedulers.base import SchedulingContext, resident_pressure

__all__ = ["ArrayPassState"]


class ArrayPassState:
    """Per-pass accounting as column vectors over the ClusterState index."""

    __slots__ = (
        "cs",
        "included",
        "free",
        "caps",
        "count",
        "sm",
        "sm_peak",
        "lc_count",
        "o1",
        "o2",
        "planned_images",
        "_tried",
    )

    def __init__(self, cs, included: np.ndarray) -> None:
        n = len(cs)
        self.cs = cs
        self.included = included
        #: Same float op the per-object path performs in ``free_mem_mb``
        #: (capacity minus the summed reservations), elementwise.
        self.free = cs.mem_capacity_mb - cs.alloc_mb
        self.caps = cs.mem_capacity_mb
        self.count = np.zeros(n, dtype=np.int64)
        self.sm = np.zeros(n)
        self.sm_peak = np.zeros(n)
        self.lc_count = np.zeros(n, dtype=np.int64)
        #: Top-2 per-device peak overshoots, ``o1 >= o2``.
        self.o1 = np.zeros(n)
        self.o2 = np.zeros(n)
        #: gpu_id -> images bound this pass (the correlation gate reads it).
        self.planned_images: dict[str, list[str]] = {}
        #: Scratch mask: candidates already rejected by the admission
        #: gate for the pod currently being placed.
        self._tried = np.zeros(n, dtype=bool)

    # -- setup ---------------------------------------------------------------

    def load_residents(self, ctx: SchedulingContext, knots) -> None:
        """Replace raw (capped) SM telemetry with profile-based demand
        (see :func:`resident_pressure`) and collect each device's
        resident count, latency-critical count and peak-memory
        overshoots.  Devices without residents keep the zero defaults.
        """
        index = self.cs.index
        included = self.included
        profiles = knots.profiles
        for gpu_id, residents in ctx.residents.items():
            i = index.get(gpu_id)
            if i is None or not included[i]:
                continue
            self.count[i] = len(residents)
            sm, sm_peak, overshoots, lc = resident_pressure(profiles, residents)
            for c in overshoots:
                self.push_overshoot(i, c)
            self.sm[i] = sm
            self.sm_peak[i] = sm_peak
            self.lc_count[i] = lc

    def push_overshoot(self, i: int, c: float) -> None:
        if c > self.o1[i]:
            self.o2[i] = self.o1[i]
            self.o1[i] = c
        elif c > self.o2[i]:
            self.o2[i] = c

    # -- the fit mask --------------------------------------------------------

    def fits_mask(
        self,
        alloc: float,
        peak: float,
        expected_sm: float,
        is_batch: bool,
        max_pods_per_gpu: int,
        usage_headroom: float,
        batch_sm_ceiling: float,
    ) -> np.ndarray:
        """Devices that can take the pod, elementwise: reservation fit,
        two-peak physical safety and, for batch pods, SM-saturation fit.

        The physical guard provisions for the common case but insists
        the device could absorb the *two largest* peak overshoots firing
        at once: co-located peaks are individually rare (a few percent
        duty cycle), so simultaneous triple peaks are negligible, while
        pairs do happen over a long run (Sec. IV-C's failure-probability
        argument made concrete).  With the top-2 overshoots ``o1 >= o2``
        of a device and the pod's own ``c``,
        ``max(o1, c) + min(max(c, o2), o1)`` is the sum of the two
        largest of the three.

        A batch pod never lands next to a live inference query: the
        query's SLO budget was computed against the co-runner load at
        *its* placement time, and queries are short-lived, so the batch
        pod only waits a pass or two.
        """
        free = self.free
        m = self.included & (self.count < max_pods_per_gpu) & (alloc <= free)
        c = max(peak - alloc, 0.0)
        allocated_after = self.caps - (free - alloc)
        worst_two = np.maximum(self.o1, c) + np.minimum(np.maximum(self.o2, c), self.o1)
        m &= ~(allocated_after + worst_two > usage_headroom * self.caps)
        if is_batch:
            m &= (self.lc_count == 0) & (self.sm + expected_sm <= batch_sm_ceiling)
        return m

    # -- candidate selection (lexicographic arg-min over a mask) --------------

    def _argbest(self, m: np.ndarray, *keys: np.ndarray) -> int:
        """Index minimizing ``(*keys, id_rank)`` over mask ``m``; -1 if empty."""
        if not m.any():
            return -1
        for key in keys:
            m = m & (key == key[m].min())
        idx = np.nonzero(m)[0]
        if len(idx) == 1:
            return int(idx[0])
        return int(idx[np.argmin(self.cs.id_rank[idx])])

    def begin_pod(self) -> None:
        self._tried[:] = False

    def reject(self, i: int) -> None:
        self._tried[i] = True

    def pick_batch(self, fits: np.ndarray, *lead: np.ndarray) -> int:
        """First device of the batch order ``(*lead, lc_count, free,
        gpu_id)`` that fits and was not rejected for this pod yet."""
        return self._argbest(fits & ~self._tried, *lead, self.lc_count, self.free)

    def pick_lc(self, fits: np.ndarray, ceiling: float, hot: bool) -> int:
        """First device of the LC order that fits: devices under the SM
        budget ordered ``(-sm_peak, -free, gpu_id)``; with ``hot`` the
        over-budget remainder ordered ``(sm_peak, -free, gpu_id)``."""
        m = fits & ~self._tried
        under = self.sm_peak < ceiling
        if hot:
            return self._argbest(m & ~under, self.sm_peak, -self.free)
        return self._argbest(m & under, -self.sm_peak, -self.free)

    # -- booking -------------------------------------------------------------

    def book(
        self,
        i: int,
        gpu_id: str,
        image: str,
        is_lc: bool,
        alloc: float,
        expected_sm: float,
        peak: float,
        peak_sm: float,
    ) -> None:
        self.free[i] -= alloc
        self.sm[i] += expected_sm
        self.sm_peak[i] += max(peak_sm, expected_sm)
        self.count[i] += 1
        self.push_overshoot(i, max(peak - alloc, 0.0))
        self.planned_images.setdefault(gpu_id, []).append(image)
        if is_lc:
            self.lc_count[i] += 1

    # -- PP hooks --------------------------------------------------------------

    def wake(self, i: int) -> None:
        """Bring a sleeping device into the pass: it hosts nothing, so
        its pressure entries are zero."""
        self.included[i] = True
        self.free[i] = self.caps[i] - self.cs.alloc_mb[i]
        self.count[i] = 0
        self.sm[i] = 0.0
        self.sm_peak[i] = 0.0
        self.lc_count[i] = 0
        self.o1[i] = 0.0
        self.o2[i] = 0.0

    def empty_included(self) -> np.ndarray:
        """Included devices with no residents and no bind this pass, in
        gpu_id order — PP's consolidation candidates."""
        idx = np.nonzero(self.included & (self.count == 0))[0]
        if len(idx) <= 1:
            return idx
        return idx[np.argsort(self.cs.id_rank[idx])]

    def n_included(self) -> int:
        return int(np.count_nonzero(self.included))
