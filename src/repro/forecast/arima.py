"""First-order ARIMA forecasting (paper Eq. 3).

The PP scheduler forecasts each device's utilization one step ahead
with a non-seasonal ARIMA whose AR(1) form is a moving-window linear
regression: ``Y_pred = mu + phi * Y_{t-1}``.  The coefficients are
re-fit on every heartbeat over the sliding window (five seconds in the
paper) by least squares on the lag-1 pairs.

Richer models (Theil–Sen, SGD, MLP — :mod:`repro.forecast.regressors`)
are implemented for the Fig. 10b accuracy comparison; the paper found
they do not beat AR(1) on such short windows, and our reproduction of
that figure shows the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Arima1", "fit_ar1", "fit_ar1_at_lag", "forecast_series", "Ar1Cache"]


@dataclass(frozen=True)
class Arima1:
    """A fitted AR(1) model: ``Y_pred = mu + phi * Y_prev``."""

    mu: float
    phi: float
    n_obs: int

    def predict(self, y_prev: float) -> float:
        return self.mu + self.phi * y_prev

    def forecast(self, y_last: float, steps: int = 1) -> np.ndarray:
        """Iterated multi-step forecast from the last observation."""
        if steps < 1:
            raise ValueError("steps must be >= 1")
        out = np.empty(steps)
        y = y_last
        for i in range(steps):
            y = self.predict(y)
            out[i] = y
        return out


def fit_ar1(window: np.ndarray) -> Arima1:
    """Least-squares fit of Eq. 3 over a sliding window.

    Degenerate windows degrade gracefully: with fewer than 3 points or a
    constant series the fit becomes a persistence forecast
    (``phi = 0, mu = last/mean value``), which is the right behaviour
    for a scheduler that must always produce *some* estimate.
    """
    y = np.asarray(window, dtype=float)
    n = len(y)
    if n == 0:
        return Arima1(mu=0.0, phi=0.0, n_obs=0)
    if n < 3 or np.all(y == y[0]):
        return Arima1(mu=float(y.mean()), phi=0.0, n_obs=n)
    x_prev, x_next = y[:-1], y[1:]
    var = x_prev.var()
    if var <= 1e-12:
        return Arima1(mu=float(x_next.mean()), phi=0.0, n_obs=n)
    phi = float(np.cov(x_prev, x_next, bias=True)[0, 1] / var)
    # Clamp to the stationary region; an explosive fit on a 5 s window is
    # noise and would forecast unbounded utilization.
    phi = float(np.clip(phi, -1.0, 1.0))
    mu = float(x_next.mean() - phi * x_prev.mean())
    return Arima1(mu=mu, phi=phi, n_obs=n)


def fit_ar1_at_lag(window: np.ndarray, lag: int) -> Arima1:
    """Direct lag-``k`` regression: ``Y_{t+k} = mu + phi * Y_t``.

    The forecasting form of Eq. 3 for a horizon of ``k`` samples: a
    moving-window linear regression between observations ``k`` apart.
    Statistically far better behaved than iterating a one-step AR(1)
    ``k`` times (any noise-induced bias in phi is raised to the k-th
    power under iteration; here it enters once).
    """
    y = np.asarray(window, dtype=float)
    n = len(y)
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    if n < lag + 3:
        return fit_ar1(y)        # not enough pairs: one-step fallback
    x_prev, x_next = y[:-lag], y[lag:]
    var = x_prev.var()
    if var <= 1e-12:
        return Arima1(mu=float(x_next.mean()), phi=0.0, n_obs=n)
    phi = float(np.cov(x_prev, x_next, bias=True)[0, 1] / var)
    phi = float(np.clip(phi, -1.0, 1.0))
    mu = float(x_next.mean() - phi * x_prev.mean())
    return Arima1(mu=mu, phi=phi, n_obs=n)


# Largest ratio of the window's second moment about the shift to the
# lag variance that the rolling sums may carry.  Cancellation in
# ``E[d**2] - mean**2`` costs about log10 of this ratio in digits, and
# ``refresh_every`` (<= 1024) slides of drift add at most ~2e-13 of
# relative error per unit ratio, so at 64 phi stays within ~3e-11 of the
# batch fit; windows past it are handed to :func:`fit_ar1`.
_MAX_CANCELLATION = 64.0


def fit_ar1_from_stats(
    n: int, s1: float, s2: float, c: float, first: float, last: float,
    shift: float = 0.0,
) -> Arima1 | None:
    """Eq. 3 fit from sufficient statistics of a window ``y`` of length ``n``.

    The statistics are taken about ``shift``, with ``d = y - shift``:
    ``s1 = sum(d)``, ``s2 = sum(d**2)``, ``c = sum(d[1:] * d[:-1])``,
    ``first = d[0]``, ``last = d[-1]``.  The lag-1 pairs' moments all
    derive from these: ``sum(d[:-1]) = s1 - last``,
    ``sum(d[:-1]**2) = s2 - last**2``, ``sum(d[1:]) = s1 - first``.

    Degenerate handling mirrors :func:`fit_ar1`: fewer than 3 points or
    a (near-)constant lag series produce a persistence forecast.
    Returns None when the lag variance is too small beside ``s2`` for
    the sums to resolve it (see ``_MAX_CANCELLATION``); otherwise the
    result agrees with the batch fit to well within 1e-9 on
    utilization-scale data (the equivalence the property tests assert).
    """
    if n == 0:
        return Arima1(mu=0.0, phi=0.0, n_obs=0)
    if n < 3:
        return Arima1(mu=shift + s1 / n, phi=0.0, n_obs=n)
    m = n - 1
    mean_prev = (s1 - last) / m
    mean_next = (s1 - first) / m
    var = (s2 - last * last) / m - mean_prev * mean_prev
    if s2 > _MAX_CANCELLATION * m * var:
        return None
    if var <= 1e-12:
        return Arima1(mu=shift + mean_next, phi=0.0, n_obs=n)
    cov = c / m - mean_prev * mean_next
    phi = float(np.clip(cov / var, -1.0, 1.0))
    mu = (shift + mean_next) - phi * (shift + mean_prev)
    return Arima1(mu=mu, phi=phi, n_obs=n)


class _Ar1State:
    """Rolling sufficient statistics of one device's sliding window.

    The sums are kept about ``shift`` (the window mean at the last
    rebuild) rather than about zero: utilization windows sit far from
    zero with a small spread, and raw sums would lose that spread to
    cancellation.
    """

    __slots__ = ("times", "values", "shift", "s1", "s2", "c", "updates", "model")

    def __init__(self, times: np.ndarray, values: np.ndarray) -> None:
        self.rebuild(times, values)

    def rebuild(self, times: np.ndarray, values: np.ndarray) -> None:
        """Batch (re)computation — the cache-miss path.

        Re-centres the sums on the window mean; a window that even
        fresh sums cannot resolve is fitted by :func:`fit_ar1`.
        """
        n = len(values)
        shift = float(values.mean()) if n else 0.0
        d = values - shift
        self.times = times
        self.values = values
        self.shift = shift
        self.s1 = float(d.sum())
        self.s2 = float(d @ d)
        self.c = float(d[1:] @ d[:-1]) if n > 1 else 0.0
        self.updates = 0
        model = self._fit(values, self.s1, self.s2, self.c)
        self.model = fit_ar1(values) if model is None else model

    def _fit(self, values: np.ndarray, s1: float, s2: float, c: float) -> Arima1 | None:
        n = len(values)
        shift = self.shift
        return fit_ar1_from_stats(
            n, s1, s2, c,
            float(values[0]) - shift if n else 0.0,
            float(values[-1]) - shift if n else 0.0,
            shift,
        )

    def matches(self, times: np.ndarray) -> bool:
        """Is this state's window exactly ``times``?"""
        mine = self.times
        return (
            len(mine) == len(times)
            and len(mine) > 0
            and mine[0] == times[0]
            and mine[-1] == times[-1]
        )

    def slide(self, times: np.ndarray, values: np.ndarray) -> bool:
        """O(evicted + appended) update to a forward-slid window.

        Returns False, leaving the state untouched, when the new window
        is not a forward slide sharing at least half its points with the
        old one, or when the slid sums cannot resolve it; the caller
        then falls back to :meth:`rebuild`.  Eviction removes the old
        prefix's contribution — including its lag-1 pairs and the bridge
        pair — and appending adds the new suffix's.
        """
        old_t, old_v = self.times, self.values
        n_old, n_new = len(old_t), len(times)
        if n_old == 0 or n_new == 0:
            return False
        if times[0] < old_t[0] or times[-1] < old_t[-1]:
            return False          # window moved backwards: not a slide
        evict = int(np.searchsorted(old_t, times[0], side="left"))
        keep = n_old - evict
        appended = n_new - keep
        # The shared span must line up point-for-point (duplicate
        # timestamps can break the correspondence — rebuild instead).
        if (
            appended < 0
            or keep < 1
            or keep < (n_new >> 1)
            or times[keep - 1] != old_t[-1]
        ):
            return False
        shift = self.shift
        s1, s2, c = self.s1, self.s2, self.c
        if evict:
            gone = old_v[: evict + 1] - shift
            head = gone[:evict]
            s1 -= float(head.sum())
            s2 -= float(head @ head)
            # Pairs (i-1, i) for i = 1..evict vanish with the prefix.
            c -= float(gone[1:] @ head)
        if appended:
            new = values[keep - 1 :] - shift
            tail = new[1:]
            s1 += float(tail.sum())
            s2 += float(tail @ tail)
            c += float(tail @ new[:-1])
        model = self._fit(values, s1, s2, c)
        if model is None:
            return False
        self.times = times
        self.values = values
        self.s1, self.s2, self.c = s1, s2, c
        self.updates += 1
        self.model = model
        return True


class Ar1Cache:
    """Per-series incremental AR(1) fitter for sliding-window forecasts.

    PP re-fits Eq. 3 on every device's five-second memory window every
    heartbeat; between consecutive heartbeats that window slides by one
    or two points.  This cache keeps rolling sufficient statistics
    (sums, squared sums, lag-1 cross products with eviction) per series
    key, making the steady-state fit O(points slid) instead of
    O(window), with the exact batch computation as the fallback on any
    cache miss.  ``refresh_every`` bounds floating-point drift by
    forcing a batch rebuild after that many incremental updates.
    """

    def __init__(self, refresh_every: int = 1024) -> None:
        if refresh_every < 1:
            raise ValueError("refresh_every must be >= 1")
        self.refresh_every = refresh_every
        self._states: dict[str, _Ar1State] = {}
        self.hits = 0             # served from unchanged-window cache
        self.slides = 0           # incremental O(1) updates
        self.rebuilds = 0         # batch fallbacks

    def fit(self, key: str, times: np.ndarray, values: np.ndarray) -> Arima1:
        """AR(1) model over ``(times, values)``, reusing per-key state.

        ``times`` must be the window's (monotonic) timestamps — they
        identify which points entered and left since the previous fit.
        """
        state = self._states.get(key)
        if state is not None and state.matches(times):
            self.hits += 1
            return state.model
        if (
            state is not None
            and state.updates < self.refresh_every
            and state.slide(times, values)
        ):
            self.slides += 1
            return state.model
        if state is None:
            self._states[key] = _Ar1State(times, values)
        else:
            state.rebuild(times, values)
        self.rebuilds += 1
        return self._states[key].model


def forecast_series(window: np.ndarray, steps: int = 1, clip: tuple[float, float] | None = None) -> np.ndarray:
    """Fit AR(1) on ``window`` and forecast ``steps`` ahead.

    ``clip`` bounds the forecasts (e.g. ``(0, 1)`` for utilizations,
    ``(0, capacity)`` for memory).
    """
    y = np.asarray(window, dtype=float)
    model = fit_ar1(y)
    last = float(y[-1]) if len(y) else 0.0
    pred = model.forecast(last, steps)
    if clip is not None:
        np.clip(pred, clip[0], clip[1], out=pred)
    return pred
