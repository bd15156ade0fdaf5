"""Sliding-window resampling and forecast-accuracy evaluation.

The harness behind Fig. 10b: take a fine-grained ground-truth
utilization series, resample it at a given *heartbeat* interval (the
rate at which Knots logs device telemetry), slide a fixed
five-second window along the resampled series, and score predictions
against the truth.  Two evaluation modes:

* :func:`evaluate_forecaster` — fixed-horizon *level* forecasts,
  scored by mean absolute error relative to the mean utilization;
* :func:`evaluate_peak_predictor` — the Fig. 10b task proper: predict
  the next second's *peak* utilization, scored as the fraction of
  predictions within tolerance.  Coarse heartbeats alias peaks away;
  oversampled windows drown the peak estimate in read noise — which is
  why accuracy rises toward an interior optimum and falls on both
  sides, as the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.forecast.regressors import Forecaster

__all__ = ["SlidingWindow", "resample", "AccuracyReport", "evaluate_forecaster", "evaluate_peak_predictor"]


class SlidingWindow:
    """Bounded FIFO window over a stream of floats (NumPy-backed).

    Mirrors the TSDB ring's zero-copy design: before wraparound
    :meth:`values` is a read-only view of the buffer, and afterwards the
    ordered assembly is cached per version (one rebuild per push, not
    one per read)."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._buf = np.empty(capacity)
        self._capacity = capacity
        self._count = 0
        self._head = 0
        self._version = 0
        self._cache: tuple[int, np.ndarray] | None = None

    def push(self, value: float) -> None:
        self._buf[self._head] = value
        self._head = (self._head + 1) % self._capacity
        self._count = min(self._count + 1, self._capacity)
        self._version += 1

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count == self._capacity

    def values(self) -> np.ndarray:
        """Window contents, oldest first (read-only, cached per push)."""
        if self._cache is not None and self._cache[0] == self._version:
            return self._cache[1]
        if self._count < self._capacity:
            out = self._buf[: self._count]
        elif self._head == 0:
            out = self._buf[:]
        else:
            out = np.concatenate([self._buf[self._head:], self._buf[: self._head]])
        out.flags.writeable = False
        self._cache = (self._version, out)
        return out


def resample(times_ms: np.ndarray, values: np.ndarray, interval_ms: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample a series at a fixed cadence using last-observation-carried-forward.

    Mirrors what the TSDB actually holds when Knots polls NVML every
    ``interval_ms``: the instantaneous value at each poll tick.
    """
    if interval_ms <= 0:
        raise ValueError("interval must be positive")
    t0, t1 = float(times_ms[0]), float(times_ms[-1])
    ticks = np.arange(t0, t1 + 1e-9, interval_ms)
    idx = np.searchsorted(times_ms, ticks, side="right") - 1
    idx = np.clip(idx, 0, len(values) - 1)
    return ticks, values[idx]


@dataclass(frozen=True)
class AccuracyReport:
    """Result of one forecaster evaluation at one heartbeat interval."""

    forecaster: str
    heartbeat_ms: float
    n_predictions: int
    mae: float
    rmse: float
    accuracy_pct: float


def evaluate_forecaster(
    times_ms: np.ndarray,
    values: np.ndarray,
    heartbeat_ms: float,
    forecaster: Forecaster,
    window_ms: float = 5_000.0,
    horizon_ms: float | None = None,
    max_windows: int = 200,
    noise_floor: float = 0.0,
    rng: np.random.Generator | None = None,
) -> AccuracyReport:
    """Score fixed-horizon forecasts of ``forecaster`` on a series.

    Parameters
    ----------
    times_ms, values:
        Fine-grained ground truth (e.g. 0.25 ms cadence utilization).
    heartbeat_ms:
        Aggregator polling interval; the series is resampled to this.
    window_ms:
        Sliding-window span (the paper uses five seconds).
    horizon_ms:
        Wall-clock forecast horizon (PP forecasts one second ahead —
        Eq. 3).  ``None`` means one heartbeat step.  At coarse
        heartbeats one step already covers the horizon; at fine
        heartbeats the forecast spans many steps, which is where the
        window's information content matters.
    max_windows:
        Evaluate at most this many window positions, spaced evenly —
        keeps the expensive comparators (Theil–Sen, MLP) tractable.
    noise_floor:
        Std-dev of measurement noise added to *sampled* points.  Models
        NVML read jitter: the device's utilization counters integrate
        over a much longer period than a sub-ms poll, so oversampling
        returns increasingly noisy values — which is what makes
        accuracy drop past the 1 ms optimum in Fig. 10b.

    Accuracy is ``100 * (1 - MAE / mean(signal))``, clipped to [0, 100]:
    mean absolute error relative to the average utilization level —
    i.e. the relative error a capacity decision based on the forecast
    would suffer.
    """
    times_ms = np.asarray(times_ms, dtype=float)
    values = np.asarray(values, dtype=float)
    ticks, sampled = resample(times_ms, values, heartbeat_ms)
    if noise_floor > 0.0:
        rng = rng or np.random.default_rng(1234)
        sampled = sampled + rng.normal(0.0, noise_floor, size=sampled.shape)
    win_pts = max(int(round(window_ms / heartbeat_ms)), 2)
    steps = 1 if horizon_ms is None else max(int(round(horizon_ms / heartbeat_ms)), 1)
    n = len(sampled)
    if n <= win_pts + steps:
        return AccuracyReport(forecaster.name, heartbeat_ms, 0, float("nan"), float("nan"), 0.0)

    positions = np.unique(
        np.linspace(win_pts, n - 1 - steps, min(max_windows, n - win_pts - steps)).astype(int)
    )
    preds = np.empty(len(positions))
    actual = np.empty(len(positions))
    for k, i in enumerate(positions):
        window = sampled[i - win_pts : i]
        preds[k] = forecaster.predict_ahead(window, steps)
        # Score against the *true* signal at the target time, not the
        # noisy sample — the scheduler cares about real utilization.
        t_target = ticks[i - 1] + steps * heartbeat_ms
        j = min(int(np.searchsorted(times_ms, t_target, side="right")) - 1, len(values) - 1)
        actual[k] = values[max(j, 0)]

    err = preds - actual
    mae = float(np.abs(err).mean())
    rmse = float(np.sqrt((err**2).mean()))
    scale = float(np.abs(values).mean())
    if scale <= 0:
        accuracy = 100.0 if mae < 1e-9 else 0.0
    else:
        accuracy = float(np.clip(100.0 * (1.0 - mae / scale), 0.0, 100.0))
    return AccuracyReport(forecaster.name, heartbeat_ms, len(positions), mae, rmse, accuracy)


def evaluate_peak_predictor(
    times_ms: np.ndarray,
    values: np.ndarray,
    heartbeat_ms: float,
    forecaster: Forecaster,
    window_ms: float = 5_000.0,
    horizon_ms: float = 1_000.0,
    tolerance: float = 0.12,
    max_windows: int = 200,
    noise_floor: float = 0.0,
    rng: np.random.Generator | None = None,
) -> AccuracyReport:
    """Score *peak* predictions — the Fig. 10b task proper.

    PP's job is to predict the next peak resource consumption (Sec.
    VI-D: "we vary the frequency at which we query the GPUs to predict
    the peak resource usage").  The predictor estimates the maximum
    utilization over the next ``horizon_ms`` as

        forecasted level  +  (window max - window median)

    i.e. the model supplies the level trend and the window supplies the
    observed peak amplitude.  A prediction is a *hit* when it lands
    within ``tolerance`` of the true next-horizon maximum; accuracy is
    the hit percentage.

    This is where the heartbeat sweep bites from both sides:

    * coarse heartbeats *alias the peaks away* — a 5-point window has
      almost certainly never sampled a 50 ms surge, so the amplitude
      term is missing and peaks are underpredicted;
    * oversampling drowns the window max in read noise — the maximum of
      tens of thousands of noisy samples carries a positive bias of
      several sigma, so peaks are overpredicted.
    """
    times_ms = np.asarray(times_ms, dtype=float)
    values = np.asarray(values, dtype=float)
    ticks, sampled = resample(times_ms, values, heartbeat_ms)
    if noise_floor > 0.0:
        rng = rng or np.random.default_rng(1234)
        sampled = sampled + rng.normal(0.0, noise_floor, size=sampled.shape)
    win_pts = max(int(round(window_ms / heartbeat_ms)), 2)
    steps = max(int(round(horizon_ms / heartbeat_ms)), 1)
    n = len(sampled)
    if n <= win_pts + steps:
        return AccuracyReport(forecaster.name, heartbeat_ms, 0, float("nan"), float("nan"), 0.0)

    positions = np.unique(
        np.linspace(win_pts, n - 1 - steps, min(max_windows, n - win_pts - steps)).astype(int)
    )
    hits = 0
    errs = []
    for i in positions:
        window = sampled[i - win_pts : i]
        level_now = float(np.median(window))
        level_pred = forecaster.predict_ahead(window, max(steps // 2, 1))
        pred_peak = level_pred + (float(window.max()) - level_now)
        t0 = ticks[i - 1]
        j0 = int(np.searchsorted(times_ms, t0, side="right"))
        j1 = int(np.searchsorted(times_ms, t0 + horizon_ms, side="right"))
        actual = float(values[j0:j1].max()) if j1 > j0 else float(values[min(j0, len(values) - 1)])
        err = pred_peak - actual
        errs.append(err)
        hits += abs(err) <= tolerance
    errs = np.asarray(errs)
    return AccuracyReport(
        forecaster=forecaster.name,
        heartbeat_ms=heartbeat_ms,
        n_predictions=len(positions),
        mae=float(np.abs(errs).mean()),
        rmse=float(np.sqrt((errs**2).mean())),
        accuracy_pct=100.0 * hits / len(positions),
    )
