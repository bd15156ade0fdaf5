"""Medians, quartiles and the compare verdict."""

from __future__ import annotations

import statistics

__all__ = ["summarize", "spread", "verdict"]


def summarize(values: list[float]) -> dict[str, float]:
    """``n``, ``median``, quartiles (as ``statistics.quantiles(n=4)``
    gives them), ``min`` and ``max``."""
    if not values:
        raise ValueError("no values to summarize")
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "n": len(values), "median": median, "q1": q1, "q3": q3,
        "min": min(values), "max": max(values),
    }


def spread(summary: dict[str, float]) -> float:
    """Interquartile distance as a share of the median."""
    median = summary["median"]
    if median == 0:
        return 0.0 if summary["q3"] == summary["q1"] else float("inf")
    return (summary["q3"] - summary["q1"]) / abs(median)


def verdict(
    base: list[float], change: list[float], better: str, bound: float
) -> tuple[str, float]:
    """Compare two sets of runs of one (metric, workload) pair.

    Returns the verdict and the change of the median as a share of the
    base median, signed so that positive is worse.  ``unresolved`` when
    either side's spread is wider than the bound, unless every change
    run beats every base run; ``worse``/``better`` when the medians
    differ by more than the bound; ``agree`` otherwise.
    """
    a, b = summarize(base), summarize(change)
    sign = 1.0 if better == "lower" else -1.0
    if a["median"] == 0:
        delta = 0.0 if b["median"] == 0 else sign * float("inf")
    else:
        delta = sign * (b["median"] - a["median"]) / abs(a["median"])
    if max(spread(a), spread(b)) > bound:
        dominated = (
            b["max"] < a["min"] if better == "lower" else b["min"] > a["max"]
        )
        return ("better" if dominated else "unresolved"), delta
    if delta > bound:
        return "worse", delta
    if -delta > bound:
        return "better", delta
    return "agree", delta
