"""Knots telemetry plane: NVML sampler, the cluster telemetry ring, a
standalone ring-buffer TSDB."""

from repro.telemetry.matrix import MatrixTelemetry
from repro.telemetry.nvml import METRICS, NvmlContext, NvmlSampler
from repro.telemetry.tsdb import SeriesWindow, TimeSeriesDB

__all__ = [
    "MatrixTelemetry",
    "NvmlContext",
    "NvmlSampler",
    "METRICS",
    "TimeSeriesDB",
    "SeriesWindow",
]
