"""The observability bundle threaded through the stack.

One :class:`Observability` object carries the three sinks — tracer,
metrics registry, decision audit log — plus the shared
:class:`~repro.obs.tracer.SimClock` they all stamp from.  Components
accept it as an optional constructor argument defaulting to
:data:`NOOP`, the module-level disabled bundle, so instrumentation
costs one attribute check (``obs.enabled``) or one empty method call
when observability is off.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.audit import DecisionAuditLog, NullAuditLog
from repro.obs.metrics import MetricsRegistry, NullMetricsRegistry
from repro.obs.tracer import NullTracer, SimClock, Tracer

__all__ = ["Observability", "NOOP"]


class Observability:
    """Tracer + metrics + audit log (+ sanitizer, + race detector)
    sharing one sim clock."""

    __slots__ = ("clock", "tracer", "metrics", "audit", "sanitizer", "race", "enabled")

    def __init__(
        self,
        trace: bool = True,
        metrics: bool = True,
        audit: bool = True,
        clock: SimClock | None = None,
        sanitize: bool = False,
        halt_on_violation: bool = True,
        race_detect: bool = False,
        halt_on_race: bool = False,
    ) -> None:
        self.clock = clock or SimClock()
        self.tracer = Tracer(self.clock) if trace else NullTracer(self.clock)
        self.metrics = MetricsRegistry() if metrics else NullMetricsRegistry()
        # Sanitizer and race-detector violations must land somewhere
        # visible, so either checker brings a real audit log along.
        use_audit = bool(audit or sanitize or race_detect)
        self.audit = DecisionAuditLog(self.clock) if use_audit else NullAuditLog(self.clock)
        if sanitize:
            from repro.analysis.sanitizer import Sanitizer

            self.sanitizer: "Sanitizer | None" = Sanitizer(
                audit=self.audit, clock=self.clock, halt=halt_on_violation
            )
        else:
            self.sanitizer = None
        if race_detect:
            from repro.analysis.racedetect import RaceDetector

            self.race: "RaceDetector | None" = RaceDetector(
                audit=self.audit, clock=self.clock, halt=halt_on_race
            )
        else:
            self.race = None
        self.enabled = bool(trace or metrics or use_audit)

    @classmethod
    def disabled(cls) -> "Observability":
        return cls(trace=False, metrics=False, audit=False)

    def checks_only(self) -> "Observability":
        """A bundle with this one's clock and sanitizer that records
        nothing else: no span, metric or audit record."""
        quiet = Observability(trace=False, metrics=False, audit=False, clock=self.clock)
        quiet.sanitizer = self.sanitizer
        return quiet

    def tick(self, now: float) -> None:
        """Advance the shared clock (the simulator calls this)."""
        self.clock.now = now

    # -- convenience exporters ----------------------------------------------

    def export(
        self,
        trace_path: str | Path | None = None,
        metrics_path: str | Path | None = None,
        audit_path: str | Path | None = None,
    ) -> dict[str, int]:
        """Write whichever sinks were requested; returns written counts."""
        written: dict[str, int] = {}
        if trace_path is not None:
            written["trace_events"] = self.tracer.to_chrome(trace_path)
        if metrics_path is not None:
            self.metrics.write(metrics_path)
            written["metrics"] = len(self.metrics.names())
        if audit_path is not None:
            written["audit_records"] = self.audit.to_jsonl(audit_path)
        return written


#: The shared disabled bundle every component defaults to.
NOOP = Observability.disabled()
