"""``repro.analysis`` — correctness tooling for the reproduction.

Four pieces guard the properties every experiment in this repo depends
on (bit-stable runs, conserved per-GPU accounting, a race-free serving
path, a layered architecture):

* :mod:`repro.analysis.lint` — an AST-based static lint pass with
  Kube-Knots-specific rules: determinism/hygiene (``KK001``–``KK004``)
  and thread-safety (``KK005``–``KK008``), run as
  ``python -m repro lint`` and as a CI gate;
* :mod:`repro.analysis.layers` — the import-graph layer contract
  (simulation stack never imports drivers; no module cycles), run as
  ``python -m repro lint --layers``;
* :mod:`repro.analysis.sanitizer` — an ASan-style runtime sanitizer
  wired into the event loop, kubelets and Knots,
  enabled with ``--sanitize`` on ``simulate``/``dlsim`` or the
  ``sanitized_obs`` pytest fixture;
* :mod:`repro.analysis.racedetect` — a TSan-style runtime lock-order /
  owner-thread detector over the serving path, enabled with
  ``--race-detect`` on ``serve``.

See ``docs/static-analysis.md`` for the rule catalog, the layer
diagram, and the sanitizer/race-detector invariant tables.
"""

from repro.analysis.layers import LayerReport, check_layers
from repro.analysis.lint import Finding, lint_paths, lint_source
from repro.analysis.racedetect import RACE_INVARIANTS, RaceDetector, RaceError, TrackedLock
from repro.analysis.sanitizer import INVARIANTS, Sanitizer, SanitizerError, Violation

__all__ = [
    "Finding",
    "lint_paths",
    "lint_source",
    "LayerReport",
    "check_layers",
    "RaceDetector",
    "RaceError",
    "TrackedLock",
    "RACE_INVARIANTS",
    "Sanitizer",
    "SanitizerError",
    "Violation",
    "INVARIANTS",
]
