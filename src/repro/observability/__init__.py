"""Run observatory: rolling telemetry, SLO burn-rate alerts, model drift.

The simulator's telemetry bus (:mod:`repro.telemetry`) records what
happened; this package watches it *while it happens* — and answers the
operator questions the paper's consolidation story raises in production:

- :mod:`repro.observability.series` — bounded-memory rolling windows and
  downsampled retention tiers;
- :mod:`repro.observability.recorder` — per-PM and fleet-wide aggregates
  maintained from the event stream (live or replayed);
- :mod:`repro.observability.slo` — declarative multi-window burn-rate
  rules over the CVR budget rho and migration churn, emitting typed
  AlertFired / AlertResolved events;
- :mod:`repro.observability.drift` — sequential chi-square detection of
  PMs whose ON-fractions depart from the Geom/Geom/K law MapCal assumed;
- :mod:`repro.observability.observatory` — the bundle, attachable to a
  live run or rebuilt from a JSONL trace;
- :mod:`repro.observability.dashboard` — terminal panels + HTML export
  (``python -m repro dashboard``);
- :mod:`repro.observability.compare` — run-to-run regression diff
  (``python -m repro compare``);
- :mod:`repro.observability.provenance` — decision provenance: the query
  layer over the ``*Decided`` event vocabulary and the byte-deterministic
  "why here, why not there" renderer (``python -m repro explain``);
- :mod:`repro.observability.perf` — phase attribution of the span tree,
  behind the dashboard's PERF panel (benchmarks live in ``perfbench/``).
"""

from repro.observability.dashboard import (
    build_scenario,
    render_frame,
    render_html,
    run_dashboard,
)
from repro.observability.drift import DriftDetector, PMDriftState
from repro.observability.observatory import Observatory
from repro.observability.perf import PerfSnapshot, PhaseAttributor, PhaseReport
from repro.observability.provenance import (
    REASON_TEXT,
    ProvenanceIndex,
    render_explanation,
)
from repro.observability.recorder import PMState, TimeSeriesRecorder
from repro.observability.series import RollingWindow, TieredSeries
from repro.observability.slo import (
    ActiveAlert,
    AlertSpan,
    BurnWindow,
    SLOEngine,
    SLORule,
    default_rules,
    default_service_rules,
    load_rules,
)

__all__ = [
    "RollingWindow",
    "TieredSeries",
    "PMState",
    "TimeSeriesRecorder",
    "BurnWindow",
    "SLORule",
    "SLOEngine",
    "ActiveAlert",
    "AlertSpan",
    "default_rules",
    "default_service_rules",
    "load_rules",
    "DriftDetector",
    "PMDriftState",
    "Observatory",
    "ProvenanceIndex",
    "REASON_TEXT",
    "render_explanation",
    "PhaseAttributor",
    "PhaseReport",
    "PerfSnapshot",
    "build_scenario",
    "render_frame",
    "render_html",
    "run_dashboard",
]
