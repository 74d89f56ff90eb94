"""Run-to-run regression analysis over recorded telemetry traces.

Two JSONL traces of "the same" workload — before and after a code or
policy change — replay into two observatory states; this module reduces
each to a flat metric dict and diffs them, flagging metrics that moved by
more than a tolerance.  That is what ``python -m repro compare A B``
prints: did the change burn more CVR budget, migrate more, fire alerts it
didn't before?

Pure data layer: rendering lives in :mod:`repro.observability.compare`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "MetricDelta",
    "run_summary",
    "summarize_observatory",
    "regression_diff",
]

#: metrics where an increase is a regression (everything else is neutral)
HIGHER_IS_WORSE = frozenset({
    "cvr_window", "violations_window", "migrations_window",
    "alerts_fired", "alerts_active", "drifted_pms", "skipped_lines",
    "events_dropped",
    # the serving and service SLO rules burn on these
    "sla_violation_window", "loss_rate_window", "shed_rate_window",
    "svc_wal_lag",
})


@dataclass(frozen=True)
class MetricDelta:
    """One metric's movement between a baseline and a candidate run."""

    metric: str
    baseline: float
    candidate: float
    delta: float
    #: relative change vs baseline (inf when baseline is 0 and delta isn't)
    relative: float
    #: "regression", "improvement", "changed" or "unchanged"
    verdict: str


def run_summary(path: str | Path, **observatory_kwargs) -> dict[str, float]:
    """Flat metric dict for one recorded JSONL trace (no simulator run)."""
    from repro.observability.observatory import Observatory

    return summarize_observatory(Observatory.from_jsonl(
        path, **observatory_kwargs))


def summarize_observatory(obs) -> dict[str, float]:
    """Flatten an :class:`~repro.observability.Observatory` to metrics."""
    summary = obs.summary()
    totals = obs.recorder.totals
    summary["events_total"] = float(sum(totals.values()))
    summary["migrations_total"] = float(totals.get("migration_completed", 0))
    summary["violations_total"] = float(totals.get("capacity_violation", 0))
    summary["crashes_total"] = float(totals.get("pm_crashed", 0))
    summary["recorded_alerts_fired"] = float(
        sum(1 for e in obs.recorded_alerts if e.kind == "alert_fired"))
    summary["recorded_drift"] = float(
        sum(1 for e in obs.recorded_alerts if e.kind == "drift_detected"))
    return summary


def regression_diff(baseline: dict[str, float], candidate: dict[str, float],
                    *, rtol: float = 0.05, atol: float = 1e-9
                    ) -> list[MetricDelta]:
    """Diff two summaries; one row per metric present in either.

    A metric is *unchanged* when ``|delta| <= atol + rtol * |baseline|``;
    otherwise a metric in ``HIGHER_IS_WORSE`` reads as a regression when
    it rose and an improvement when it fell.  Direction-neutral metrics
    that moved are labelled "changed".
    """
    rows: list[MetricDelta] = []
    for metric in sorted(set(baseline) | set(candidate)):
        a = float(baseline.get(metric, 0.0))
        b = float(candidate.get(metric, 0.0))
        delta = b - a
        relative = (delta / abs(a)) if a else (float("inf") if delta else 0.0)
        if abs(delta) <= atol + rtol * abs(a):
            verdict = "unchanged"
        elif metric in HIGHER_IS_WORSE:
            verdict = "regression" if delta > 0 else "improvement"
        else:
            verdict = "changed"
        rows.append(MetricDelta(metric, a, b, delta, relative, verdict))
    return rows
