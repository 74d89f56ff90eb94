"""``python -m repro compare A.jsonl B.jsonl`` — regression diff renderer.

Replays two recorded traces through the observatory (no simulator
execution), reduces each to the flat summary of
:func:`repro.analysis.regression.run_summary`, and renders the
:func:`~repro.analysis.regression.regression_diff` as an aligned table
plus the two alert timelines side by side.  Exit code 1 when any metric
regressed — so CI can gate on it — and 2 when the pair cannot be
compared: a file is missing, a trace replays to zero events, or the two
traces cover different numbers of ticks.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.analysis.regression import regression_diff, summarize_observatory
from repro.observability.observatory import Observatory
from repro.utils.tables import format_table

__all__ = ["render_comparison", "run_compare"]

_MARK = {"regression": "!!", "improvement": "ok", "changed": "~", "unchanged": ""}


def _alert_lines(label: str, obs: Observatory) -> list[str]:
    lines = [f"{label}:"]
    if not obs.slo.timeline:
        lines.append("  (no alerts)")
        return lines
    for span in obs.slo.timeline:
        end = span.resolved_at if span.resolved_at is not None else "…"
        lines.append(
            f"  {span.rule} [{span.severity}] {span.fired_at}..{end} "
            f"peak burn {span.peak_burn_fast:.1f}x")
    return lines


def _replayed_events(obs: Observatory) -> int:
    """Every event the replay consumed, whichever part of ``obs`` took it."""
    return (sum(obs.recorder.totals.values()) + len(obs.recorded_alerts)
            + len(obs.autopilot_events) + len(obs.decision_events))


def render_comparison(baseline: str | Path, candidate: str | Path, *,
                      rtol: float = 0.05, show_unchanged: bool = False,
                      ignore: tuple[str, ...] = ()) -> tuple[str, bool]:
    """Render the diff; returns ``(text, any_regression)``.

    ``ignore`` names metrics excluded from the verdict (still rendered,
    marked ``ig``) — e.g. ``migrations_window`` when diffing an
    adaptation policy that deliberately spends migrations.  Raises
    :class:`ValueError` when a trace replays to zero events or the two
    cover different tick counts: a run that recorded nothing, or died
    early, must not read as "no regressions".
    """
    obs_a = Observatory.from_jsonl(baseline)
    obs_b = Observatory.from_jsonl(candidate)
    for path, obs in ((baseline, obs_a), (candidate, obs_b)):
        if not _replayed_events(obs):
            raise ValueError(f"{path} replays to zero events")
    a = summarize_observatory(obs_a)
    b = summarize_observatory(obs_b)
    if a["ticks"] != b["ticks"]:
        raise ValueError(
            f"the traces cover different runs: {baseline} has "
            f"{a['ticks']:.0f} ticks, {candidate} has {b['ticks']:.0f}")
    deltas = regression_diff(a, b, rtol=rtol)
    ignored = set(ignore)
    shown = [d for d in deltas
             if show_unchanged or d.verdict != "unchanged"]
    lines = [f"baseline : {baseline}", f"candidate: {candidate}", ""]
    if shown:
        rows = [
            [d.metric, d.baseline, d.candidate, d.delta,
             f"{d.relative:+.1%}" if d.relative not in (float("inf"),)
             else "new",
             "ig" if d.metric in ignored else _MARK[d.verdict]]
            for d in shown
        ]
        lines.append(format_table(
            ["metric", "baseline", "candidate", "delta", "rel", ""],
            rows, floatfmt=".4f",
            title=f"metric deltas (rtol={rtol:g}; !! = regression)"))
    else:
        lines.append(f"no metric moved beyond rtol={rtol:g}")
    lines.append("")
    lines.extend(_alert_lines("baseline alerts", obs_a))
    lines.extend(_alert_lines("candidate alerts", obs_b))
    regressed = any(d.verdict == "regression" and d.metric not in ignored
                    for d in deltas)
    lines.append("")
    lines.append("verdict: "
                 + ("REGRESSION" if regressed else "no regressions"))
    return "\n".join(lines), regressed


def run_compare(baseline: str | Path, candidate: str | Path, *,
                rtol: float = 0.05, show_unchanged: bool = False,
                ignore: tuple[str, ...] = (), stream=None) -> int:
    """CLI entry point: exit 1 on regression, 2 on a pair it cannot diff."""
    stream = stream if stream is not None else sys.stdout
    for path in (baseline, candidate):
        if not Path(path).exists():
            print(f"error: no such trace file: {path}", file=stream)
            return 2
    try:
        text, regressed = render_comparison(
            baseline, candidate, rtol=rtol, show_unchanged=show_unchanged,
            ignore=ignore)
    except ValueError as exc:
        print(f"error: {exc}", file=stream)
        return 2
    print(text, file=stream)
    return 1 if regressed else 0
