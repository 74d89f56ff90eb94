"""The run observatory front-end: live terminal panels and HTML export.

Three entry points, all reachable via ``python -m repro dashboard``:

- **live** (default / ``--follow``): run a scenario with an attached
  :class:`~repro.observability.observatory.Observatory` and repaint the
  terminal panels as the simulation advances;
- ``--once``: run to completion silently, print the final frame;
- ``--from-jsonl F``: no simulator at all — rebuild the observatory from a
  recorded trace and render it.

``--html F`` additionally writes a self-contained HTML page (inline CSS,
``<pre>`` panels, zero external assets) so a CI job can archive the run's
observability state as an artifact.

The experiment argument selects a *recipe* — a small scenario shaped like
the named experiment (same pattern family, placer and rho), sized to
render in seconds.  ``--overcommit`` shrinks PM capacity to force budget
burn (SLO demo); ``--inject-drift`` perturbs ``p_on`` mid-run (drift demo).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

from repro.observability.observatory import Observatory
from repro.observability.perf import PHASE_ORDER, PerfSnapshot
from repro.utils.tables import format_table
from repro.viz.ascii_charts import sanitize_series, sparkline

__all__ = [
    "EXPERIMENT_ALIASES",
    "RECIPES",
    "build_scenario",
    "render_frame",
    "render_html",
    "run_dashboard",
]

_PANEL_WIDTH = 64


@dataclass(frozen=True)
class Recipe:
    """A dashboard-sized scenario shaped like one of the experiments."""

    pattern: str
    n_vms: int
    rho: float = 0.01
    d: int = 16
    failures: bool = False
    migration_failure_probability: float = 0.0
    description: str = ""


#: canonical experiment id -> scenario recipe
RECIPES: dict[str, Recipe] = {
    "fig5": Recipe("equal", 64, description="packing fleet, calm runtime"),
    "fig6": Recipe("equal", 64, description="CVR-focused runtime"),
    "fig7": Recipe("large", 96, description="larger fleet (cost study shape)"),
    "fig8": Recipe("small", 48, description="web-server-like bursts"),
    "fig9": Recipe("equal", 64, failures=True,
                   migration_failure_probability=0.05,
                   description="migration runtime with faults"),
    "fig10": Recipe("equal", 64, description="migration timeline shape"),
    "table1": Recipe("equal", 48, description="pattern specification fleet"),
}

#: convenience aliases (the experiment modules' long names)
EXPERIMENT_ALIASES: dict[str, str] = {
    "fig5_packing": "fig5",
    "fig6_cvr": "fig6",
    "fig7_cost": "fig7",
    "fig8_trace": "fig8",
    "fig9_migration": "fig9",
    "fig10_timeline": "fig10",
}


def resolve_experiment(name: str) -> str:
    """Map an experiment name or alias to its recipe key."""
    key = EXPERIMENT_ALIASES.get(name, name)
    if key not in RECIPES:
        known = sorted({*RECIPES, *EXPERIMENT_ALIASES})
        raise ValueError(f"unknown experiment {name!r}; known: {known}")
    return key


class _OvercommitPlacer:
    """Placer shim that consolidates against inflated PM capacity.

    The inner placer packs as if every PM were ``factor`` times larger
    than it really is; the runtime then squeezes that placement onto the
    true capacities.  This is exactly the failure mode the SLO engine
    exists for — the fleet consolidated against a model more generous
    than reality — so it is the dashboard's ``--overcommit`` demo knob:
    :func:`build_scenario` hands the runtime capacities divided by the
    factor and this shim restores the placer's (nominal) view, so the
    packing is identical to the nominal run while reality is tighter.
    """

    def __init__(self, inner, factor: float):
        self.inner = inner
        self.factor = factor
        self.name = f"{inner.name}/oc{factor:g}"

    def place(self, vms, pms):
        from repro.core.types import PMSpec

        inflated = [PMSpec(pm.capacity * self.factor) for pm in pms]
        return self.inner.place(vms, inflated)

    def place_and_report(self, vms, pms, *, telemetry=None):
        from repro.core.types import PMSpec

        inflated = [PMSpec(pm.capacity * self.factor) for pm in pms]
        return self.inner.place_and_report(vms, inflated,
                                           telemetry=telemetry)


def build_scenario(experiment: str, *, observatory: Observatory,
                   telemetry=None, overcommit: float = 1.0,
                   seed=2013):
    """Build the observed scenario for an experiment recipe.

    Returns the configured :class:`~repro.simulation.scenario.Scenario`.
    ``overcommit > 1`` makes the placer consolidate against PMs that
    factor larger than the runtime provides (see :class:`_OvercommitPlacer`)
    — how a demo run is pushed over its CVR budget.
    """
    from repro.core.queuing_ffd import QueuingFFD
    from repro.core.types import PMSpec
    from repro.simulation.scenario import Scenario
    from repro.simulation.triggers import SlidingWindowCVRTrigger
    from repro.workload.patterns import generate_pattern_instance

    key = resolve_experiment(experiment)
    recipe = RECIPES[key]
    if overcommit < 1.0:
        raise ValueError(f"overcommit must be >= 1, got {overcommit}")
    vms, pms = generate_pattern_instance(recipe.pattern, recipe.n_vms,
                                         seed=seed)
    placer = QueuingFFD(rho=recipe.rho, d=recipe.d)
    if overcommit > 1.0:
        # Runtime reality shrinks while the placer still packs the nominal
        # view — and the PMs the nominal packing freed are decommissioned
        # (plus one spare), so the scheduler cannot simply spread the
        # overload back out.  This is the consolidated-then-squeezed fleet
        # whose budget burn the SLO engine exists to catch.
        n_keep = min(len(pms), placer.place(vms, pms).n_used_pms + 1)
        pms = [PMSpec(pm.capacity / overcommit) for pm in pms[:n_keep]]
        placer = _OvercommitPlacer(placer, overcommit)
    trigger = SlidingWindowCVRTrigger(len(pms), rho=recipe.rho)
    return Scenario(
        vms, pms,
        placer=placer,
        trigger=trigger,
        failures=recipe.failures,
        migration_failure_probability=recipe.migration_failure_probability,
        telemetry=telemetry,
        observatory=observatory,
        start_stationary=True,
    )


# --------------------------------------------------------------------- #
# frame rendering
# --------------------------------------------------------------------- #
def _rule(char: str = "─") -> str:
    return char * _PANEL_WIDTH


def _spark_row(label: str, values, fmt: str = ".3f", width: int = 40) -> str:
    clean = sanitize_series(values)[-width:]
    if not clean:
        return f"{label:<14s} (no data)"
    return f"{label:<14s} {sparkline(clean)} {format(clean[-1], fmt)}"


def _perf_lines(perf) -> list[str]:
    """The PERF panel: phase breakdown bars plus the throughput gauge."""
    report = perf.report
    lines = [
        f"PERF: {perf.vm_intervals_per_second:,.0f} vm-intervals/s   "
        f"tick mean "
        f"{report.tick_seconds * 1e3 / max(report.tick_count, 1):.2f} ms "
        f"({report.tick_count} ticks)"
    ]
    fractions = report.phase_fraction
    for phase in PHASE_ORDER:
        frac = fractions.get(phase, 0.0)
        seconds = report.phase_seconds.get(phase, 0.0)
        if seconds <= 0.0 and frac <= 0.0:
            continue
        bar = "█" * max(1, round(frac * 24)) if frac > 0 else ""
        lines.append(f"  {phase:<16s} {bar:<24s} {frac:6.1%} "
                     f"{seconds * 1e3:9.1f} ms")
    return lines


def render_frame(obs: Observatory, *, title: str = "run observatory",
                 perf=None) -> str:
    """Render the observatory's current state as terminal panels.

    ``perf`` (an optional :class:`~repro.observability.perf.PerfSnapshot`)
    adds the PERF panel: per-phase share of tick time plus the
    vm-intervals/s throughput gauge.
    """
    rec = obs.recorder
    summary = obs.summary()
    lines: list[str] = []
    lines.append(_rule("═"))
    lines.append(f"{title}  ·  interval {rec.last_time}  ·  "
                 f"{rec.ticks} recorded")
    lines.append(_rule("═"))

    # headline numbers
    lines.append(
        f"PMs on {summary['pms_on']:.0f}   "
        f"util {summary['utilization']:.3f}   "
        f"CVR(win) {summary['cvr_window']:.4f}   "
        f"migrations(win) {summary['migrations_window']:.0f}")
    lines.append(
        f"ON-fraction {summary['on_fraction']:.3f} observed / "
        f"{summary['on_fraction_expected']:.3f} assumed   "
        f"drifted PMs {summary['drifted_pms']:.0f}")
    lines.append(_rule())

    # chart panels
    for label, chart, fmt in (
        ("utilization", "utilization", ".3f"),
        ("ON observed", "on_fraction", ".3f"),
        ("ON assumed", "on_fraction_expected", ".3f"),
        ("PMs on", "pms_on", ".0f"),
        ("violations", "violations", ".0f"),
        ("migrations", "migrations", ".0f"),
    ):
        lines.append(_spark_row(label, rec.charts[chart].series()[1], fmt))
    lines.append(_rule())

    # request-level serving (only when the serving plane emitted data)
    if rec.serving_seen:
        lines.append(
            f"SERVING: p50 {summary['latency_p50']:.0f} / "
            f"p99 {summary['latency_p99']:.0f} intervals   "
            f"loss(win) {summary['loss_rate_window']:.4f}   "
            f"P(T>t)(win) {summary['sla_violation_window']:.4f}   "
            f"backlog {summary['backlog']:.0f}")
        for label, chart, fmt in (
            ("latency p50", "latency_p50", ".0f"),
            ("latency p99", "latency_p99", ".0f"),
            ("loss rate", "loss_rate", ".4f"),
            ("backlog", "backlog", ".0f"),
        ):
            lines.append(_spark_row(label, rec.charts[chart].series()[1], fmt))
        lines.append(_rule())

    # placement service (only when `repro serve` emitted snapshots)
    if rec.service_seen:
        lines.append(
            f"SERVICE: requests {summary['svc_requests']:.0f}   "
            f"shed(win) {summary['shed_rate_window']:.4f}   "
            f"pool {summary['svc_active_pms']:.0f}A/"
            f"{summary['svc_draining_pms']:.0f}D/"
            f"{summary['svc_retired_pms']:.0f}R   "
            f"wal lag {summary['svc_wal_lag']:.0f}   "
            f"staleness {summary['svc_staleness']:.0f}")
        for label, chart, fmt in (
            ("shed rate", "shed_rate", ".4f"),
            ("active PMs", "active_pms", ".0f"),
            ("WAL lag", "wal_lag", ".0f"),
        ):
            lines.append(_spark_row(label, rec.charts[chart].series()[1], fmt))
        lines.append(_rule())

    # alerts
    if obs.slo.active:
        lines.append("ALERTS FIRING:")
        for name, alert in sorted(obs.slo.active.items()):
            lines.append(
                f"  [{alert.rule.severity.upper():6s}] {name}: "
                f"burn {alert.burn_fast:.1f}x fast / "
                f"{alert.burn_slow:.1f}x slow "
                f"(since interval {alert.fired_at})")
    else:
        lines.append("alerts: none firing")
    closed = [s for s in obs.slo.timeline if not s.open]
    if closed:
        lines.append(f"alert history: {len(closed)} resolved "
                     f"({obs.slo.fired_total} fired total)")
        for span in closed[-3:]:
            lines.append(
                f"  {span.rule} [{span.severity}] "
                f"{span.fired_at}..{span.resolved_at} "
                f"peak burn {span.peak_burn_fast:.1f}x")
    if obs.recorded_alerts:
        lines.append(
            f"recorded in trace: "
            f"{sum(1 for e in obs.recorded_alerts if e.kind == 'alert_fired')}"
            f" fired / "
            f"{sum(1 for e in obs.recorded_alerts if e.kind == 'alert_resolved')}"
            f" resolved / "
            f"{sum(1 for e in obs.recorded_alerts if e.kind == 'drift_detected')}"
            f" drift")
    lines.append(_rule())

    # drift
    flagged = obs.drift.flagged_pms
    if flagged:
        lines.append(f"MODEL DRIFT on PMs {flagged}:")
        for det in obs.drift.detections[-4:]:
            lines.append(
                f"  PM {det.pm_id}: chi2 {det.statistic:.1f} > "
                f"{det.threshold:.1f}, ON {det.observed_on_fraction:.3f} "
                f"vs assumed {det.expected_on_fraction:.3f} "
                f"@ interval {det.time}")
    else:
        lines.append("model drift: none detected")
    lines.append(_rule())

    # perf (phase attribution + throughput)
    if perf is not None and perf.report.tick_count:
        lines.extend(_perf_lines(perf))
        lines.append(_rule())

    # autopilot control loop
    pilot = obs.autopilot_events
    if pilot:
        committed = int(summary.get("replans_committed", 0))
        rolled = int(summary.get("replans_rolled_back", 0))
        refits = sum(1 for e in pilot if e.kind == "refit_completed")
        rejected = sum(1 for e in pilot if e.kind == "refit_rejected")
        lines.append(
            f"AUTOPILOT: {refits} refits ({rejected} rejected), "
            f"{committed} replans committed, {rolled} rolled back")
        for e in pilot[-4:]:
            if e.kind == "refit_completed":
                lines.append(
                    f"  t={e.time}: refit [{e.cause}] {e.fingerprint} "
                    f"({e.converged} HMM / {e.fallback} fallback)")
            elif e.kind == "refit_rejected":
                lines.append(
                    f"  t={e.time}: refit {e.fingerprint} rejected "
                    f"({e.reason})")
            elif e.kind == "replan_started":
                lines.append(
                    f"  t={e.time}: replan [{e.cause}] budget {e.budget}, "
                    f"baseline CVR {e.baseline_cvr:.4f}, verdict at "
                    f"t={e.deadline}")
            elif e.kind == "replan_committed":
                lines.append(
                    f"  t={e.time}: COMMIT {e.fingerprint} "
                    f"CVR {e.baseline_cvr:.4f} -> {e.post_cvr:.4f}")
            elif e.kind == "replan_rolled_back":
                lines.append(
                    f"  t={e.time}: ROLLBACK {e.fingerprint} "
                    f"CVR {e.baseline_cvr:.4f} -> {e.post_cvr:.4f}, "
                    f"parity {'ok' if e.parity else 'BROKEN'}")
        lines.append(_rule())

    # decision provenance
    decisions = obs.decision_events
    if decisions:
        by_kind = {"placement_decided": 0, "migration_decided": 0,
                   "reconsolidation_decided": 0, "replan_decided": 0}
        for e in decisions:
            by_kind[e.kind] = by_kind.get(e.kind, 0) + 1
        dropped = int(summary.get("decisions_dropped_total", 0))
        lines.append(
            f"DECISIONS: {len(decisions)} recorded "
            f"({by_kind['placement_decided']} placement, "
            f"{by_kind['migration_decided']} migration, "
            f"{by_kind['reconsolidation_decided']} reconsolidation, "
            f"{by_kind['replan_decided']} replan; "
            f"{dropped} candidate rows truncated)")
        for e in decisions[-4:]:
            if e.kind == "placement_decided":
                lines.append(
                    f"  t={e.time}: place vm {e.vm_id} -> pm {e.chosen_pm} "
                    f"[{e.placer}] {len(e.cand_pms)} candidates")
            elif e.kind == "migration_decided":
                where = (f"pm {e.chosen_pm}" if e.chosen_pm >= 0
                         else "NO TARGET")
                lines.append(
                    f"  t={e.time}: migrate vm {e.vm_id} off pm "
                    f"{e.source_pm} -> {where} [{e.cause}]")
            elif e.kind == "reconsolidation_decided":
                lines.append(
                    f"  t={e.time}: reconsolidation [{e.cause}] "
                    f"{e.executed_moves}/{e.planned_moves} moves")
            elif e.kind == "replan_decided":
                lines.append(
                    f"  t={e.time}: replan [{e.cause}] "
                    f"{e.drift_detections} drift, streak {e.alert_streak}")
        lines.append("  (full audit trail: python -m repro explain <jsonl>)")
        lines.append(_rule())

    # worst offenders
    worst = rec.worst_pms(5)
    if worst:
        rows = [
            [s.pm_id, s.violation_rate, s.utilization, s.headroom,
             s.on_vms, s.hosted]
            for s in worst
        ]
        lines.append(format_table(
            ["PM", "viol_rate", "util", "headroom", "on", "hosted"],
            rows, floatfmt=".3f", title="worst offenders"))
    if obs.skipped_lines:
        lines.append(f"[{obs.skipped_lines} malformed trace lines skipped]")
    return "\n".join(lines)


_HTML_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
  body {{ background: #10141a; color: #d8dee9; font-family: ui-monospace,
         'SF Mono', Menlo, Consolas, monospace; margin: 2rem; }}
  h1 {{ font-size: 1.1rem; color: #88c0d0; }}
  pre {{ background: #161b22; border: 1px solid #30363d; border-radius: 6px;
        padding: 1rem; overflow-x: auto; line-height: 1.35; }}
  .meta {{ color: #7b8494; font-size: 0.85rem; }}
</style>
</head>
<body>
<h1>{title}</h1>
<p class="meta">interval {time} · {ticks} intervals recorded ·
{fired} alerts fired · {drifted} PMs drifted</p>
<pre>{frame}</pre>
</body>
</html>
"""


def _escape_html(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def render_html(obs: Observatory, *, title: str = "run observatory") -> str:
    """Self-contained HTML page around the terminal frame (CI artifact)."""
    escaped = _escape_html(render_frame(obs, title=title))
    return _HTML_TEMPLATE.format(
        title=_escape_html(title),
        time=obs.recorder.last_time,
        ticks=obs.recorder.ticks,
        fired=obs.slo.fired_total,
        drifted=len(obs.drift.flagged_pms),
        frame=escaped,
    )


# --------------------------------------------------------------------- #
# drivers
# --------------------------------------------------------------------- #
def run_dashboard(experiment: str, *, n_intervals: int = 240,
                  seed=2013, refresh: int = 10, once: bool = False,
                  follow: bool = False, from_jsonl: str | Path | None = None,
                  html: str | Path | None = None,
                  jsonl_out: str | Path | None = None,
                  overcommit: float = 1.0,
                  inject_drift: float | None = None, drift_at: int = 0,
                  rules_path: str | Path | None = None,
                  rho: float = 0.01,
                  stream=None) -> int:
    """Drive the dashboard in one of its three modes; returns exit code."""
    stream = stream if stream is not None else sys.stdout
    rules = None
    if rules_path is not None:
        from repro.observability.slo import load_rules
        rules = load_rules(rules_path)

    if from_jsonl is not None:
        obs = Observatory.from_jsonl(from_jsonl, rules=rules, rho=rho)
        title = f"replay: {from_jsonl}"
        print(render_frame(obs, title=title), file=stream)
        if html is not None:
            Path(html).write_text(render_html(obs, title=title) + "\n")
            print(f"[HTML written to {html}]", file=stream)
        return 0

    from repro.telemetry import JSONLSink, Telemetry

    obs = Observatory(rules=rules, rho=rho)
    sinks = [JSONLSink(jsonl_out)] if jsonl_out is not None else []
    tel = Telemetry(*sinks)
    scenario = build_scenario(experiment, observatory=obs, telemetry=tel,
                              overcommit=overcommit, seed=seed)
    title = f"live: {resolve_experiment(experiment)}"
    live = follow or not once
    is_tty = bool(getattr(stream, "isatty", lambda: False)())
    n_vms = len(scenario.vms)

    def perf_snapshot() -> PerfSnapshot | None:
        if tel.profiler.empty:
            return None
        return PerfSnapshot.capture(tel.profiler, n_vms=n_vms)

    def on_tick(t: int) -> None:
        if inject_drift is not None and t == drift_at:
            dc = scenario.datacenter
            dc.set_switch_probabilities(list(range(dc.n_vms)),
                                        p_on=inject_drift)
        if live and t % refresh == 0:
            if is_tty:
                stream.write("\x1b[2J\x1b[H")
            print(render_frame(obs, title=f"{title} · t={t}",
                               perf=perf_snapshot()), file=stream)
            stream.flush()

    try:
        scenario.run(n_intervals, seed=seed, on_tick=on_tick)
    finally:
        tel.close()
    print(render_frame(obs, title=f"{title} (final)",
                       perf=perf_snapshot()), file=stream)
    if html is not None:
        Path(html).write_text(render_html(obs, title=title) + "\n")
        print(f"[HTML written to {html}]", file=stream)
    if jsonl_out is not None:
        print(f"[{tel.events.emitted} events written to {jsonl_out}]",
              file=stream)
    return 0
