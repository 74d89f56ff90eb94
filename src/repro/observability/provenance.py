"""Decision provenance: reconstruct *why* from a recorded event stream.

The placers, the migration scheduler, the reconsolidation layer and the
autopilot all emit ``*Decided`` events (:mod:`repro.telemetry.events`)
carrying the candidate set they evaluated, per-candidate scores, and a
typed rejection verdict for every loser.  This module is the query side:
:class:`ProvenanceIndex` ingests a recorded stream (tolerantly, so a
corrupt tail costs only the lines after the corruption) and answers
"why is VM 12 on PM 3?", "who was ever rejected from PM 7?", "what did
the autopilot see before replanning at t=92?" — purely from the JSONL,
no simulator re-execution, byte-deterministic output.

Decision ids are allocated by the producers (monotonic per id-space:
the scheduler's checkpointed sequence for in-run decisions, the telemetry
context for pre-run/online placements), so the same seed yields the same
ids.  Because an autopilot rollback rewinds the scheduler sequence along
with everything else, an id can legitimately reappear after a rollback;
queries therefore return *all* matches and the renderer shows each.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.placement.base import (
    REASON_BLACKLISTED,
    REASON_CAPACITY,
    REASON_CHOSEN,
    REASON_CRASHED,
    REASON_CVR_THRESHOLD,
    REASON_DRAINING,
    REASON_FEASIBLE,
    REASON_FLEET_FULL,
    REASON_SHED_INBOX,
    REASON_SHED_PRIORITY,
    REASON_SHED_SOLVER,
    REASON_SOURCE,
    REASON_SPREAD,
    REASON_VM_CAP,
)
from repro.telemetry.events import (
    MigrationCompleted,
    MigrationDecided,
    MigrationFailed,
    PlacementDecided,
    ReconsolidationDecided,
    ReplanCommitted,
    ReplanDecided,
    ReplanRolledBack,
    ReplanStarted,
    TelemetryEvent,
)
from repro.telemetry.sinks import read_events_tolerant
from repro.utils.tables import format_table

__all__ = ["ProvenanceIndex", "REASON_TEXT", "render_explanation"]

#: human-readable counterfactual per verdict string (stable: rendered
#: output is asserted byte-identical across replays in CI)
REASON_TEXT = {
    REASON_CHOSEN: "selected",
    REASON_FEASIBLE: "feasible, but a preferred PM won",
    REASON_CAPACITY: "insufficient residual capacity",
    REASON_CVR_THRESHOLD: "predicted CVR above threshold",
    REASON_VM_CAP: "per-PM VM limit reached",
    REASON_SPREAD: "DomainSpreadConstraint",
    REASON_CRASHED: "PM crashed / excluded",
    REASON_BLACKLISTED: "target blacklisted (flapping)",
    REASON_SOURCE: "is the source PM",
    REASON_DRAINING: "draining for retirement",
    REASON_FLEET_FULL: "no eligible PM passes the reservation test",
    REASON_SHED_INBOX: "shed: admission inbox full",
    REASON_SHED_PRIORITY: "shed: evicted for a higher-class arrival",
    REASON_SHED_SOLVER: "shed: solver degraded, no usable mapping",
}

_DECISION_KINDS = (PlacementDecided, MigrationDecided,
                   ReconsolidationDecided, ReplanDecided)


class ProvenanceIndex:
    """Queryable view over the decision events of one recorded run.

    Attributes
    ----------
    decisions:
        The ``*Decided`` events in stream order; each is also addressable
        by its stream ordinal (``seq``), which is what ``repro explain
        --decision`` uses alongside the producer-assigned ``decision_id``.
    events:
        The full event stream (decisions need their outcome events —
        ``MigrationCompleted``/``Failed``, ``ReplanStarted``/
        ``Committed``/``RolledBack`` — for linking).
    skipped_lines:
        Malformed JSONL lines dropped by the tolerant reader.
    """

    def __init__(self, events: Iterable[TelemetryEvent], *,
                 skipped_lines: int = 0):
        self.events: list[TelemetryEvent] = list(events)
        self.decisions: list[TelemetryEvent] = [
            e for e in self.events if isinstance(e, _DECISION_KINDS)]
        self.skipped_lines = skipped_lines

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ProvenanceIndex":
        """Build the index from a JSONL trace (corrupt tail tolerated)."""
        events, skipped = read_events_tolerant(path)
        return cls(events, skipped_lines=skipped)

    # ----------------------------------------------------------------- #
    # filters (all return (seq, event) pairs in stream order)
    # ----------------------------------------------------------------- #
    def _enumerated(self) -> list[tuple[int, TelemetryEvent]]:
        return list(enumerate(self.decisions))

    def for_vm(self, vm_id: int) -> list[tuple[int, TelemetryEvent]]:
        """Every decision that concerned VM ``vm_id``."""
        out = []
        for seq, e in self._enumerated():
            if getattr(e, "vm_id", None) == vm_id:
                out.append((seq, e))
            elif (isinstance(e, ReconsolidationDecided)
                  and vm_id in e.move_vms):
                out.append((seq, e))
        return out

    def for_pm(self, pm_id: int) -> list[tuple[int, TelemetryEvent]]:
        """Every decision in which PM ``pm_id`` appeared (as winner,
        candidate, source, or move endpoint)."""
        out = []
        for seq, e in self._enumerated():
            if getattr(e, "chosen_pm", None) == pm_id:
                out.append((seq, e))
            elif pm_id in getattr(e, "cand_pms", ()):
                out.append((seq, e))
            elif getattr(e, "source_pm", None) == pm_id:
                out.append((seq, e))
            elif isinstance(e, ReconsolidationDecided) and (
                    pm_id in e.move_sources or pm_id in e.move_targets):
                out.append((seq, e))
            elif isinstance(e, ReplanDecided) and pm_id in e.drift_pms:
                out.append((seq, e))
        return out

    def at_tick(self, time: int) -> list[tuple[int, TelemetryEvent]]:
        """Every decision taken at interval ``time``."""
        return [(seq, e) for seq, e in self._enumerated()
                if e.time == time]

    def by_id(self, decision_id: int) -> list[tuple[int, TelemetryEvent]]:
        """Decisions whose producer-assigned id matches (may be several:
        id spaces are per producer, and a rollback rewinds the
        scheduler's sequence)."""
        return [(seq, e) for seq, e in self._enumerated()
                if getattr(e, "decision_id", None) == decision_id]

    def by_seq(self, seq: int) -> list[tuple[int, TelemetryEvent]]:
        """The decision at stream ordinal ``seq`` (empty when out of
        range)."""
        if 0 <= seq < len(self.decisions):
            return [(seq, self.decisions[seq])]
        return []

    # ----------------------------------------------------------------- #
    # outcome linking
    # ----------------------------------------------------------------- #
    def migration_outcome(self, decision: MigrationDecided) -> str:
        """What happened to a migration decision: completed, failed, or
        (for ``chosen_pm = -1``) nothing to execute."""
        if decision.chosen_pm < 0:
            return "unresolved (no feasible target; violation tolerated)"
        for e in self.events:
            if e.time != decision.time:
                continue
            if (isinstance(e, MigrationCompleted)
                    and e.vm_id == decision.vm_id
                    and e.target_pm == decision.chosen_pm):
                return "completed"
            if (isinstance(e, MigrationFailed)
                    and e.vm_id == decision.vm_id
                    and e.target_pm == decision.chosen_pm):
                return (f"failed mid-flight (backoff "
                        f"{e.backoff_intervals} intervals)")
        return "outcome not in trace"

    def replan_outcome(self, decision: ReplanDecided) -> list[str]:
        """The audit trail of one replan decision: the matching start and
        the eventual commit/rollback, linked by fingerprint."""
        lines = []
        for e in self.events:
            if getattr(e, "fingerprint", None) != decision.fingerprint:
                continue
            if isinstance(e, ReplanStarted) and e.time == decision.time:
                ckpt = e.checkpoint or "<in-memory only>"
                lines.append(f"t={e.time} replan started "
                             f"(checkpoint {ckpt})")
            elif isinstance(e, ReplanCommitted) and e.time >= decision.time:
                lines.append(
                    f"t={e.time} COMMITTED: CVR "
                    f"{decision.baseline_cvr:.4f} -> {e.post_cvr:.4f} "
                    f"({e.migrations} planned migrations)")
                break
            elif isinstance(e, ReplanRolledBack) and e.time >= decision.time:
                lines.append(
                    f"t={e.time} ROLLED BACK: CVR "
                    f"{decision.baseline_cvr:.4f} -> {e.post_cvr:.4f}, "
                    f"restored to t={e.restored_time} "
                    f"(parity={e.parity})")
                break
        if not lines:
            lines.append("verdict pending (guard window open at end of "
                         "trace)")
        return lines


# --------------------------------------------------------------------- #
# rendering
# --------------------------------------------------------------------- #
def _candidate_table(e: TelemetryEvent) -> str:
    rows = []
    for pm, score, verdict in zip(e.cand_pms, e.cand_scores,
                                  e.cand_verdicts):
        rows.append([pm, float(score), verdict,
                     REASON_TEXT.get(verdict, verdict)])
    table = format_table(["PM", "score", "verdict", "why"], rows,
                         floatfmt=".6f")
    if e.dropped_candidates:
        table += (f"\n... {e.dropped_candidates} more candidate PM(s) "
                  f"omitted ({e.total_pms} total)")
    return table


def _render_placement(seq: int, e: PlacementDecided,
                      index: ProvenanceIndex) -> str:
    where = (f"-> PM {e.chosen_pm}" if e.chosen_pm >= 0
             else "-> NOWHERE (placement infeasible)")
    lines = [
        f"decision #{seq} [placement] t={e.time} id={e.decision_id}",
        f"  VM {e.vm_id} {where}  (placer={e.placer}, context={e.context})",
        f"  inputs: p_on={e.p_on:.6f} p_off={e.p_off:.6f}"
        + (f" table={e.table_fingerprint}" if e.table_fingerprint else "")
        + f" cache_hit={e.cache_hit} score_kind={e.score_kind}",
        _candidate_table(e),
    ]
    return "\n".join(lines)


def _render_migration(seq: int, e: MigrationDecided,
                      index: ProvenanceIndex) -> str:
    where = (f"-> PM {e.chosen_pm}" if e.chosen_pm >= 0
             else "-> NO TARGET")
    lines = [
        f"decision #{seq} [migration] t={e.time} id={e.decision_id}",
        f"  VM {e.vm_id} off PM {e.source_pm} {where}  "
        f"(policy={e.policy}, cause={e.cause})",
        _candidate_table(e),
        f"  outcome: {index.migration_outcome(e)}",
    ]
    return "\n".join(lines)


def _render_reconsolidation(seq: int, e: ReconsolidationDecided,
                            index: ProvenanceIndex) -> str:
    lines = [
        f"decision #{seq} [reconsolidation] t={e.time} id={e.decision_id}",
        f"  cause={e.cause} placer={e.placer}: planned {e.planned_moves} "
        f"move(s), executed {e.executed_moves}",
    ]
    if e.move_vms:
        rows = [[vm, src, dst] for vm, src, dst
                in zip(e.move_vms, e.move_sources, e.move_targets)]
        table = format_table(["VM", "from PM", "to PM"], rows)
        if e.dropped_moves:
            table += (f"\n... {e.dropped_moves} more executed move(s) "
                      f"omitted (see migration_completed events)")
        lines.append(table)
    return "\n".join(lines)


def _render_replan(seq: int, e: ReplanDecided,
                   index: ProvenanceIndex) -> str:
    alerts = ", ".join(e.active_alerts) if e.active_alerts else "none"
    drift_pms = (", ".join(str(p) for p in e.drift_pms)
                 if e.drift_pms else "none")
    lines = [
        f"decision #{seq} [autopilot replan] t={e.time} id={e.decision_id}",
        f"  cause={e.cause} refit={e.fingerprint}",
        f"  evidence: {e.drift_detections} new drift detection(s) "
        f"[PMs: {drift_pms}], alert streak {e.alert_streak} "
        f"[active: {alerts}]",
        f"  baseline CVR {e.baseline_cvr:.4f}, migration budget "
        f"{e.budget}, guard verdict due t={e.deadline}",
    ]
    lines.extend("  " + s for s in index.replan_outcome(e))
    return "\n".join(lines)


_RENDERERS = {
    PlacementDecided: _render_placement,
    MigrationDecided: _render_migration,
    ReconsolidationDecided: _render_reconsolidation,
    ReplanDecided: _render_replan,
}


def render_decision(seq: int, event: TelemetryEvent,
                    index: ProvenanceIndex) -> str:
    """Render one decision as the "why here, why not there" block."""
    return _RENDERERS[type(event)](seq, event, index)


def _overview(index: ProvenanceIndex, limit: int = 40) -> str:
    rows = []
    shown = index._enumerated()[:limit]
    for seq, e in shown:
        kind = e.kind.replace("_decided", "")
        subject = (f"vm {e.vm_id}" if hasattr(e, "vm_id")
                   else f"{getattr(e, 'cause', '')}")
        chosen = getattr(e, "chosen_pm", "")
        rows.append([seq, kind, int(e.time),
                     int(e.decision_id), subject, chosen])
    table = format_table(
        ["seq", "kind", "t", "id", "subject", "chosen"], rows,
        title=f"{len(index.decisions)} decision(s) in trace")
    if len(index.decisions) > limit:
        table += (f"\n... {len(index.decisions) - limit} more; filter "
                  f"with --vm/--pm/--tick/--decision")
    return table


def render_explanation(index: ProvenanceIndex, *,
                       vm: int | None = None, pm: int | None = None,
                       tick: int | None = None,
                       decision: int | None = None) -> str:
    """Answer one explain-query as deterministic plain text.

    Exactly the output of ``python -m repro explain``; with no filter an
    overview listing is rendered instead.  The text depends only on the
    event stream, so two replays of the same trace are byte-identical.
    """
    if vm is not None:
        matches = index.for_vm(vm)
        header = f"decisions concerning VM {vm}"
    elif pm is not None:
        matches = index.for_pm(pm)
        header = f"decisions involving PM {pm}"
    elif tick is not None:
        matches = index.at_tick(tick)
        header = f"decisions at t={tick}"
    elif decision is not None:
        matches = index.by_seq(decision) or index.by_id(decision)
        header = f"decision {decision}"
    else:
        return _overview(index)
    out = [f"{header}: {len(matches)} match(es)"]
    if index.skipped_lines:
        out.append(f"(note: {index.skipped_lines} malformed trace "
                   f"line(s) skipped)")
    for seq, e in matches:
        out.append("")
        out.append(render_decision(seq, e, index))
    return "\n".join(out)
