"""Periodic and on-demand re-consolidation at runtime.

The paper consolidates once and then reacts with migrations.  A natural
operational extension is to *re-run* the consolidation every ``period``
intervals and migrate the diff: drift accumulated by reactive migrations is
squeezed back out, at the price of a burst of planned migrations.

:class:`ReconsolidationScheduler` wraps the reactive scheduler; every
``period`` intervals it recomputes a QueuingFFD placement for the current
fleet and executes the moves whose source and target differ.  The
``max_planned_moves`` knob caps each burst so planned churn stays bounded
(moves are executed in decreasing demand-relief order).

Besides the periodic cadence, a replan can be *requested* for the next
interval via :meth:`ReconsolidationScheduler.request_replan`, optionally
with refitted planning specs and a one-shot move budget — the hook the
autopilot (:mod:`repro.autopilot`) uses to trigger incremental
reconsolidation after a refit.  Requests are part of the captured state, so
a checkpoint taken between request and execution replays identically.

A replan's target placement is a pure function of the planning specs and
the PM specs (the placer and its settings are fixed for the scheduler's
life), and between periodic replans neither changes.  The scheduler
therefore keeps one memo slot, (planning specs, PM specs) -> target
assignment, and a replan whose specs equal the last one's only computes the
move diff against the live placement.  The key holds the exact frozen spec
tuples, compared by equality rather than by a hash; an infeasible plan is
remembered as "no moves".  A requested replan with refitted specs misses
and recomputes.  The memo is derived state: it is not checkpointed, and a
restored run recomputes on its first replan.

A planned move whose target PM is down (the scheduler's crash mask,
``excluded_pms_fn``) is deferred rather than executed: it counts in the
replan's ``planned_moves`` but not in its ``executed_moves``, and the next
replan plans it again.  The target itself never depends on the crash mask,
so the memo stays a function of the specs alone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import VMSpec
from repro.placement.base import InsufficientCapacityError
from repro.simulation.datacenter import Datacenter
from repro.simulation.migration import MigrationEvent, MigrationPolicy
from repro.simulation.scheduler import DynamicScheduler
from repro.telemetry import (
    MigrationCompleted,
    ReconsolidationDecided,
    ReconsolidationTriggered,
    timed,
)
from repro.utils.validation import check_integer


class ReconsolidationScheduler(DynamicScheduler):
    """Reactive scheduler plus periodic/on-demand global re-consolidation.

    Parameters
    ----------
    dc:
        The datacenter.
    placer:
        Consolidation algorithm used for each re-plan (defaults to the
        paper's QueuingFFD with its defaults).
    period:
        Re-plan every this many intervals (first re-plan at ``t = period``).
    max_planned_moves:
        Per-re-plan cap on executed moves.
    policy, **scheduler_kwargs:
        Passed through to the reactive layer (trigger, retry policy,
        migration failure probability, telemetry, ...).
    """

    def __init__(self, dc: Datacenter, *, placer: QueuingFFD | None = None,
                 period: int = 50, max_planned_moves: int = 10**9,
                 policy: MigrationPolicy | None = None,
                 **scheduler_kwargs):
        super().__init__(dc, policy, **scheduler_kwargs)
        self.placer = placer if placer is not None else QueuingFFD()
        self.period = check_integer(period, "period", minimum=1)
        self.max_planned_moves = check_integer(
            max_planned_moves, "max_planned_moves", minimum=0
        )
        self.planned_migrations = 0
        #: pending on-demand replan ({"vms": ..., "max_moves": ...}) or None
        self._pending_request: dict | None = None
        #: (planning specs, PM specs, target, -R_b) of the last replan --
        #: derived state, never checkpointed
        self._memo: tuple | None = None

    def request_replan(self, *, vms: Sequence[VMSpec] | None = None,
                       max_moves: int | None = None) -> None:
        """Schedule a one-shot replan for the next interval.

        ``vms``, when given, are the *planning* specs (e.g. a refitted
        fleet) — the datacenter's actual specs are untouched.  ``max_moves``
        overrides ``max_planned_moves`` for this replan only (the
        autopilot's migration budget).  A second request before the first
        executes replaces it.
        """
        if vms is not None and len(vms) != self.dc.n_vms:
            raise ValueError(
                f"replan request has {len(vms)} planning specs but the "
                f"fleet has {self.dc.n_vms} VMs"
            )
        if max_moves is not None:
            check_integer(max_moves, "max_moves", minimum=0)
        self._pending_request = {
            "vms": (None if vms is None else
                    [[v.p_on, v.p_off, v.r_base, v.r_extra] for v in vms]),
            "max_moves": max_moves,
        }

    @property
    def has_pending_replan(self) -> bool:
        """Whether an on-demand replan is queued for the next interval."""
        return self._pending_request is not None

    #: move rows kept verbatim in each ``ReconsolidationDecided`` event
    #: (the rest are counted in ``dropped_moves``; executed moves also
    #: appear individually as ``MigrationCompleted`` events)
    MOVES_IN_EVENT = 16

    def replan_now(self, time: int, *,
                   vms: Sequence[VMSpec] | None = None,
                   max_moves: int | None = None,
                   cause: str = "periodic") -> list[MigrationEvent]:
        """Re-place the fleet and execute the placement diff immediately.

        An infeasible plan (the placer cannot fit the planning specs) is a
        zero-move replan, not an error: the incumbent placement stands.
        Moves onto a PM in the crash mask (``excluded_pms_fn``) are planned
        but not executed; the cap applies to the moves that remain.
        ``cause`` labels the provenance event ("periodic", "requested", or
        a caller-supplied reason).
        """
        planning = (tuple(vms) if vms is not None
                    else tuple(v.spec for v in self.dc.vms))
        cap = self.max_planned_moves if max_moves is None else max_moves
        with timed("reconsolidation.replan"):
            target, neg_r_base = self._target(planning)
        if target is None:
            moves = np.zeros(0, dtype=np.int64)
        else:
            moves = np.flatnonzero(target != self.dc.placement.assignment)
            # Execute biggest base-demand movers first — they relieve the
            # most committed capacity if the burst is capped.  The stable
            # sort keeps VM-id order among equal R_b.
            moves = moves[np.argsort(neg_r_base[moves], kind="stable")]
        runnable = moves
        if self.excluded_pms_fn is not None and moves.size:
            # A move onto a crashed PM waits for a later replan.
            down = np.asarray(self.excluded_pms_fn(), dtype=bool)
            runnable = moves[~down[target[moves]]]
        events = []
        tel = self.telemetry
        traced = tel is not None and tel.events.enabled
        for vm_id in runnable[:cap].tolist():
            target_pm = int(target[vm_id])
            src = self.dc.migrate(vm_id, target_pm)
            events.append(MigrationEvent(time=time, vm_id=vm_id,
                                         source_pm=src, target_pm=target_pm))
            if traced:
                tel.emit(MigrationCompleted(time=time, vm_id=vm_id,
                                            source_pm=src, target_pm=target_pm))
        self.planned_migrations += len(events)
        decision_id = self.next_decision_id()
        if traced:
            kept = events[:self.MOVES_IN_EVENT]
            dropped = len(events) - len(kept)
            if dropped:
                tel.metrics.counter(
                    "decisions_dropped_total",
                    "candidate rows truncated from decision events",
                ).inc(dropped)
            tel.emit(ReconsolidationDecided(
                time=time,
                decision_id=decision_id,
                cause=cause,
                placer=self.placer.name,
                planned_moves=len(moves),
                executed_moves=len(events),
                move_vms=tuple(e.vm_id for e in kept),
                move_sources=tuple(e.source_pm for e in kept),
                move_targets=tuple(e.target_pm for e in kept),
                dropped_moves=int(dropped),
            ))
            tel.emit(ReconsolidationTriggered(time=time,
                                              planned_moves=len(moves),
                                              executed_moves=len(events)))
        return events

    def _target(self, planning: tuple[VMSpec, ...]
                ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The placer's assignment for ``planning`` and each VM's ``-R_b``.

        Memoized in one slot keyed on the exact spec tuples, compared by
        equality: periodic replans pass the same spec objects every time,
        so a hit costs one identity check per spec.  ``(None, None)``
        stands for an infeasible plan.
        """
        pms = tuple(p.spec for p in self.dc.pms)
        memo = self._memo
        if memo is not None and memo[0] == planning and memo[1] == pms:
            return memo[2], memo[3]
        try:
            target = self.placer.place(planning, pms).assignment
        except InsufficientCapacityError:
            target = neg_r_base = None
        else:
            target.setflags(write=False)
            neg_r_base = -np.array([v.r_base for v in planning], dtype=float)
        self._memo = (planning, pms, target, neg_r_base)
        return target, neg_r_base

    def _consume_request(self, time: int) -> list[MigrationEvent]:
        request, self._pending_request = self._pending_request, None
        vms = request["vms"]
        specs = None if vms is None else [VMSpec(*row) for row in vms]
        return self.replan_now(time, vms=specs,
                               max_moves=request["max_moves"],
                               cause="requested")

    def resolve_overloads(self, time: int) -> list[MigrationEvent]:
        """Reactive resolution, plus global re-plans.

        An on-demand request takes precedence over (and replaces) a
        periodic replan landing on the same interval.
        """
        events: list[MigrationEvent] = []
        if self._pending_request is not None:
            events.extend(self._consume_request(time))
        elif time > 0 and time % self.period == 0:
            events.extend(self.replan_now(time))
        events.extend(super().resolve_overloads(time))
        return events

    def reactive_migrations(self, total: int) -> int:
        """Split helper: reactive = total - planned."""
        return total - self.planned_migrations

    def capture_state(self) -> dict:
        """Reactive-layer state plus the replan counters and pending request."""
        state = super().capture_state()
        state["planned_migrations"] = self.planned_migrations
        state["pending_request"] = (
            None if self._pending_request is None
            else dict(self._pending_request)
        )
        return state

    def restore_state(self, state: dict) -> None:
        """Restore the reactive layer and the replan bookkeeping."""
        super().restore_state(state)
        self.planned_migrations = int(state.get("planned_migrations", 0))
        pending = state.get("pending_request")
        self._pending_request = None if pending is None else dict(pending)
