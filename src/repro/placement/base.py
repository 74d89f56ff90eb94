"""The placer interface shared by all consolidation strategies."""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.types import Placement, PMSpec, VMSpec
from repro.placement.spread import DomainSpreadConstraint
from repro.telemetry import (
    PRE_RUN,
    PlacementDecided,
    Telemetry,
    VMPlaced,
    resolve,
    timed,
)

logger = logging.getLogger(__name__)


#: per-candidate verdict strings shared by every decision producer.  These
#: are part of the JSONL trace format: ``repro explain`` renders them and
#: tests assert they never drift, so treat them as a wire protocol.
REASON_CHOSEN = "chosen"                 # the winning PM
REASON_FEASIBLE = "feasible"             # admissible, but another PM won
REASON_CAPACITY = "capacity"             # deterministic capacity exceeded
REASON_CVR_THRESHOLD = "cvr_threshold"   # Eq.(17) reservation / SBP overflow
REASON_VM_CAP = "vm_cap"                 # per-PM VM-count limit (mapping d)
REASON_SPREAD = "spread_constraint"      # DomainSpreadConstraint veto
REASON_CRASHED = "crashed_pm"            # PM excluded: crashed/unavailable
REASON_BLACKLISTED = "blacklisted_pm"    # PM excluded: migration blacklist
REASON_SOURCE = "source_pm"              # migration may not target its source
REASON_DRAINING = "draining_pm"          # PM excluded: draining for retire
REASON_FLEET_FULL = "fleet_full"         # no (active) PM passes Eq. (17)
REASON_SHED_INBOX = "shed_inbox_full"    # admission inbox at capacity
REASON_SHED_PRIORITY = "shed_priority"   # evicted for a higher-class arrival
REASON_SHED_SOLVER = "shed_solver_degraded"  # no usable mapping table

#: every verdict string a decision event may carry
PLACEMENT_REASONS = frozenset({
    REASON_CHOSEN, REASON_FEASIBLE, REASON_CAPACITY, REASON_CVR_THRESHOLD,
    REASON_VM_CAP, REASON_SPREAD, REASON_CRASHED, REASON_BLACKLISTED,
    REASON_SOURCE, REASON_DRAINING, REASON_FLEET_FULL, REASON_SHED_INBOX,
    REASON_SHED_PRIORITY, REASON_SHED_SOLVER,
})

#: the subset a load-shedding admission rejection may carry as its reason
SHED_REASONS = frozenset({
    REASON_FLEET_FULL, REASON_SHED_INBOX, REASON_SHED_PRIORITY,
    REASON_SHED_SOLVER,
})


def candidate_rows(chosen: int,
                   vetoes: Sequence[tuple[str, np.ndarray | None]],
                   scores: np.ndarray | Callable[[list[int]], Sequence[float]],
                   top_k: int = 8) -> dict:
    """The candidate rows a decision event keeps, built from veto masks.

    ``vetoes`` lists ``(reason, mask)`` pairs in precedence order: a PM's
    verdict is the reason of the first mask true at it (a ``None`` mask
    vetoes nothing), ``feasible`` if none is, and ``chosen`` for the winner
    (-1 for an infeasible decision).  At most ``top_k`` rows are kept: the
    winner, then the lowest-indexed feasible PMs, then the lowest-indexed
    rest, listed by PM index.  Verdicts and ``scores`` are read for those
    rows only; ``scores`` is every PM's score, or a callable that returns
    the scores of the kept PM indices (the fleet size then comes from the
    first mask).  Returns the ``cand_*``, ``dropped_candidates`` and
    ``total_pms`` fields of a decision event; the drop count makes
    truncation visible.
    """
    total = (next(len(mask) for _, mask in vetoes if mask is not None)
             if callable(scores) else len(scores))
    vetoed = np.zeros(total, dtype=bool)
    for _, mask in vetoes:
        if mask is not None:
            vetoed |= mask
    feasible = ~vetoed
    winner = []
    if chosen >= 0:
        feasible[chosen] = vetoed[chosen] = False
        winner = [chosen]
    keep = sorted((winner + np.flatnonzero(feasible)[:top_k].tolist()
                   + np.flatnonzero(vetoed)[:top_k].tolist())[:top_k])

    def verdict(pm: int) -> str:
        if pm == chosen:
            return REASON_CHOSEN
        for reason, mask in vetoes:
            if mask is not None and mask[pm]:
                return reason
        return REASON_FEASIBLE

    kept = scores(keep) if callable(scores) else [scores[pm] for pm in keep]
    return {"cand_pms": tuple(keep),
            "cand_scores": tuple(round(float(score), 6) for score in kept),
            "cand_verdicts": tuple(verdict(pm) for pm in keep),
            "dropped_candidates": total - len(keep),
            "total_pms": total}


class PlacementExplainer:
    """Per-pass collector turning candidate evaluations into decision events.

    :meth:`Placer.place_and_report` attaches one of these to the placer for
    the duration of the pass (only when an event-enabled telemetry context
    is resolved, so the zero-telemetry hot path never pays for it).
    :func:`first_fit` calls :meth:`record` once per VM with the veto masks
    and scores over every PM; the explainer keeps the ``top_k`` rows
    :func:`candidate_rows` picks, counts what it dropped — truncation is
    never silent — and emits one :class:`~repro.telemetry.PlacementDecided`.
    """

    def __init__(self, telemetry: Telemetry, placer_name: str, *,
                 top_k: int = 8, context: str = "batch"):
        self.telemetry = telemetry
        self.placer_name = placer_name
        self.top_k = top_k
        self.context = context
        # stamped on every subsequent record(); SBP sets each VM's own
        # switching probabilities before its record()
        self.p_on = 0.0
        self.p_off = 0.0
        self.table_fingerprint = ""
        self.cache_hit = False
        self.score_kind = "residual_capacity"

    def set_inputs(self, *, p_on: float | None = None,
                   p_off: float | None = None,
                   table_fingerprint: str | None = None,
                   cache_hit: bool | None = None,
                   score_kind: str | None = None) -> None:
        """Set the model inputs stamped on subsequent :meth:`record` calls."""
        if p_on is not None:
            self.p_on = float(p_on)
        if p_off is not None:
            self.p_off = float(p_off)
        if table_fingerprint is not None:
            self.table_fingerprint = table_fingerprint
        if cache_hit is not None:
            self.cache_hit = bool(cache_hit)
        if score_kind is not None:
            self.score_kind = score_kind

    def record(self, vm_id: int, chosen_pm: int,
               vetoes: Sequence[tuple[str, np.ndarray | None]],
               scores, *, time: int = PRE_RUN) -> None:
        """Emit the decision event for one VM.

        ``vetoes`` and ``scores`` cover *all* PMs, as
        :func:`candidate_rows` takes them; ``chosen_pm`` is -1 for an
        infeasible decision (recorded just before
        :class:`InsufficientCapacityError` is raised, so the trace explains
        failures too).
        """
        rows = candidate_rows(chosen_pm, vetoes, scores, self.top_k)
        if rows["dropped_candidates"]:
            self.telemetry.metrics.counter(
                "decisions_dropped_total",
                "candidate rows truncated from decision events",
            ).inc(rows["dropped_candidates"])
        self.telemetry.emit(PlacementDecided(
            time=time,
            decision_id=self.telemetry.next_decision_id(),
            vm_id=int(vm_id),
            placer=self.placer_name,
            chosen_pm=int(chosen_pm),
            context=self.context,
            p_on=self.p_on,
            p_off=self.p_off,
            table_fingerprint=self.table_fingerprint,
            cache_hit=self.cache_hit,
            score_kind=self.score_kind,
            **rows,
        ))


class InsufficientCapacityError(RuntimeError):
    """Raised when a placer cannot fit every VM onto the available PMs."""

    def __init__(self, vm_index: int, message: str | None = None):
        self.vm_index = vm_index
        message = (
            message or f"no PM can accommodate VM {vm_index}; add PMs or capacity"
        )
        logger.warning("placement infeasible: %s", message)
        super().__init__(message)


class AdmissionRejectedError(InsufficientCapacityError):
    """A typed, actionable online-admission rejection.

    Raised instead of a bare :class:`InsufficientCapacityError` by the
    online admission path (:meth:`repro.core.online.OnlineConsolidator.admit`
    and the placement service): carries a stable ``reason`` drawn from
    :data:`PLACEMENT_REASONS` plus a ``headroom`` summary of the fleet at
    rejection time, so the caller (and the operator reading the log line)
    knows *why* the VM was turned away and what it would take to admit it.

    Attributes
    ----------
    reason:
        One of the :data:`PLACEMENT_REASONS` strings (typically a member
        of :data:`SHED_REASONS`).
    headroom:
        Fleet headroom summary dict — e.g. active/eligible PM counts, free
        VM slots, the largest single-PM headroom, and how many PMs each
        veto layer blocked (see
        :meth:`repro.core.online.OnlineConsolidator.fleet_headroom`).
    """

    def __init__(self, vm_index: int, reason: str,
                 headroom: dict | None = None,
                 message: str | None = None):
        self.reason = str(reason)
        self.headroom = dict(headroom) if headroom else {}
        if message is None:
            bits = ", ".join(f"{k}={v:g}" if isinstance(v, float)
                             else f"{k}={v}"
                             for k, v in sorted(self.headroom.items()))
            message = (f"admission rejected ({self.reason})"
                       + (f": {bits}" if bits else ""))
        super().__init__(vm_index, message)


class Placer(ABC):
    """A consolidation strategy mapping VMs onto PMs.

    Implementations must place *every* VM or raise
    :class:`InsufficientCapacityError`; partial placements are never
    returned.  Placers are stateless with respect to problem instances and
    may be reused.
    """

    #: short identifier used in experiment tables (e.g. "QUEUE", "RP", "RB")
    name: str = "placer"

    #: provenance hook; :meth:`place_and_report` installs a
    #: :class:`PlacementExplainer` here for the duration of an instrumented
    #: pass.  ``None`` means "don't compute per-candidate verdicts".
    explainer: PlacementExplainer | None = None

    @abstractmethod
    def place(self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]) -> Placement:
        """Compute a complete VM -> PM assignment.

        Parameters
        ----------
        vms:
            VM specifications, indexed 0..n-1.
        pms:
            PM specifications, indexed 0..m-1.

        Returns
        -------
        Placement
            Assignment with every VM placed.

        Raises
        ------
        InsufficientCapacityError
            If some VM fits on no PM under the strategy's constraint.
        """

    def place_and_report(self, vms: Sequence[VMSpec], pms: Sequence[PMSpec],
                         *, telemetry: Telemetry | None = None) -> Placement:
        """Instrumented :meth:`place`: span-timed, events and metrics.

        Behaviorally identical to :meth:`place`; additionally the packing
        pass runs under a ``place.<name>`` profiling span, and when a
        telemetry context is resolved the result is published — one
        :class:`~repro.telemetry.VMPlaced` event per VM (stamped
        :data:`~repro.telemetry.PRE_RUN` since placement precedes the
        clock) plus footprint metrics.
        """
        tel = resolve(telemetry)
        if tel is not None and tel.events.enabled:
            self.explainer = PlacementExplainer(tel, self.name)
        try:
            with timed(f"place.{self.name}"):
                placement = self.place(vms, pms)
        finally:
            self.explainer = None
        if tel is not None:
            tel.metrics.counter(
                "placements_total", "consolidation passes executed").inc()
            tel.metrics.gauge(
                "placement_pms_used", "PMs used by the last placement"
            ).set(placement.n_used_pms)
            if tel.events.enabled:
                for vm_id, pm_id in placement:
                    tel.emit(VMPlaced(time=PRE_RUN, vm_id=int(vm_id),
                                      pm_id=int(pm_id), placer=self.name))
        return placement

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


def first_fit(placer: Placer, vms: Sequence, n_pms: int, order: Iterable[int],
              state, *, spread: DomainSpreadConstraint | None = None,
              choose_for: Callable[[int], Callable[[list[int]], int]]
              | None = None) -> Placement:
    """Algorithm 2's placement loop, the one every batch placer runs.

    ``state`` is the placer's per-PM bookkeeping: ``checks(i, vm, lo, hi)``
    returns ``(reason, pass mask)`` pairs over PMs ``[lo, hi)`` in its
    verdict precedence, ``scores(i, vm, rows)`` the explained scores of
    the PMs ``rows`` (the kept candidate rows) and ``add(pm, i, vm)`` hosts
    the VM.  VMs go in ``order``, each to the lowest-indexed PM that passes
    every check and, with ``spread``, lies in a fault domain below its cap,
    or to ``choose_for(i)``'s pick from every such PM (GRAND).  The PMs
    that host a VM are scanned before the empty tail; the checks are
    elementwise, so the hit is a full scan's, which an explained pass
    makes once for the pick and the record (the spread veto last).  The
    failing decision is recorded too, then
    :class:`InsufficientCapacityError` is raised.
    """
    placement = Placement(len(vms), n_pms)
    explainer = placer.explainer
    domains = None
    if spread is not None:
        spread.check_n_pms(n_pms)
        domains = spread.new_counts()
    opened = 0  # one past the highest PM that hosts a VM
    for i in order:
        i = int(i)
        vm = vms[i]
        allowed = None if spread is None else spread.allowed_pms(domains)
        pm = -1
        if explainer is None and choose_for is None:
            for lo, hi in ((0, opened), (opened, n_pms)):
                if hi > lo:
                    hit = np.flatnonzero(_passing(
                        state.checks(i, vm, lo, hi), allowed, lo, hi))
                    if hit.size:
                        pm = lo + int(hit[0])
                        break
        else:
            checks = state.checks(i, vm, 0, n_pms)
            passing = np.flatnonzero(_passing(checks, allowed, 0, n_pms))
            if passing.size:
                pm = (int(passing[0]) if choose_for is None
                      else choose_for(i)(passing.tolist()))
            if explainer is not None:
                explainer.record(
                    i, pm, [(reason, ~ok) for reason, ok in checks]
                    + [(REASON_SPREAD, None if allowed is None else ~allowed)],
                    lambda rows: state.scores(i, vm, rows))
        if pm < 0:
            raise InsufficientCapacityError(i)
        state.add(pm, i, vm)
        if spread is not None:
            spread.admit(pm, domains)
        placement.place(i, pm)
        opened = max(opened, pm + 1)
    return placement


def _passing(checks: list[tuple[str, np.ndarray]],
             allowed: np.ndarray | None, lo: int, hi: int) -> np.ndarray:
    """Mask of the PMs in ``[lo, hi)`` that pass every check."""
    ok = None
    for _, mask in checks:
        ok = mask if ok is None else ok & mask
    return ok if allowed is None else ok & allowed[lo:hi]
