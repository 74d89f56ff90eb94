"""The dynamic scheduler: overflow-triggered live migration.

Each interval, after the workload evolves and local resizing tracks demand,
the scheduler scans for overloaded PMs.  For each, it evicts VMs (policy:
which VM, which target) until the PM fits again or no target exists.  This
is the runtime loop the paper integrates into its XCP testbed (Section V-D);
here it runs against the simulated datacenter.

:func:`run_simulation` wires datacenter + scheduler + monitor onto the
engine and returns a :class:`SimulationResult` with the Fig. 9/10 metrics.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.types import Placement, PMSpec, VMSpec
from repro.simulation.datacenter import Datacenter
from repro.simulation.engine import SimulationEngine
from repro.placement.base import candidate_rows
from repro.simulation.migration import (
    MigrationEvent,
    MigrationExecutor,
    MigrationPolicy,
    RetryPolicy,
    StandardPolicy,
)
from repro.simulation.monitor import Monitor, RunRecord
from repro.simulation.triggers import MigrationTrigger, OverflowTrigger
from repro.telemetry import MigrationDecided, Telemetry, resolve, timed
from repro.utils.rng import SeedLike
from repro.utils.validation import check_integer

logger = logging.getLogger(__name__)


class DynamicScheduler:
    """Reacts to capacity overflow with live migrations.

    Parameters
    ----------
    dc:
        The datacenter to manage.
    policy:
        VM- and target-selection policy bundle; defaults to the
        burstiness-unaware :class:`~repro.simulation.migration.StandardPolicy`
        (largest-demand VM, least-observed-load target), which is what the
        paper's testbed scheduler amounts to.
    trigger:
        When an overloaded PM is acted upon; defaults to
        :class:`~repro.simulation.triggers.OverflowTrigger` (every overflow).
        Pass a :class:`~repro.simulation.triggers.SlidingWindowCVRTrigger`
        for the paper's rho-tolerant semantics.
    max_migrations_per_interval:
        Safety valve against pathological thrash within one interval.
    excluded_pms_fn:
        Optional callable returning a boolean PM mask of hosts that must
        never be targeted (typically a failure injector's ``failed`` mask).
        Without it the scheduler is failure-blind and can live-migrate a VM
        onto a crashed PM.
    migration_failure_probability:
        Per-attempt probability a migration fails mid-flight (the VM stays
        on its source; see :class:`~repro.simulation.migration.MigrationExecutor`).
    retry_policy:
        Backoff/blacklist parameters for failed migrations.
    seed:
        RNG seed for the mid-flight failure draws (unused when the failure
        probability is zero, so legacy streams are unchanged).
    """

    def __init__(self, dc: Datacenter, policy: MigrationPolicy | None = None,
                 *, trigger: MigrationTrigger | None = None,
                 max_migrations_per_interval: int = 1000,
                 excluded_pms_fn: Callable[[], np.ndarray] | None = None,
                 migration_failure_probability: float = 0.0,
                 retry_policy: RetryPolicy | None = None,
                 seed: SeedLike = None,
                 telemetry: Telemetry | None = None):
        self.dc = dc
        self.policy: MigrationPolicy = policy if policy is not None else StandardPolicy()
        self.trigger: MigrationTrigger = trigger if trigger is not None else OverflowTrigger()
        self.max_migrations_per_interval = check_integer(
            max_migrations_per_interval, "max_migrations_per_interval", minimum=1
        )
        self.excluded_pms_fn = excluded_pms_fn
        self.telemetry = resolve(telemetry)
        self.executor = MigrationExecutor(
            dc, failure_probability=migration_failure_probability,
            retry=retry_policy, seed=seed, telemetry=self.telemetry,
        )
        if self.telemetry is not None:
            self._m_unresolved = self.telemetry.metrics.counter(
                "overloads_unresolved_total",
                "overloaded PMs left violated (no feasible target)")
        self.failed_attempts_last_interval = 0
        # Provenance decision ids.  Advanced at every decision point whether
        # or not telemetry is attached, so captured state is identical for
        # traced and untraced runs, and checkpointed so a split run's event
        # stream stays byte-identical to a straight one.
        self._decision_seq = 0

    def next_decision_id(self) -> int:
        """Allocate the next in-run decision id (monotonic, checkpointed)."""
        did = self._decision_seq
        self._decision_seq += 1
        return did

    def _excluded_mask(self, time: int) -> np.ndarray | None:
        """Combined veto mask: crashed PMs plus blacklisted flappers."""
        excluded = (np.asarray(self.excluded_pms_fn(), dtype=bool)
                    if self.excluded_pms_fn is not None else None)
        blacklisted = self.executor.blacklisted_mask(time)
        if excluded is None:
            return blacklisted
        if blacklisted is None:
            return excluded
        return excluded | blacklisted

    def resolve_overloads(self, time: int) -> list[MigrationEvent]:
        """Migrate VMs off overloaded PMs; returns the events performed.

        A PM that stays overloaded because no target fits is left violated
        for this interval (counted by the monitor), matching the paper's
        tolerance of transient violations.  VMs whose last migration failed
        are skipped while in backoff; a failed attempt consumes budget and
        ends work on that PM for the interval (the VM just entered backoff).
        """
        with timed("scheduler.resolve_overloads"):
            return self._resolve(time)

    def _resolve(self, time: int) -> list[MigrationEvent]:
        events: list[MigrationEvent] = []
        budget = self.max_migrations_per_interval
        self.failed_attempts_last_interval = 0
        dc = self.dc
        self.trigger.observe(dc, time)
        overloaded = [
            int(pm) for pm in dc.overloaded_pms()
            if self.trigger.should_migrate(int(pm))
        ]
        caps = dc.pm_capacities()
        for pm_id in overloaded:
            # Evict until this PM fits or we cannot improve it.  The test
            # reads the same loads overloaded_pms() does.
            while budget > 0 and dc.pm_loads()[pm_id] > caps[pm_id] + 1e-9:
                if dc.hosted_counts()[pm_id] <= 1:
                    break  # a lone VM that exceeds capacity has nowhere better
                vm_id = self.policy.pick_vm(dc, pm_id)
                if self.executor.in_backoff(vm_id, time):
                    break  # cooling down after a failed flight
                target = self.policy.pick_target(
                    dc, vm_id, pm_id, excluded=self._excluded_mask(time)
                )
                decision_id = self.next_decision_id()
                tel = self.telemetry
                if tel is not None and tel.events.enabled:
                    self._emit_decision(decision_id, time, vm_id, pm_id,
                                        target)
                if target is None:
                    # fits nowhere; tolerate the violation this interval
                    logger.debug(
                        "overloaded PM %d left violated at interval %d: "
                        "VM %d fits on no target", pm_id, time, vm_id,
                    )
                    if self.telemetry is not None:
                        self._m_unresolved.inc()
                    break
                if self.executor.attempt(vm_id, target, time):
                    events.append(MigrationEvent(time=time, vm_id=vm_id,
                                                 source_pm=pm_id, target_pm=target))
                    budget -= 1
                else:
                    self.failed_attempts_last_interval += 1
                    budget -= 1
                    break  # the picked VM is now in backoff
            if budget == 0:
                break
        return events

    def _emit_decision(self, decision_id: int, time: int, vm_id: int,
                       source_pm: int, target: int | None) -> None:
        """Record one target choice (or the lack of one) as provenance.

        Only called under an event-enabled telemetry context, so the
        zero-telemetry scheduler loop never builds the candidate arrays.
        """
        tel = self.telemetry
        dc = self.dc
        crashed = (np.asarray(self.excluded_pms_fn(), dtype=bool)
                   if self.excluded_pms_fn is not None else None)
        vetoes = self.policy.target_vetoes(
            dc, vm_id, source_pm, crashed=crashed,
            blacklisted=self.executor.blacklisted_mask(time))
        residual = dc.pm_capacities() - dc.pm_loads() - dc.vm_demands()[vm_id]
        chosen = -1 if target is None else int(target)
        rows = candidate_rows(chosen, vetoes, residual)
        if rows["dropped_candidates"]:
            tel.metrics.counter(
                "decisions_dropped_total",
                "candidate rows truncated from decision events",
            ).inc(rows["dropped_candidates"])
        tel.emit(MigrationDecided(
            time=time,
            decision_id=decision_id,
            vm_id=int(vm_id),
            source_pm=int(source_pm),
            chosen_pm=chosen,
            policy=getattr(self.policy, "name", type(self.policy).__name__),
            **rows,
        ))

    # ------------------------------------------------------------------ #
    # checkpoint support
    # ------------------------------------------------------------------ #
    def capture_state(self) -> dict:
        """JSON-safe snapshot: executor state plus the trigger's window.

        A custom trigger without ``capture_state`` is recorded as ``None``
        and silently skipped on restore; the checkpoint layer flags such
        runs as non-portable.
        """
        trigger = (self.trigger.capture_state()
                   if hasattr(self.trigger, "capture_state") else None)
        return {
            "executor": self.executor.capture_state(),
            "trigger": trigger,
            "failed_attempts_last_interval":
                self.failed_attempts_last_interval,
            "decision_seq": self._decision_seq,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from a :meth:`capture_state` snapshot."""
        self.executor.restore_state(state["executor"])
        if state["trigger"] is not None and hasattr(self.trigger,
                                                    "restore_state"):
            self.trigger.restore_state(state["trigger"])
        self.failed_attempts_last_interval = int(
            state["failed_attempts_last_interval"])
        self._decision_seq = int(state.get("decision_seq", 0))


@dataclass
class SimulationResult:
    """Everything a Fig. 9/10 experiment needs from one run."""

    record: RunRecord
    initial_pms_used: int

    @property
    def total_migrations(self) -> int:
        """Total live migrations over the evaluation period."""
        return self.record.total_migrations

    @property
    def final_pms_used(self) -> int:
        """PMs powered on at the end of the evaluation period."""
        return self.record.final_pms_used


def run_simulation(
    vms: Sequence[VMSpec],
    pms: Sequence[PMSpec],
    placement: Placement,
    *,
    n_intervals: int = 100,
    policy: MigrationPolicy | None = None,
    trigger: MigrationTrigger | None = None,
    seed: SeedLike = None,
    start_stationary: bool = False,
) -> SimulationResult:
    """Simulate a placed fleet under the dynamic scheduler.

    Per interval: (1) workloads evolve one ON-OFF step, (2) the scheduler
    resolves overloads via migration, (3) the monitor records the end-state.
    The paper's setting is ``n_intervals = 100`` (100 sigma).

    Returns
    -------
    SimulationResult
        Migration events, PM-usage series and CVR statistics.
    """
    n_intervals = check_integer(n_intervals, "n_intervals", minimum=1)
    dc = Datacenter(vms, pms, placement, seed=seed,
                    start_stationary=start_stationary)
    scheduler = DynamicScheduler(dc, policy, trigger=trigger)
    monitor = Monitor(dc.n_pms, n_vms=dc.n_vms)
    engine = SimulationEngine()

    def tick(time: int) -> None:
        dc.step()
        events = scheduler.resolve_overloads(time)
        monitor.record_interval(dc, events)

    engine.add_hook("tick", tick)
    initial_used = dc.used_pm_count()
    engine.run(n_intervals)
    return SimulationResult(record=monitor.finalize(), initial_pms_used=initial_used)
