"""Live-migration policies and cost model.

When a PM's aggregate demand exceeds its capacity (local resizing cannot
absorb the spike), the dynamic scheduler must (1) pick a VM to evict and
(2) pick a target PM.  The paper's observations — *idle deception* (a busy PM
looks idle because its VMs are momentarily OFF) and the resulting *cycle
migration* — are consequences of target selection based on **observed** load.
The policies here make that explicit:

- :func:`select_target_least_loaded` — the burstiness-*unaware* policy the
  paper's testbed effectively uses: prefer the used PM with the lowest
  observed load that can currently fit the VM; power on an idle PM only as a
  last resort (to save energy).  Under dense RB packing this falls for idle
  deception and produces cycle migration.
- :func:`select_target_reservation_aware` — a burstiness-aware variant that
  admits by base demand plus the target's reservation commitment (Eq. 17
  style); included for the ablation on scheduler awareness.

Each migration carries a cost: the moved VM's demand is charged on *both*
PMs for ``overhead_intervals`` intervals (the paper: "significant downtime
... also incurs noticeable CPU usage on the host PM"); the monitor counts
events regardless.

All target selectors accept an optional ``excluded`` PM mask so callers can
veto crashed or blacklisted hosts — the scheduler threads the failure
injector's mask through here, which is what keeps live migration from
targeting a dead PM.  :class:`MigrationExecutor` adds mid-flight failure
semantics: a migration attempt can fail with configurable probability, the
moved VM then backs off exponentially (capped) before retrying, and targets
that repeatedly fail are temporarily blacklisted (flap suppression).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Protocol

import numpy as np

from repro.placement.base import (
    REASON_BLACKLISTED,
    REASON_CAPACITY,
    REASON_CRASHED,
    REASON_CVR_THRESHOLD,
    REASON_SOURCE,
)
from repro.simulation.datacenter import Datacenter
from repro.telemetry import (
    MigrationCompleted,
    MigrationFailed,
    MigrationStarted,
    TargetBlacklisted,
    Telemetry,
    resolve,
    timed,
)
from repro.utils.rng import (
    SeedLike,
    as_generator,
    capture_rng_state,
    restore_rng_state,
)
from repro.utils.validation import check_integer, check_probability

logger = logging.getLogger(__name__)

_EPS = 1e-9

#: capacity share :func:`select_target_reservation_aware` keeps clear of
#: aggregate base load by default
HEADROOM_FRACTION = 0.3


class MigrationEvent(NamedTuple):
    """One live migration: which VM moved where and when.

    A tuple of four ints, so the monitor keeps the events it records as
    the rows of its migration history as they are.
    """

    time: int
    vm_id: int
    source_pm: int
    target_pm: int


class MigrationPolicy(Protocol):
    """Callable bundle the scheduler needs: VM picker and target picker."""

    def pick_vm(self, dc: Datacenter, pm_id: int) -> int: ...

    def pick_target(self, dc: Datacenter, vm_id: int, source_pm: int,
                    excluded: Optional[np.ndarray] = None) -> Optional[int]: ...

    def target_vetoes(self, dc: Datacenter, vm_id: int, source_pm: int,
                      crashed: Optional[np.ndarray] = None,
                      blacklisted: Optional[np.ndarray] = None,
                      ) -> list[tuple[str, Optional[np.ndarray]]]: ...


# --------------------------------------------------------------------- #
# VM selection
# --------------------------------------------------------------------- #
def select_vm_largest_demand(dc: Datacenter, pm_id: int) -> int:
    """Evict the hosted VM with the largest current demand.

    Moving the biggest contributor relieves the overflow fastest and is the
    natural choice when the spike itself caused the overflow.
    """
    vm_ids = dc.placement.vms_on(pm_id)
    if not vm_ids.size:
        raise ValueError(f"PM {pm_id} hosts no VMs")
    # ids ascend, so argmax's first maximum breaks ties to the lowest id
    return int(vm_ids[np.argmax(dc.vm_demands()[vm_ids])])


# --------------------------------------------------------------------- #
# target selection
# --------------------------------------------------------------------- #
def _feasible_mask(dc: Datacenter, vm_id: int, source_pm: int,
                   excluded: Optional[np.ndarray] = None) -> np.ndarray:
    """PMs (other than the source) that can fit the VM's current demand.

    ``excluded`` is an optional boolean veto mask (crashed or blacklisted
    PMs) applied on top of the capacity check.
    """
    loads = dc.pm_loads()
    caps = dc.pm_capacities()
    demand = dc.vm_demands()[vm_id]
    ok = loads + demand <= caps + _EPS
    ok[source_pm] = False
    if excluded is not None:
        ok &= ~np.asarray(excluded, dtype=bool)
    return ok


def select_target_least_loaded(dc: Datacenter, vm_id: int,
                               source_pm: int,
                               excluded: Optional[np.ndarray] = None,
                               ) -> Optional[int]:
    """Burstiness-unaware target choice (observed load; idle-deception prone).

    Prefers the *used* PM with the lowest observed load that fits the VM now;
    powers on an idle PM only if no used PM fits.  Returns None when nothing
    fits anywhere.
    """
    ok = _feasible_mask(dc, vm_id, source_pm, excluded)
    loads = dc.pm_loads()
    used = dc.pm_used_mask()
    used_candidates = np.flatnonzero(ok & used)
    if used_candidates.size:
        return int(used_candidates[np.argmin(loads[used_candidates])])
    idle_candidates = np.flatnonzero(ok & ~used)
    if idle_candidates.size:
        return int(idle_candidates[0])
    return None


def select_target_reservation_aware(
    dc: Datacenter, vm_id: int, source_pm: int,
    excluded: Optional[np.ndarray] = None, *,
    headroom_fraction: float = HEADROOM_FRACTION,
) -> Optional[int]:
    """Burstiness-aware target choice for the scheduler-awareness ablation.

    Admits by *base* load plus a headroom margin: the target must fit the
    VM's base demand while keeping ``headroom_fraction`` of its capacity
    clear of aggregate base load.  This resists idle deception (base load
    does not fluctuate with spikes) at the price of opening idle PMs sooner.
    """
    base_loads = dc.pm_base_loads()
    caps = dc.pm_capacities()
    demand_now = dc.vm_demands()[vm_id]
    base_vm = dc.vm_specs[vm_id].r_base
    loads = dc.pm_loads()
    ok = (
        (base_loads + base_vm <= caps * (1.0 - headroom_fraction) + _EPS)
        & (loads + demand_now <= caps + _EPS)
    )
    ok[source_pm] = False
    if excluded is not None:
        ok &= ~np.asarray(excluded, dtype=bool)
    used = dc.pm_used_mask()
    used_candidates = np.flatnonzero(ok & used)
    if used_candidates.size:
        return int(used_candidates[np.argmin(base_loads[used_candidates])])
    idle_candidates = np.flatnonzero(ok & ~used)
    if idle_candidates.size:
        return int(idle_candidates[0])
    return None


@dataclass
class StandardPolicy:
    """Default policy bundle: configurable VM picker + target picker."""

    pick_vm_fn: Callable[[Datacenter, int], int] = select_vm_largest_demand
    pick_target_fn: Callable[[Datacenter, int, int], Optional[int]] = (
        select_target_least_loaded
    )

    def pick_vm(self, dc: Datacenter, pm_id: int) -> int:
        """Choose which VM to evict from the overloaded PM."""
        return self.pick_vm_fn(dc, pm_id)

    def pick_target(self, dc: Datacenter, vm_id: int, source_pm: int,
                    excluded: Optional[np.ndarray] = None) -> Optional[int]:
        """Choose the destination PM (None if the VM fits nowhere).

        ``excluded`` is forwarded only when set, so legacy two-argument
        target functions keep working.
        """
        if excluded is None:
            return self.pick_target_fn(dc, vm_id, source_pm)
        return self.pick_target_fn(dc, vm_id, source_pm, excluded)

    def target_vetoes(self, dc: Datacenter, vm_id: int, source_pm: int,
                      crashed: Optional[np.ndarray] = None,
                      blacklisted: Optional[np.ndarray] = None,
                      ) -> list[tuple[str, Optional[np.ndarray]]]:
        """The vetoes :meth:`pick_target` applies, as the ``(reason, veto
        mask)`` pairs of :func:`~repro.placement.base.candidate_rows`.

        Precedence: the source PM, crashed and blacklisted PMs (the
        ``excluded`` mask, split), capacity, then the base-headroom rule of
        :func:`select_target_reservation_aware` when that is the selector.
        """
        source = np.zeros(dc.n_pms, dtype=bool)
        source[source_pm] = True
        caps = dc.pm_capacities()
        vetoes = [
            (REASON_SOURCE, source), (REASON_CRASHED, crashed),
            (REASON_BLACKLISTED, blacklisted),
            (REASON_CAPACITY,
             ~(dc.pm_loads() + dc.vm_demands()[vm_id] <= caps + _EPS)),
        ]
        if self.pick_target_fn is select_target_reservation_aware:
            vetoes.append((REASON_CVR_THRESHOLD, ~(
                dc.pm_base_loads() + dc.vm_specs[vm_id].r_base
                <= caps * (1.0 - HEADROOM_FRACTION) + _EPS)))
        return vetoes


# --------------------------------------------------------------------- #
# mid-flight failure, retry/backoff, and target blacklisting
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetryPolicy:
    """Backoff/blacklist knobs for failure-prone migrations.

    Attributes
    ----------
    base_backoff_intervals:
        Wait after a VM's first failed migration before retrying it.
    max_backoff_intervals:
        Cap on the exponential backoff (doubles per consecutive failure).
    blacklist_threshold:
        Consecutive failed attempts *into* a target PM before it is
        considered flapping and temporarily vetoed.
    blacklist_intervals:
        How long a flapping target stays vetoed.
    """

    base_backoff_intervals: int = 1
    max_backoff_intervals: int = 8
    blacklist_threshold: int = 2
    blacklist_intervals: int = 10

    def __post_init__(self) -> None:
        check_integer(self.base_backoff_intervals, "base_backoff_intervals",
                      minimum=1)
        check_integer(self.max_backoff_intervals, "max_backoff_intervals",
                      minimum=self.base_backoff_intervals)
        check_integer(self.blacklist_threshold, "blacklist_threshold",
                      minimum=1)
        check_integer(self.blacklist_intervals, "blacklist_intervals",
                      minimum=1)

    def backoff(self, consecutive_failures: int) -> int:
        """Backoff length after the n-th consecutive failure (capped)."""
        return min(self.max_backoff_intervals,
                   self.base_backoff_intervals * 2 ** (consecutive_failures - 1))


class MigrationExecutor:
    """Executes migrations that can fail mid-flight.

    A failed attempt leaves the VM on its source PM (the pre-copy aborted),
    puts the VM into capped exponential backoff, and counts a strike against
    the target; targets accumulating ``blacklist_threshold`` consecutive
    strikes are vetoed for ``blacklist_intervals`` intervals.  With
    ``failure_probability = 0`` (the default) this degrades to a plain
    ``dc.migrate`` and draws no randomness, preserving legacy streams.
    """

    def __init__(self, dc: Datacenter, *, failure_probability: float = 0.0,
                 retry: RetryPolicy | None = None, seed: SeedLike = None,
                 telemetry: Telemetry | None = None):
        self.dc = dc
        self.failure_probability = check_probability(
            failure_probability, "migration failure_probability"
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self._rng = as_generator(seed)
        self.telemetry = resolve(telemetry)
        if self.telemetry is not None:
            m = self.telemetry.metrics
            self._m_attempts = m.counter(
                "migration_attempts_total", "live-migration attempts")
            self._m_completed = m.counter(
                "migrations_completed_total", "successful live migrations")
            self._m_failed = m.counter(
                "migrations_failed_total", "mid-flight migration failures")
            self._m_blacklisted = m.counter(
                "targets_blacklisted_total", "flapping targets vetoed")
        self.attempts = 0
        self.failures = 0
        self._vm_backoff_until: dict[int, int] = {}
        self._vm_consecutive_failures: dict[int, int] = {}
        self._target_strikes: dict[int, int] = {}
        self._blacklist_until: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    def in_backoff(self, vm_id: int, time: int) -> bool:
        """Whether ``vm_id`` is still cooling down from a failed attempt."""
        return self._vm_backoff_until.get(vm_id, -1) > time

    def blacklisted_mask(self, time: int) -> Optional[np.ndarray]:
        """Boolean veto mask of currently-blacklisted targets (or None)."""
        live = [pm for pm, until in self._blacklist_until.items() if until > time]
        if not live:
            return None
        mask = np.zeros(self.dc.n_pms, dtype=bool)
        mask[live] = True
        return mask

    def attempt(self, vm_id: int, target_pm: int, time: int) -> bool:
        """Try to migrate; returns True on success, False on a failed flight."""
        with timed("migration.attempt"):
            return self._attempt(vm_id, target_pm, time)

    def _attempt(self, vm_id: int, target_pm: int, time: int) -> bool:
        self.attempts += 1
        tel = self.telemetry
        traced = tel is not None and tel.events.enabled
        if tel is not None:
            self._m_attempts.inc()
        source_pm = self.dc.placement.pm_of(vm_id) if traced else -1
        if traced:
            tel.emit(MigrationStarted(time=time, vm_id=vm_id,
                                      source_pm=source_pm,
                                      target_pm=target_pm))
        if (self.failure_probability > 0.0
                and self._rng.random() < self.failure_probability):
            self.failures += 1
            fails = self._vm_consecutive_failures.get(vm_id, 0) + 1
            self._vm_consecutive_failures[vm_id] = fails
            backoff = self.retry.backoff(fails)
            self._vm_backoff_until[vm_id] = time + backoff
            strikes = self._target_strikes.get(target_pm, 0) + 1
            if tel is not None:
                self._m_failed.inc()
            if traced:
                tel.emit(MigrationFailed(
                    time=time, vm_id=vm_id, source_pm=source_pm,
                    target_pm=target_pm, consecutive_failures=fails,
                    backoff_intervals=backoff,
                ))
            if strikes >= self.retry.blacklist_threshold:
                until = time + self.retry.blacklist_intervals
                self._blacklist_until[target_pm] = until
                strikes = 0
                logger.warning(
                    "migration target PM %d blacklisted until interval %d "
                    "after repeated failed flights", target_pm, until,
                )
                if tel is not None:
                    self._m_blacklisted.inc()
                if traced:
                    tel.emit(TargetBlacklisted(time=time, pm_id=target_pm,
                                               until_time=until))
            self._target_strikes[target_pm] = strikes
            return False
        self.dc.migrate(vm_id, target_pm)
        if tel is not None:
            self._m_completed.inc()
        if traced:
            tel.emit(MigrationCompleted(time=time, vm_id=vm_id,
                                        source_pm=source_pm,
                                        target_pm=target_pm))
        self._vm_consecutive_failures.pop(vm_id, None)
        self._vm_backoff_until.pop(vm_id, None)
        self._target_strikes.pop(target_pm, None)
        return True

    # ------------------------------------------------------------------ #
    # checkpoint support
    # ------------------------------------------------------------------ #
    def capture_state(self) -> dict:
        """JSON-safe snapshot of counters, backoff/blacklist maps and RNG."""
        return {
            "rng": capture_rng_state(self._rng),
            "attempts": self.attempts,
            "failures": self.failures,
            "vm_backoff_until": {str(k): v for k, v
                                 in self._vm_backoff_until.items()},
            "vm_consecutive_failures": {
                str(k): v for k, v in self._vm_consecutive_failures.items()},
            "target_strikes": {str(k): v for k, v
                               in self._target_strikes.items()},
            "blacklist_until": {str(k): v for k, v
                                in self._blacklist_until.items()},
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from a :meth:`capture_state` snapshot."""
        self._rng = restore_rng_state(state["rng"])
        self.attempts = int(state["attempts"])
        self.failures = int(state["failures"])
        self._vm_backoff_until = {
            int(k): int(v) for k, v in state["vm_backoff_until"].items()}
        self._vm_consecutive_failures = {
            int(k): int(v) for k, v
            in state["vm_consecutive_failures"].items()}
        self._target_strikes = {
            int(k): int(v) for k, v in state["target_strikes"].items()}
        self._blacklist_until = {
            int(k): int(v) for k, v in state["blacklist_until"].items()}
