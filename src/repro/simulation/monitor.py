"""Measurement plane of the simulator.

Records per-interval observations and derives the paper's evaluation
metrics:

- total migrations and final PMs used (Fig. 9's two bars);
- the cumulative-migration time series (Fig. 10);
- per-PM empirical CVR over the run (Fig. 6's measurement, Eq. 4).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.simulation.datacenter import Datacenter
from repro.simulation.migration import MigrationEvent
from repro.telemetry import (
    CapacityViolation,
    IntervalSnapshot,
    LogRateLimiter,
    Telemetry,
    resolve,
)

logger = logging.getLogger(__name__)

_EPS = 1e-9


@dataclass
class RunRecord:
    """Immutable summary of one simulation run."""

    n_intervals: int
    #: one row per live migration: ``(time, vm_id, source_pm, target_pm)``
    migration_rows: np.ndarray
    pms_used_series: np.ndarray
    migrations_per_interval: np.ndarray
    violation_counts: np.ndarray
    presence_counts: np.ndarray
    #: per-VM count of intervals spent on a violated PM (fairness view);
    #: empty when the monitor was built without VM tracking
    vm_suffering_counts: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    #: per-VM count of intervals spent stranded on failed hardware (outage);
    #: empty when the monitor was built without VM tracking
    vm_down_counts: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    #: per-VM count of intervals served degraded at ``R_b`` (throttled);
    #: empty when the monitor was built without VM tracking
    vm_degraded_counts: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    #: migration attempts that failed mid-flight over the run
    failed_migration_attempts: int = 0

    @property
    def migrations(self) -> list[MigrationEvent]:
        """Every live migration as an event, built from the rows on read."""
        return list(map(MigrationEvent._make, self.migration_rows.tolist()))

    @property
    def total_migrations(self) -> int:
        """Total live migrations over the run."""
        return len(self.migration_rows)

    @property
    def final_pms_used(self) -> int:
        """PMs powered on at the end of the evaluation period."""
        return int(self.pms_used_series[-1]) if self.pms_used_series.size else 0

    @property
    def cumulative_migrations(self) -> np.ndarray:
        """Running total of migrations after each interval (Fig. 10)."""
        return np.cumsum(self.migrations_per_interval)

    def vm_suffering_fraction(self) -> np.ndarray:
        """Per-VM fraction of intervals spent on a violated PM.

        The fairness complement of the PM-level CVR: two placements with
        equal PM CVRs can concentrate the pain on very different VM subsets.
        Empty array when VM tracking was off.
        """
        if self.vm_suffering_counts.size == 0 or self.n_intervals == 0:
            return self.vm_suffering_counts.astype(float)
        return self.vm_suffering_counts / self.n_intervals

    def vm_availability(self) -> np.ndarray:
        """Per-VM fraction of intervals with *any* service (1 - downtime).

        Downtime here is full outage: intervals spent stranded on failed
        hardware.  Degraded intervals still count as available (the VM is
        served, at ``R_b``); see :meth:`vm_degraded_fraction` for that axis.
        Empty array when VM tracking was off.
        """
        if self.vm_down_counts.size == 0 or self.n_intervals == 0:
            return self.vm_down_counts.astype(float)
        return 1.0 - self.vm_down_counts / self.n_intervals

    def vm_degraded_fraction(self) -> np.ndarray:
        """Per-VM fraction of intervals served degraded (throttled to R_b)."""
        if self.vm_degraded_counts.size == 0 or self.n_intervals == 0:
            return self.vm_degraded_counts.astype(float)
        return self.vm_degraded_counts / self.n_intervals

    def cvr_per_pm(self) -> np.ndarray:
        """Empirical CVR of each PM over the intervals it hosted VMs.

        A PM that never hosted anything reports 0.  The denominator is the
        number of intervals the PM was powered on, matching the paper's
        per-PM time fraction.
        """
        with np.errstate(invalid="ignore", divide="ignore"):
            cvr = np.where(
                self.presence_counts > 0,
                self.violation_counts / np.maximum(self.presence_counts, 1),
                0.0,
            )
        return cvr


class Monitor:
    """Collects observations each interval; produces a :class:`RunRecord`.

    Parameters
    ----------
    n_pms:
        Fleet size.
    n_vms:
        If given, also attribute violations to the VMs hosted on the
        violating PM each interval (per-VM suffering counters).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; when given (or when
        an ambient default is installed), each violated PM-interval is
        emitted as a :class:`~repro.telemetry.CapacityViolation` event and
        fleet gauges are published.
    snapshot_every:
        When set (and an event sink is attached), emit one
        :class:`~repro.telemetry.IntervalSnapshot` every that many recorded
        intervals — the feed the run observatory's recorder, SLO engine
        and drift detector consume.  ``None`` (default) emits none, keeping
        pre-existing event streams byte-identical.
    log_window:
        Rate limit for the monitor's WARN lines: at most one per warning
        kind per this many intervals (suppressed lines are counted in the
        ``log_suppressed_total`` metric when telemetry is on).
    """

    def __init__(self, n_pms: int, *, n_vms: int | None = None,
                 telemetry: Telemetry | None = None,
                 snapshot_every: int | None = None,
                 log_window: int = 50):
        if n_pms <= 0:
            raise ValueError(f"n_pms must be >= 1, got {n_pms}")
        if snapshot_every is not None and snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1 or None, got {snapshot_every}")
        self._n_pms = n_pms
        self._snapshot_every = snapshot_every
        self.telemetry = resolve(telemetry)
        self._log_limit = LogRateLimiter(
            window=log_window,
            counter=(self.telemetry.metrics.counter(
                "log_suppressed_total", "rate-limited WARN lines dropped")
                if self.telemetry is not None else None),
        )
        if self.telemetry is not None:
            m = self.telemetry.metrics
            self._m_violations = m.counter(
                "capacity_violations_total", "violated PM-intervals")
            self._g_pms_used = m.gauge(
                "pms_used", "powered-on PMs at the last recorded interval")
            self._g_overloaded = m.gauge(
                "pms_overloaded", "violated PMs at the last recorded interval")
        self._pms_used: list[int] = []
        self._migrations_per_interval: list[int] = []
        # the migration history: rows up to the last restore or read, and
        # the events (each a row) recorded since
        self._history = np.empty((0, 4), dtype=np.int64)
        self._recent: list[MigrationEvent] = []
        self._violations = np.zeros(n_pms, dtype=np.int64)
        self._presence = np.zeros(n_pms, dtype=np.int64)
        if n_vms is not None and n_vms < 0:
            raise ValueError(f"n_vms must be >= 0, got {n_vms}")
        self._vm_suffering = (
            np.zeros(n_vms, dtype=np.int64) if n_vms is not None else None
        )
        self._vm_down = (
            np.zeros(n_vms, dtype=np.int64) if n_vms is not None else None
        )
        self._vm_degraded = (
            np.zeros(n_vms, dtype=np.int64) if n_vms is not None else None
        )
        self._failed_migrations = 0

    def record_interval(self, dc: Datacenter, migrations: list[MigrationEvent],
                        *, down_vms: set[int] | None = None,
                        degraded_vms: set[int] | None = None,
                        failed_migrations: int = 0) -> None:
        """Record one interval's end-state and the migrations it triggered.

        ``down_vms`` / ``degraded_vms`` are the failure injector's stranded
        and throttled VM sets for the interval (availability accounting);
        ``failed_migrations`` counts mid-flight migration failures.
        """
        if dc.n_pms != self._n_pms:
            raise ValueError(
                f"datacenter has {dc.n_pms} PMs but monitor was built for {self._n_pms}"
            )
        loads = dc.pm_loads()
        caps = dc.pm_capacities()
        used = dc.pm_used_mask()
        violated = loads > caps + _EPS
        # the interval index is how many intervals we recorded so far
        t = len(self._pms_used)
        n_violated = int(violated.sum())
        if n_violated:
            self._log_limit.warning(
                logger, "monitor", "capacity_violation", t,
                "%d PM(s) over capacity at interval %d (worst: PM %d at "
                "%.1f/%.1f)", n_violated, t,
                int(np.argmax(loads - caps)),
                float(loads[int(np.argmax(loads - caps))]),
                float(caps[int(np.argmax(loads - caps))]),
            )
        tel = self.telemetry
        if tel is not None:
            self._m_violations.inc(n_violated)
            self._g_pms_used.set(int(used.sum()))
            self._g_overloaded.set(n_violated)
            if tel.events.enabled and n_violated:
                for pm_id in np.flatnonzero(violated):
                    pm_id = int(pm_id)
                    tel.emit(CapacityViolation(
                        time=t, pm_id=pm_id,
                        load=float(loads[pm_id]),
                        capacity=float(caps[pm_id]),
                    ))
            if (self._snapshot_every is not None and tel.events.enabled
                    and t % self._snapshot_every == 0):
                tel.emit(self._snapshot(dc, t, loads, caps, used,
                                        n_violated, len(migrations)))
        self._violations += violated.astype(np.int64)
        self._presence += used.astype(np.int64)
        self._pms_used.append(int(used.sum()))
        self._migrations_per_interval.append(len(migrations))
        self._recent.extend(migrations)
        if self._vm_suffering is not None:
            if dc.n_vms != self._vm_suffering.size:
                raise ValueError(
                    f"datacenter has {dc.n_vms} VMs but monitor tracks "
                    f"{self._vm_suffering.size}"
                )
            self._vm_suffering += violated[dc.placement.assignment]
        self._failed_migrations += failed_migrations
        if self._vm_down is not None and down_vms:
            self._vm_down[sorted(down_vms)] += 1
        if self._vm_degraded is not None and degraded_vms:
            self._vm_degraded[sorted(degraded_vms)] += 1

    def _snapshot(self, dc: Datacenter, t: int, loads: np.ndarray,
                  caps: np.ndarray, used: np.ndarray, n_violated: int,
                  n_migrations: int) -> IntervalSnapshot:
        """Build the per-interval fleet sample the observatory consumes.

        Per powered-on PM: load, capacity, hosted/ON VM counts, and the
        assumed-model expectation and variance rate of the ON count (frozen
        spec-time values — see
        :meth:`~repro.simulation.datacenter.Datacenter.assumed_on_probability`).
        """
        assignment = dc.placement.assignment
        on = dc.on_states().astype(float)
        hosted = np.bincount(assignment, minlength=dc.n_pms)
        on_counts = np.bincount(assignment, weights=on, minlength=dc.n_pms)
        expected = np.bincount(assignment,
                               weights=dc.assumed_on_probability(),
                               minlength=dc.n_pms)
        exp_var = np.bincount(assignment,
                              weights=dc.assumed_on_variance_rate(),
                              minlength=dc.n_pms)
        pm_ids = np.flatnonzero(used)
        return IntervalSnapshot(
            time=t,
            pm_ids=tuple(int(p) for p in pm_ids),
            loads=tuple(float(loads[p]) for p in pm_ids),
            capacities=tuple(float(caps[p]) for p in pm_ids),
            hosted=tuple(int(hosted[p]) for p in pm_ids),
            on_vms=tuple(int(on_counts[p]) for p in pm_ids),
            expected_on=tuple(float(expected[p]) for p in pm_ids),
            expected_var=tuple(float(exp_var[p]) for p in pm_ids),
            migrations=n_migrations,
            overloaded=n_violated,
        )

    # ------------------------------------------------------------------ #
    # checkpoint support
    # ------------------------------------------------------------------ #
    def _migration_rows(self) -> np.ndarray:
        """The whole migration history as one read-only int64 array."""
        if self._recent:
            rows = np.concatenate((self._history,
                                   np.array(self._recent, dtype=np.int64)))
            rows.flags.writeable = False
            self._history, self._recent = rows, []
        return self._history

    def capture_state(self) -> dict:
        """JSON-safe snapshot of every accumulated observation.

        Restoring these counters also restores the monitor's notion of
        time: ``record_interval`` stamps events with the number of
        intervals recorded so far, so a resumed run continues the series
        without gaps or repeats.
        """
        return {
            "pms_used": list(self._pms_used),
            "migrations_per_interval": list(self._migrations_per_interval),
            "events": self._migration_rows().tolist(),
            "violations": self._violations.tolist(),
            "presence": self._presence.tolist(),
            "vm_suffering": (self._vm_suffering.tolist()
                             if self._vm_suffering is not None else None),
            "vm_down": (self._vm_down.tolist()
                        if self._vm_down is not None else None),
            "vm_degraded": (self._vm_degraded.tolist()
                            if self._vm_degraded is not None else None),
            "failed_migrations": self._failed_migrations,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite accumulated observations from a snapshot.

        Its series may be lists, as :meth:`capture_state` returns them, or
        arrays; ``events`` becomes the history in one array copy, with no
        per-migration object.
        """
        if len(state["violations"]) != self._n_pms:
            raise ValueError(
                f"checkpoint monitor covers {len(state['violations'])} PMs "
                f"but monitor was built for {self._n_pms}"
            )
        self._pms_used = np.asarray(state["pms_used"],
                                    dtype=np.int64).tolist()
        self._migrations_per_interval = np.asarray(
            state["migrations_per_interval"], dtype=np.int64).tolist()
        history = np.array(state["events"], dtype=np.int64).reshape(-1, 4)
        history.flags.writeable = False
        self._history, self._recent = history, []
        self._violations = np.array(state["violations"], dtype=np.int64)
        self._presence = np.array(state["presence"], dtype=np.int64)
        for attr, key in (("_vm_suffering", "vm_suffering"),
                          ("_vm_down", "vm_down"),
                          ("_vm_degraded", "vm_degraded")):
            stored = state[key]
            if (stored is None) != (getattr(self, attr) is None):
                raise ValueError(
                    f"checkpoint {key} tracking does not match this monitor "
                    f"(one tracks per-VM counters, the other does not)"
                )
            if stored is not None:
                setattr(self, attr, np.array(stored, dtype=np.int64))
        self._failed_migrations = int(state["failed_migrations"])

    def finalize(self) -> RunRecord:
        """Produce the run summary."""
        return RunRecord(
            n_intervals=len(self._pms_used),
            migration_rows=self._migration_rows(),
            pms_used_series=np.array(self._pms_used, dtype=np.int64),
            migrations_per_interval=np.array(self._migrations_per_interval,
                                             dtype=np.int64),
            violation_counts=self._violations.copy(),
            presence_counts=self._presence.copy(),
            vm_suffering_counts=(
                self._vm_suffering.copy() if self._vm_suffering is not None
                else np.empty(0, dtype=np.int64)
            ),
            vm_down_counts=(
                self._vm_down.copy() if self._vm_down is not None
                else np.empty(0, dtype=np.int64)
            ),
            vm_degraded_counts=(
                self._vm_degraded.copy() if self._vm_degraded is not None
                else np.empty(0, dtype=np.int64)
            ),
            failed_migration_attempts=self._failed_migrations,
        )
