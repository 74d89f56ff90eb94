"""Live-migration cost model.

The paper motivates reservation by the cost of live migration: "in a nearly
oversubscribed system significant downtime is observed for live migration
which also incurs noticeable CPU usage on the host PM" (citing Voorsluys et
al.).  This model quantifies those costs per migration so runs can be scored
in seconds of downtime and PM-seconds of overhead, not just event counts:

- **duration** — pre-copy time = memory footprint / available bandwidth,
  with the VM's base demand as the footprint proxy (the paper designates
  memory as the resource dimension in Section V);
- **downtime** — the stop-and-copy pause, modelled as a fixed floor plus a
  dirty-page term proportional to duration;
- **overhead** — a CPU tax on source and target for the whole duration.

:class:`CostedScheduler` wraps the standard scheduler: each migration is
charged to an account, and while a migration is in flight it records the
overhead it puts on *both* PMs (the transfer double-residency).  The
overload scan does not read that overhead yet, so in-flight transfers cost
downtime and PM-intervals in the account but never cause a violation or a
further migration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simulation.datacenter import Datacenter
from repro.simulation.migration import MigrationEvent, MigrationPolicy
from repro.simulation.scheduler import DynamicScheduler
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class MigrationCostModel:
    """Parametric per-migration costs.

    Attributes
    ----------
    bandwidth_units_per_interval:
        Transferable footprint units per interval (network bandwidth /
        interval length).
    downtime_floor_seconds:
        Minimum stop-and-copy pause regardless of size.
    downtime_per_duration_seconds:
        Extra downtime per interval of pre-copy (dirty-page retransfer).
    cpu_overhead_fraction:
        Fraction of the VM's demand additionally charged on source and
        target while the migration is in flight.
    """

    bandwidth_units_per_interval: float = 50.0
    downtime_floor_seconds: float = 0.5
    downtime_per_duration_seconds: float = 0.25
    cpu_overhead_fraction: float = 0.1

    def __post_init__(self) -> None:
        check_positive(self.bandwidth_units_per_interval,
                       "bandwidth_units_per_interval")
        check_non_negative(self.downtime_floor_seconds, "downtime_floor_seconds")
        check_non_negative(self.downtime_per_duration_seconds,
                           "downtime_per_duration_seconds")
        check_non_negative(self.cpu_overhead_fraction, "cpu_overhead_fraction")

    def duration_intervals(self, footprint: float) -> int:
        """Pre-copy duration in whole intervals (at least 1)."""
        check_non_negative(footprint, "footprint")
        return max(1, int(-(-footprint // self.bandwidth_units_per_interval)))

    def downtime_seconds(self, footprint: float) -> float:
        """Stop-and-copy downtime for a VM of the given footprint."""
        return (self.downtime_floor_seconds
                + self.downtime_per_duration_seconds
                * self.duration_intervals(footprint))

    def overhead_load(self, demand: float) -> float:
        """Extra load charged on each involved PM while in flight."""
        return self.cpu_overhead_fraction * demand


@dataclass
class MigrationAccount:
    """Accumulated migration costs over a run."""

    n_migrations: int = 0
    total_downtime_seconds: float = 0.0
    total_duration_intervals: int = 0
    overhead_pm_intervals: float = 0.0
    per_vm_downtime: dict[int, float] = field(default_factory=dict)

    def charge(self, vm_id: int, downtime: float, duration: int,
               overhead: float) -> None:
        """Record one migration's costs."""
        self.n_migrations += 1
        self.total_downtime_seconds += downtime
        self.total_duration_intervals += duration
        self.overhead_pm_intervals += overhead * duration * 2  # src + dst
        self.per_vm_downtime[vm_id] = (
            self.per_vm_downtime.get(vm_id, 0.0) + downtime
        )


@dataclass
class _InFlight:
    vm_id: int
    source_pm: int
    target_pm: int
    remaining: int
    overhead: float


class CostedScheduler(DynamicScheduler):
    """Dynamic scheduler with migration costs and double residency.

    While a migration is in flight (``duration_intervals`` long), the
    moved VM's overhead load is recorded against both the source and the
    target PM (checkpointed under ``in_flight``).  Nothing adds it to the
    PM loads: the overload scan sees the hosted demands only.  Costs land
    in :attr:`account`.
    """

    def __init__(self, dc: Datacenter, policy: MigrationPolicy | None = None,
                 *, cost_model: MigrationCostModel | None = None,
                 max_migrations_per_interval: int = 1000,
                 **scheduler_kwargs):
        super().__init__(dc, policy,
                         max_migrations_per_interval=max_migrations_per_interval,
                         **scheduler_kwargs)
        self.cost_model = cost_model or MigrationCostModel()
        self.account = MigrationAccount()
        self._in_flight: list[_InFlight] = []

    def tick_transfers(self) -> None:
        """Advance in-flight migrations by one interval."""
        for f in self._in_flight:
            f.remaining -= 1
        self._in_flight = [f for f in self._in_flight if f.remaining > 0]

    def resolve_overloads(self, time: int) -> list[MigrationEvent]:
        """Resolve overloads, charging costs for each migration performed."""
        self.tick_transfers()
        events = super().resolve_overloads(time)
        for e in events:
            footprint = self.dc.vm_specs[e.vm_id].r_base
            duration = self.cost_model.duration_intervals(footprint)
            downtime = self.cost_model.downtime_seconds(footprint)
            overhead = self.cost_model.overhead_load(
                float(self.dc.vm_demands()[e.vm_id])
            )
            self.account.charge(e.vm_id, downtime, duration, overhead)
            self._in_flight.append(
                _InFlight(vm_id=e.vm_id, source_pm=e.source_pm,
                          target_pm=e.target_pm, remaining=duration,
                          overhead=overhead)
            )
        return events

    # ------------------------------------------------------------------ #
    # checkpoint support
    # ------------------------------------------------------------------ #
    def capture_state(self) -> dict:
        """Extend the scheduler snapshot with costs and in-flight transfers."""
        state = super().capture_state()
        acct = self.account
        state["account"] = {
            "n_migrations": acct.n_migrations,
            "total_downtime_seconds": acct.total_downtime_seconds,
            "total_duration_intervals": acct.total_duration_intervals,
            "overhead_pm_intervals": acct.overhead_pm_intervals,
            "per_vm_downtime": {str(k): v
                                for k, v in acct.per_vm_downtime.items()},
        }
        state["in_flight"] = [
            [f.vm_id, f.source_pm, f.target_pm, f.remaining, f.overhead]
            for f in self._in_flight
        ]
        return state

    def restore_state(self, state: dict) -> None:
        """Restore the scheduler plus migration accounting and transfers."""
        super().restore_state(state)
        acct = state["account"]
        self.account = MigrationAccount(
            n_migrations=int(acct["n_migrations"]),
            total_downtime_seconds=float(acct["total_downtime_seconds"]),
            total_duration_intervals=int(acct["total_duration_intervals"]),
            overhead_pm_intervals=float(acct["overhead_pm_intervals"]),
            per_vm_downtime={int(k): float(v)
                             for k, v in acct["per_vm_downtime"].items()},
        )
        self._in_flight = [
            _InFlight(vm_id=int(v), source_pm=int(s), target_pm=int(t),
                      remaining=int(r), overhead=float(o))
            for v, s, t, r, o in state["in_flight"]
        ]
