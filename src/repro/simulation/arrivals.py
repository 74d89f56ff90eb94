"""Dynamic-fleet simulation: VM arrivals and departures at runtime.

The paper's online rules (Section IV-E) are exercised statically by
:class:`repro.core.online.OnlineConsolidator`; this module runs them *under
load*: VMs arrive as a Bernoulli process, live for geometric lifetimes,
their workloads evolve ON-OFF while hosted, and the admission controller
places each arrival with the Eq. (17) reservation test.  Overflows are
resolved by least-loaded migration as in the main scheduler.

The output extends the paper's metrics with admission statistics
(accepted / rejected arrivals), so the reservation's capacity cost can be
read as lost admissions rather than idle PMs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.online import OnlineConsolidator
from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer, check_probability

_EPS = 1e-9

VMFactory = Callable[[np.random.Generator], VMSpec]


@dataclass
class _LiveVM:
    spec: VMSpec
    pm: int
    on: bool = False


@dataclass
class DynamicFleetRecord:
    """Metrics of one dynamic-fleet run."""

    n_intervals: int
    admitted: int = 0
    rejected: int = 0
    departed: int = 0
    migrations: int = 0
    violations: int = 0
    pms_used_series: list[int] = field(default_factory=list)
    population_series: list[int] = field(default_factory=list)


class DynamicFleetSimulator:
    """Arrivals + departures + ON-OFF workload + overflow migration.

    Parameters
    ----------
    pms:
        The fixed PM fleet.
    placer:
        Supplies rho/d and the mapping table for admissions (Eq. 17).
    arrival_probability:
        Per-interval probability one new VM arrives (Bernoulli).
    departure_probability:
        Per-interval per-VM probability of shutdown (geometric lifetimes,
        mean ``1/p``).
    vm_factory:
        Draws an arriving VM's spec from the given generator; defaults to
        the paper's R_b = R_e pattern ranges.
    seed:
        RNG seed material.
    """

    def __init__(
        self,
        pms: Sequence[PMSpec],
        placer: QueuingFFD | None = None,
        *,
        arrival_probability: float = 0.5,
        departure_probability: float = 0.005,
        vm_factory: VMFactory | None = None,
        seed: SeedLike = None,
    ):
        if not pms:
            raise ValueError("need at least one PM")
        self.placer = placer if placer is not None else QueuingFFD()
        self.arrival_probability = check_probability(
            arrival_probability, "arrival_probability"
        )
        self.departure_probability = check_probability(
            departure_probability, "departure_probability"
        )
        self._rng = as_generator(seed)
        self.vm_factory = vm_factory or self._default_factory
        self._pms = list(pms)
        #: admission control: Eq. (17) state and the single-arrival rule
        self.consolidator = OnlineConsolidator(self._pms, self.placer)
        self._live: dict[int, _LiveVM] = {}

    @staticmethod
    def _default_factory(rng: np.random.Generator) -> VMSpec:
        return VMSpec(0.01, 0.09, float(rng.uniform(2, 20)),
                      float(rng.uniform(2, 20)))

    # ------------------------------------------------------------------ #
    # state queries
    # ------------------------------------------------------------------ #
    @property
    def population(self) -> int:
        """Currently hosted VM count."""
        return len(self._live)

    def used_pm_count(self) -> int:
        """Powered-on PM count."""
        return self.consolidator.n_used_pms

    def pm_loads(self) -> np.ndarray:
        """Instantaneous aggregate demand per PM."""
        loads = np.zeros(len(self._pms))
        for vm in self._live.values():
            loads[vm.pm] += vm.spec.demand(vm.on)
        return loads

    # ------------------------------------------------------------------ #
    # mechanics
    # ------------------------------------------------------------------ #
    def _admit(self, spec: VMSpec) -> bool:
        decision = self.consolidator.decide(spec)
        if decision.pm < 0:
            return False
        self.consolidator.apply_admit(spec, decision.pm, decision.vm_id)
        self._live[decision.vm_id] = _LiveVM(spec=spec, pm=decision.pm)
        return True

    def _depart(self, vm_id: int) -> None:
        self._live.pop(vm_id)
        self.consolidator.depart(vm_id)

    def _step_workloads(self) -> None:
        for vm in self._live.values():
            u = self._rng.random()
            vm.on = (u >= vm.spec.p_off) if vm.on else (u < vm.spec.p_on)

    def _resolve_overflows(self, record: DynamicFleetRecord) -> None:
        loads = self.pm_loads()
        caps = np.array([p.capacity for p in self._pms])
        for pm_idx in np.flatnonzero(loads > caps + _EPS):
            pm_idx = int(pm_idx)
            hosted = [vid for vid, vm in self._live.items() if vm.pm == pm_idx]
            moved = False
            if len(hosted) > 1:
                # Move the largest-demand VM to the least-loaded PM with
                # room under Eq. (17) AND instantaneous capacity.
                vid = max(hosted,
                          key=lambda v: self._live[v].spec.demand(self._live[v].on))
                vm = self._live[vid]
                demand = vm.spec.demand(vm.on)
                current = self.pm_loads()
                ok = (self.consolidator.kernel.feasible(vm.spec)
                      & (current + demand <= caps + _EPS))
                ok[pm_idx] = False
                # argmin returns the first of tied loads on every SIMD
                # dispatch path; the default argsort orders ties per path
                target = int(np.argmin(np.where(ok, current, np.inf)))
                if ok[target]:
                    vm.pm = target
                    self.consolidator.move(vid, vm.pm)
                    record.migrations += 1
                    moved = True
            if not moved and loads[pm_idx] > caps[pm_idx] + _EPS:
                record.violations += 1

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def run(self, n_intervals: int) -> DynamicFleetRecord:
        """Simulate ``n_intervals``; returns the run metrics.

        Per interval: departures, one potential arrival, workload step,
        overflow resolution, bookkeeping.
        """
        n_intervals = check_integer(n_intervals, "n_intervals", minimum=1)
        record = DynamicFleetRecord(n_intervals=n_intervals)
        for _ in range(n_intervals):
            # departures
            if self._live and self.departure_probability > 0:
                ids = list(self._live.keys())
                gone = np.flatnonzero(
                    self._rng.random(len(ids)) < self.departure_probability
                )
                for g in gone:
                    self._depart(ids[int(g)])
                    record.departed += 1
            # arrival
            if self._rng.random() < self.arrival_probability:
                spec = self.vm_factory(self._rng)
                if self._admit(spec):
                    record.admitted += 1
                else:
                    record.rejected += 1
            # workload + overflow
            self._step_workloads()
            self._resolve_overflows(record)
            record.pms_used_series.append(self.used_pm_count())
            record.population_series.append(self.population)
        return record
