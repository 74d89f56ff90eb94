"""Tests for repro.simulation.arrivals — the dynamic-fleet simulator."""

import numpy as np
import pytest

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.simulation.arrivals import DynamicFleetRecord, DynamicFleetSimulator, _LiveVM


def fleet(n=20, cap=100.0):
    return [PMSpec(cap)] * n


class TestConstruction:
    def test_requires_pms(self):
        with pytest.raises(ValueError):
            DynamicFleetSimulator([])

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            DynamicFleetSimulator(fleet(), arrival_probability=1.5)
        with pytest.raises(ValueError):
            DynamicFleetSimulator(fleet(), departure_probability=-0.1)


class TestRun:
    def test_population_grows_with_arrivals_only(self):
        sim = DynamicFleetSimulator(fleet(), arrival_probability=1.0,
                                    departure_probability=0.0, seed=0)
        record = sim.run(50)
        assert record.admitted + record.rejected == 50
        assert sim.population == record.admitted
        assert record.departed == 0
        assert record.population_series[-1] >= record.population_series[0]

    def test_no_arrivals_population_stays_zero(self):
        sim = DynamicFleetSimulator(fleet(), arrival_probability=0.0, seed=0)
        record = sim.run(20)
        assert sim.population == 0
        assert record.admitted == record.rejected == 0

    def test_departures_drain_population(self):
        sim = DynamicFleetSimulator(fleet(), arrival_probability=1.0,
                                    departure_probability=0.0, seed=1)
        sim.run(30)
        grown = sim.population
        sim.departure_probability = 0.5
        sim.arrival_probability = 0.0
        record2 = sim.run(40)
        assert sim.population < grown
        assert record2.departed > 0

    def test_rejections_when_fleet_saturates(self):
        # Tiny fleet: arrivals must eventually be rejected.
        sim = DynamicFleetSimulator(fleet(n=2), arrival_probability=1.0,
                                    departure_probability=0.0, seed=2)
        record = sim.run(100)
        assert record.rejected > 0
        assert record.admitted > 0

    def test_reservation_invariant_holds_throughout(self):
        sim = DynamicFleetSimulator(fleet(), arrival_probability=0.8,
                                    departure_probability=0.02, seed=3)
        sim.run(200)
        for j in range(sim.consolidator.n_pms):
            state = sim.consolidator.state_of(j)
            if not state.is_empty:
                assert state.committed <= state.spec.capacity + 1e-6
                assert state.count <= sim.placer.d

    def test_loads_consistent_with_population(self):
        sim = DynamicFleetSimulator(fleet(), arrival_probability=1.0,
                                    departure_probability=0.0, seed=4)
        sim.run(30)
        loads = sim.pm_loads()
        total_base = sum(vm.spec.demand(vm.on) for vm in sim._live.values())
        assert loads.sum() == pytest.approx(total_base)

    def test_reproducible(self):
        a = DynamicFleetSimulator(fleet(), seed=7).run(100)
        b = DynamicFleetSimulator(fleet(), seed=7).run(100)
        assert a.admitted == b.admitted
        assert a.migrations == b.migrations
        assert a.pms_used_series == b.pms_used_series

    def test_custom_factory_used(self):
        def tiny(rng):
            return VMSpec(0.01, 0.09, 1.0, 1.0)

        sim = DynamicFleetSimulator(fleet(), arrival_probability=1.0,
                                    departure_probability=0.0,
                                    vm_factory=tiny, seed=5)
        record = sim.run(10)
        assert record.rejected == 0
        assert all(vm.spec.r_base == 1.0 for vm in sim._live.values())

    def test_violations_and_migrations_counted(self):
        # Dense base-heavy fleet on small PMs to provoke overflow.
        def chunky(rng):
            return VMSpec(0.2, 0.2, 10.0, 30.0)

        sim = DynamicFleetSimulator(
            fleet(n=4, cap=60.0),
            QueuingFFD(rho=0.5, d=16),  # loose rho admits aggressively
            arrival_probability=1.0, departure_probability=0.0,
            vm_factory=chunky, seed=6,
        )
        record = sim.run(200)
        assert record.migrations + record.violations > 0

    def test_invalid_intervals(self):
        with pytest.raises(ValueError):
            DynamicFleetSimulator(fleet()).run(0)


class TestOverflowTarget:
    def test_tied_loads_go_to_the_lowest_indexed_pm(self):
        """The overflowing PM's largest VM moves to the least-loaded PM with
        room and, among equally loaded ones, to the lowest index, whatever
        order the CPU's sort kernel gives tied loads."""
        sim = DynamicFleetSimulator(fleet(n=6), arrival_probability=0.0,
                                    departure_probability=0.0, seed=0)
        hosts = [(VMSpec(0.01, 0.09, 40.0, 40.0), 0, True),
                 (VMSpec(0.01, 0.09, 30.0, 10.0), 0, False),
                 (VMSpec(0.01, 0.09, 10.0, 10.0), 1, False),
                 (VMSpec(0.01, 0.09, 10.0, 10.0), 4, False)]
        for vm_id, (spec, pm, on) in enumerate(hosts):
            sim.consolidator.apply_admit(spec, pm, vm_id)
            sim._live[vm_id] = _LiveVM(spec=spec, pm=pm, on=on)
        np.testing.assert_array_equal(sim.pm_loads(), [110, 10, 0, 0, 10, 0])
        record = DynamicFleetRecord(n_intervals=1)
        sim._resolve_overflows(record)
        assert (record.migrations, record.violations) == (1, 0)
        assert sim._live[0].pm == sim.consolidator.pm_of(0) == 2


class TestReservationEffect:
    def test_tight_rho_rejects_more_but_violates_less(self):
        """The admission/performance trade-off: stricter rho admits fewer
        VMs but keeps the violation count down."""
        def spec(rng):
            return VMSpec(0.05, 0.15, float(rng.uniform(5, 15)),
                          float(rng.uniform(10, 30)))

        results = {}
        for rho in (0.9, 0.01):
            sim = DynamicFleetSimulator(
                fleet(n=6, cap=80.0), QueuingFFD(rho=rho, d=16),
                arrival_probability=1.0, departure_probability=0.0,
                vm_factory=spec, seed=8,
            )
            results[rho] = sim.run(300)
        assert results[0.01].admitted <= results[0.9].admitted
        loose_bad = results[0.9].violations + results[0.9].migrations
        tight_bad = results[0.01].violations + results[0.01].migrations
        assert tight_bad < loose_bad
