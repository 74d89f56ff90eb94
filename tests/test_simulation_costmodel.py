"""Tests for repro.simulation.costmodel."""

import numpy as np
import pytest

from repro.core.types import Placement, PMSpec, VMSpec
from repro.simulation.costmodel import (
    CostedScheduler,
    MigrationAccount,
    MigrationCostModel,
)
from repro.simulation.datacenter import Datacenter
from tests.helpers import set_on


def in_flight_load(scheduler, pm_id):
    """Overhead load the scheduler's in-flight transfers charge on PM
    ``pm_id``, read from its checkpoint state."""
    return sum(overhead for _, source, target, _, overhead
               in scheduler.capture_state()["in_flight"]
               if pm_id in (source, target))


class TestMigrationCostModel:
    def test_duration_ceil_division(self):
        model = MigrationCostModel(bandwidth_units_per_interval=50.0)
        assert model.duration_intervals(0.0) == 1
        assert model.duration_intervals(50.0) == 1
        assert model.duration_intervals(50.1) == 2
        assert model.duration_intervals(151.0) == 4

    def test_downtime_grows_with_footprint(self):
        model = MigrationCostModel(bandwidth_units_per_interval=10.0,
                                   downtime_floor_seconds=0.5,
                                   downtime_per_duration_seconds=0.25)
        small = model.downtime_seconds(5.0)    # 1 interval
        large = model.downtime_seconds(100.0)  # 10 intervals
        assert small == pytest.approx(0.75)
        assert large == pytest.approx(0.5 + 2.5)

    def test_overhead_load(self):
        model = MigrationCostModel(cpu_overhead_fraction=0.2)
        assert model.overhead_load(40.0) == pytest.approx(8.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MigrationCostModel(bandwidth_units_per_interval=0.0)
        with pytest.raises(ValueError):
            MigrationCostModel(cpu_overhead_fraction=-0.1)
        model = MigrationCostModel()
        with pytest.raises(ValueError):
            model.duration_intervals(-1.0)


class TestMigrationAccount:
    def test_charge_accumulates(self):
        acc = MigrationAccount()
        acc.charge(vm_id=3, downtime=0.75, duration=2, overhead=4.0)
        acc.charge(vm_id=3, downtime=0.5, duration=1, overhead=2.0)
        acc.charge(vm_id=7, downtime=1.0, duration=3, overhead=1.0)
        assert acc.n_migrations == 3
        assert acc.total_downtime_seconds == pytest.approx(2.25)
        assert acc.total_duration_intervals == 6
        # overhead charged on both PMs for each duration interval
        assert acc.overhead_pm_intervals == pytest.approx(
            4.0 * 2 * 2 + 2.0 * 1 * 2 + 1.0 * 3 * 2
        )
        assert acc.per_vm_downtime == {3: pytest.approx(1.25), 7: 1.0}


class TestCostedScheduler:
    def _dc(self):
        vms = [VMSpec(0.01, 0.09, 40.0, 30.0), VMSpec(0.01, 0.09, 40.0, 30.0)]
        pms = [PMSpec(90.0), PMSpec(90.0)]
        placement = Placement(2, 2, assignment=np.array([0, 0]))
        dc = Datacenter(vms, pms, placement, seed=0)
        for i in range(dc.n_vms):
            set_on(dc, i, True)
        return dc

    def test_migration_is_charged(self):
        dc = self._dc()
        scheduler = CostedScheduler(dc)
        events = scheduler.resolve_overloads(0)
        assert len(events) == 1
        assert scheduler.account.n_migrations == 1
        assert scheduler.account.total_downtime_seconds > 0

    def test_in_flight_overhead_applied_to_both_pms(self):
        dc = self._dc()
        model = MigrationCostModel(bandwidth_units_per_interval=10.0,
                                   cpu_overhead_fraction=0.25)
        scheduler = CostedScheduler(dc, cost_model=model)
        events = scheduler.resolve_overloads(0)
        e = events[0]
        overhead = 0.25 * 70.0  # migrated VM was spiking: demand 70
        assert in_flight_load(scheduler, e.source_pm) == pytest.approx(overhead)
        assert in_flight_load(scheduler, e.target_pm) == pytest.approx(overhead)
        assert in_flight_load(scheduler, 99) == 0.0

    def test_transfer_completes_after_duration(self):
        dc = self._dc()
        model = MigrationCostModel(bandwidth_units_per_interval=20.0)
        scheduler = CostedScheduler(dc, cost_model=model)
        events = scheduler.resolve_overloads(0)
        duration = model.duration_intervals(40.0)  # footprint = r_base
        pm = events[0].target_pm
        for _ in range(duration):
            assert in_flight_load(scheduler, pm) > 0
            scheduler.tick_transfers()
        assert in_flight_load(scheduler, pm) == 0.0

    def test_no_overload_no_charges(self):
        vms = [VMSpec(0.01, 0.09, 10.0, 5.0)]
        pms = [PMSpec(100.0)]
        placement = Placement(1, 1, assignment=np.array([0]))
        dc = Datacenter(vms, pms, placement, seed=0)
        scheduler = CostedScheduler(dc)
        assert scheduler.resolve_overloads(0) == []
        assert scheduler.account.n_migrations == 0

    def test_full_run_accounting_consistent(self):
        from repro.placement.ffd import ffd_by_base
        from repro.simulation.engine import SimulationEngine
        from repro.simulation.monitor import Monitor
        from repro.workload.patterns import generate_pattern_instance

        vms, pms = generate_pattern_instance("equal", 60, seed=3)
        placement = ffd_by_base(max_vms_per_pm=16).place(vms, pms)
        dc = Datacenter(vms, pms, placement, seed=4)
        scheduler = CostedScheduler(dc)
        monitor = Monitor(dc.n_pms)
        engine = SimulationEngine()

        def tick(t):
            dc.step()
            monitor.record_interval(dc, scheduler.resolve_overloads(t))

        engine.add_hook("tick", tick)
        engine.run(100)
        record = monitor.finalize()
        assert scheduler.account.n_migrations == record.total_migrations
        if record.total_migrations:
            assert scheduler.account.total_downtime_seconds > 0
            assert scheduler.account.total_duration_intervals >= record.total_migrations
