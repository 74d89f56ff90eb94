"""Tests for engine, monitor and energy model."""

import numpy as np
import pytest

from repro.core.types import Placement, PMSpec, VMSpec
from repro.simulation.datacenter import Datacenter
from repro.simulation.energy import EnergyModel
from repro.simulation.engine import SimulationEngine
from repro.simulation.migration import MigrationEvent
from repro.simulation.monitor import Monitor
from tests.helpers import set_on


class TestEngine:
    def test_hooks_run_in_order_with_time(self):
        engine = SimulationEngine()
        calls = []
        engine.add_hook("a", lambda t: calls.append(("a", t)))
        engine.add_hook("b", lambda t: calls.append(("b", t)))
        engine.run(2)
        assert calls == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]
        assert engine.time == 2

    def test_duplicate_hook_name_rejected(self):
        engine = SimulationEngine()
        engine.add_hook("x", lambda t: None)
        with pytest.raises(ValueError, match="already registered"):
            engine.add_hook("x", lambda t: None)

    def test_time_accumulates_across_runs(self):
        engine = SimulationEngine()
        seen = []
        engine.add_hook("x", lambda t: seen.append(t))
        engine.run(2)
        engine.run(2)
        assert seen == [0, 1, 2, 3]

    def test_exceptions_propagate(self):
        engine = SimulationEngine()

        def boom(t):
            raise RuntimeError("invariant failed")

        engine.add_hook("boom", boom)
        with pytest.raises(RuntimeError, match="invariant"):
            engine.run(1)

    def test_zero_intervals(self):
        engine = SimulationEngine()
        engine.run(0)
        assert engine.time == 0


class TestMonitor:
    def _dc(self):
        vms = [VMSpec(0.01, 0.09, 60.0, 50.0), VMSpec(0.01, 0.09, 10.0, 5.0)]
        pms = [PMSpec(100.0), PMSpec(100.0), PMSpec(100.0)]
        placement = Placement(2, 3, assignment=np.array([0, 1]))
        return Datacenter(vms, pms, placement, seed=0)

    def test_presence_and_violations(self):
        dc = self._dc()
        monitor = Monitor(3)
        monitor.record_interval(dc, [])
        set_on(dc, 0, True)  # PM0 load 110 > 100
        monitor.record_interval(dc, [])
        record = monitor.finalize()
        np.testing.assert_array_equal(record.violation_counts, [1, 0, 0])
        np.testing.assert_array_equal(record.presence_counts, [2, 2, 0])
        np.testing.assert_allclose(record.cvr_per_pm(), [0.5, 0.0, 0.0])

    def test_migration_accounting(self):
        dc = self._dc()
        monitor = Monitor(3)
        ev = MigrationEvent(time=0, vm_id=0, source_pm=0, target_pm=2)
        monitor.record_interval(dc, [ev, ev])
        monitor.record_interval(dc, [])
        record = monitor.finalize()
        assert record.total_migrations == 2
        np.testing.assert_array_equal(record.migrations_per_interval, [2, 0])
        np.testing.assert_array_equal(record.cumulative_migrations, [2, 2])

    def test_pms_used_series(self):
        dc = self._dc()
        monitor = Monitor(3)
        monitor.record_interval(dc, [])
        record = monitor.finalize()
        np.testing.assert_array_equal(record.pms_used_series, [2])
        assert record.final_pms_used == 2

    def test_mismatched_fleet_rejected(self):
        monitor = Monitor(2)
        with pytest.raises(ValueError, match="built for 2"):
            monitor.record_interval(self._dc(), [])

    def test_empty_record(self):
        record = Monitor(1).finalize()
        assert record.final_pms_used == 0
        assert record.total_migrations == 0

    def test_invalid_n_pms(self):
        with pytest.raises(ValueError):
            Monitor(0)


class TestEnergyModel:
    @staticmethod
    def one_pm(model, load, capacity):
        return model.fleet_power(np.array([load]), np.array([capacity]),
                                 np.array([True]))

    def test_idle_and_peak_endpoints(self):
        m = EnergyModel(idle_power=100.0, peak_power=200.0)
        assert self.one_pm(m, 0.0, 50.0) == 100.0
        assert self.one_pm(m, 50.0, 50.0) == 200.0
        assert self.one_pm(m, 25.0, 50.0) == 150.0

    def test_load_clipped_to_capacity(self):
        m = EnergyModel(100.0, 200.0)
        assert self.one_pm(m, 80.0, 50.0) == 200.0

    def test_fleet_power(self):
        m = EnergyModel(100.0, 200.0)
        loads = np.array([0.0, 25.0, 50.0])
        caps = np.array([50.0, 50.0, 50.0])
        on = np.array([True, True, False])
        assert m.fleet_power(loads, caps, on) == pytest.approx(100.0 + 150.0)

    def test_fleet_shape_mismatch(self):
        m = EnergyModel()
        with pytest.raises(ValueError):
            m.fleet_power(np.zeros(2), np.ones(3), np.ones(3, dtype=bool))

    def test_run_energy(self):
        m = EnergyModel(100.0, 200.0)
        series = np.array([2, 2, 1])
        # mean_utilization 0.5 -> 150 W per PM
        assert m.run_energy(series, interval_seconds=10.0) == pytest.approx(
            5 * 150.0 * 10.0
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(idle_power=300.0, peak_power=200.0)
        m = EnergyModel()
        with pytest.raises(ValueError):
            m.run_energy(np.array([1]), interval_seconds=10.0, mean_utilization=1.5)
