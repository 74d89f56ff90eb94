"""Tests for repro.simulation.datacenter."""

import numpy as np
import pytest

from repro.core.types import Placement, PMSpec, VMSpec
from repro.simulation.datacenter import Datacenter
from tests.helpers import set_on

P_ON, P_OFF = 0.01, 0.09


def vm(base, extra, p_on=P_ON, p_off=P_OFF):
    return VMSpec(p_on, p_off, base, extra)


def build_dc(seed=0):
    vms = [vm(10, 5), vm(20, 10), vm(5, 5)]
    pms = [PMSpec(50.0), PMSpec(50.0), PMSpec(50.0)]
    placement = Placement(3, 3, assignment=np.array([0, 0, 1]))
    return Datacenter(vms, pms, placement, seed=seed), vms, pms


class TestConstruction:
    def test_vm_ids_registered_on_pms(self):
        dc, _, _ = build_dc()
        assert dc.placement.vms_on(0).tolist() == [0, 1]
        assert dc.placement.vms_on(1).tolist() == [2]
        assert dc.placement.vms_on(2).tolist() == []
        assert dc.hosted_counts().tolist() == [2, 1, 0]

    def test_rejects_incomplete_placement(self):
        vms = [vm(1, 1)]
        pms = [PMSpec(10.0)]
        with pytest.raises(ValueError, match="place every VM"):
            Datacenter(vms, pms, Placement(1, 1))

    def test_rejects_dimension_mismatch(self):
        vms = [vm(1, 1)]
        pms = [PMSpec(10.0)]
        placement = Placement(2, 1, assignment=np.array([0, 0]))
        with pytest.raises(ValueError, match="instance has"):
            Datacenter(vms, pms, placement)

    def test_all_off_initially(self):
        dc, _, _ = build_dc()
        assert not dc.on_states().any()

    def test_stationary_start(self):
        vms = [vm(1, 1)] * 5000
        pms = [PMSpec(1e9)]
        placement = Placement(5000, 1, assignment=np.zeros(5000, dtype=int))
        dc = Datacenter(vms, pms, placement, seed=0, start_stationary=True)
        on_frac = np.mean(dc.on_states())
        assert on_frac == pytest.approx(0.1, abs=0.02)

    def test_placement_copied(self):
        dc, _, _ = build_dc()
        original = Placement(3, 3, assignment=np.array([0, 0, 1]))
        dc2 = Datacenter([vm(1, 1)] * 3, [PMSpec(50.0)] * 3, original, seed=0)
        dc2.migrate(0, 2)
        assert original.pm_of(0) == 0


class TestLoads:
    def test_pm_load_all_off(self):
        dc, _, _ = build_dc()
        assert dc.pm_loads()[0] == pytest.approx(30.0)
        assert dc.pm_loads()[1] == pytest.approx(5.0)
        assert dc.pm_loads()[2] == 0.0

    def test_pm_loads_vector_matches_scalar(self):
        dc, _, _ = build_dc()
        dc.step()
        loads = dc.pm_loads()
        demands = dc.vm_demands()
        for j in range(3):
            hosted = dc.placement.vms_on(j)
            assert loads[j] == pytest.approx(sum(demands[v] for v in hosted))

    def test_demand_reflects_state(self):
        dc, _, _ = build_dc()
        set_on(dc, 0, True)
        assert dc.pm_loads()[0] == pytest.approx(35.0)

    def test_base_loads_state_independent(self):
        dc, _, _ = build_dc()
        base_before = dc.pm_base_loads().copy()
        for _ in range(20):
            dc.step()
        np.testing.assert_allclose(dc.pm_base_loads(), base_before)

    def test_overloaded_pms(self):
        vms = [vm(30, 30), vm(30, 30)]
        pms = [PMSpec(70.0)]
        placement = Placement(2, 1, assignment=np.array([0, 0]))
        dc = Datacenter(vms, pms, placement, seed=0)
        assert dc.overloaded_pms().size == 0
        for i in range(dc.n_vms):
            set_on(dc, i, True)
        np.testing.assert_array_equal(dc.overloaded_pms(), [0])

    def test_used_pm_count(self):
        dc, _, _ = build_dc()
        assert dc.used_pm_count() == 2


class TestDynamics:
    def test_step_updates_runtime_objects(self):
        dc, _, _ = build_dc(seed=42)
        for _ in range(200):
            dc.step()
        flags = dc.on_states()
        np.testing.assert_array_equal(flags, dc._on)
        demands = np.where(flags, [15.0, 30.0, 10.0], [10.0, 20.0, 5.0])
        np.testing.assert_array_equal(dc.vm_demands(), demands)

    def test_long_run_on_fraction(self):
        vms = [vm(1, 1)] * 50
        pms = [PMSpec(1e9)]
        placement = Placement(50, 1, assignment=np.zeros(50, dtype=int))
        dc = Datacenter(vms, pms, placement, seed=1)
        on_counts = []
        for _ in range(20_000):
            dc.step()
            on_counts.append(dc._on.sum())
        assert np.mean(on_counts) / 50 == pytest.approx(0.1, abs=0.01)

    def test_reproducible(self):
        a, _, _ = build_dc(seed=7)
        b, _, _ = build_dc(seed=7)
        for _ in range(100):
            a.step()
            b.step()
        np.testing.assert_array_equal(a._on, b._on)


class TestMigrate:
    def test_migrate_moves_vm(self):
        dc, _, _ = build_dc()
        src = dc.migrate(0, 2)
        assert src == 0
        assert dc.placement.pm_of(0) == 2
        assert 0 not in dc.placement.vms_on(0)
        assert 0 in dc.placement.vms_on(2)
        assert dc.hosted_counts().tolist() == [1, 1, 1]

    def test_migrate_preserves_load_total(self):
        dc, _, _ = build_dc()
        total_before = dc.pm_loads().sum()
        dc.migrate(1, 2)
        assert dc.pm_loads().sum() == pytest.approx(total_before)


class TestRestoreState:
    def test_rejects_unplaced_vm(self):
        dc, _, _ = build_dc()
        state = dc.capture_state()
        state["assignment"] = [0, -1, 1]
        with pytest.raises(ValueError, match="'assignment'"):
            dc.restore_state(state)
        assert dc.pm_loads().tolist() == [30.0, 5.0, 0.0]

    def test_rejects_short_assumed_law(self):
        dc, _, _ = build_dc()
        state = dc.capture_state()
        state["assumed_p_on"] = [0.5]
        with pytest.raises(ValueError, match="'assumed_p_on'"):
            dc.restore_state(state)

    def test_state_without_assumed_law_falls_back_to_specs(self):
        dc, vms, _ = build_dc()
        dc.set_assumed_law([0.5] * 3, [0.5] * 3)
        state = dc.capture_state()
        del state["assumed_p_on"], state["assumed_p_off"]
        dc.restore_state(state)
        np.testing.assert_array_equal(
            dc.assumed_on_probability(),
            [v.p_on / (v.p_on + v.p_off) for v in vms])


class TestMigrateValidation:
    def test_bad_indices_leave_the_fleet_unchanged(self):
        dc, _, _ = build_dc()
        with pytest.raises(ValueError, match="target_pm"):
            dc.migrate(0, 3)
        with pytest.raises(ValueError, match="vm_id"):
            dc.migrate(3, 0)
        assert dc.placement.assignment.tolist() == [0, 0, 1]
        assert dc.hosted_counts().tolist() == [2, 1, 0]
