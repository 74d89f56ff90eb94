"""Tests for repro.core.types — VMSpec, PMSpec, Placement."""

import numpy as np
import pytest

from repro.core.types import UNPLACED, Placement, PMSpec, VMSpec, vm_arrays


class TestVMSpec:
    def test_peak_is_base_plus_extra(self):
        vm = VMSpec(0.01, 0.09, r_base=10.0, r_extra=5.0)
        assert vm.r_peak == 15.0

    def test_demand_by_state(self):
        vm = VMSpec(0.01, 0.09, 10.0, 5.0)
        assert vm.demand(False) == 10.0
        assert vm.demand(True) == 15.0

    def test_chain_parameters(self):
        vm = VMSpec(0.02, 0.08, 1.0, 1.0)
        chain = vm.chain()
        assert chain.p_on == 0.02 and chain.p_off == 0.08

    def test_frozen(self):
        vm = VMSpec(0.01, 0.09, 1.0, 1.0)
        with pytest.raises(AttributeError):
            vm.r_base = 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            VMSpec(0.0, 0.09, 1.0, 1.0)
        with pytest.raises(ValueError):
            VMSpec(0.01, 0.09, -1.0, 1.0)
        with pytest.raises(ValueError):
            VMSpec(0.01, 0.09, 1.0, -1.0)

    def test_zero_spike_allowed(self):
        assert VMSpec(0.01, 0.09, 5.0, 0.0).r_peak == 5.0


class TestPMSpec:
    def test_capacity(self):
        assert PMSpec(100.0).capacity == 100.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PMSpec(0.0)
        with pytest.raises(ValueError):
            PMSpec(-5.0)


class TestPlacement:
    def test_starts_unplaced(self):
        p = Placement(3, 2)
        assert not p.all_placed
        assert p.n_used_pms == 0
        np.testing.assert_array_equal(p.assignment, [UNPLACED] * 3)

    def test_place_and_query(self):
        p = Placement(3, 2)
        p.place(0, 1)
        p.place(1, 1)
        assert p.pm_of(0) == 1
        np.testing.assert_array_equal(p.vms_on(1), [0, 1])
        assert p.vms_on(0).size == 0
        assert p.n_used_pms == 1

    def test_double_place_rejected(self):
        p = Placement(2, 2)
        p.place(0, 0)
        with pytest.raises(ValueError, match="already placed"):
            p.place(0, 1)

    def test_bounds_checked(self):
        p = Placement(2, 2)
        with pytest.raises(ValueError):
            p.place(5, 0)
        with pytest.raises(ValueError):
            p.place(0, 5)
        with pytest.raises(ValueError):
            p.pm_of(-1)

    def test_used_pms_sorted_unique(self):
        p = Placement(4, 5)
        for vm, pm in [(0, 3), (1, 1), (2, 3), (3, 1)]:
            p.place(vm, pm)
        np.testing.assert_array_equal(p.used_pms(), [1, 3])

    def test_copy_is_independent(self):
        p = Placement(2, 2)
        p.place(0, 0)
        q = p.copy()
        q.place(1, 1)
        assert p.pm_of(1) == UNPLACED

    def test_iteration(self):
        p = Placement(3, 2, assignment=np.array([1, UNPLACED, 0]))
        assert sorted(p) == [(0, 1), (2, 0)]

    def test_constructor_validates_assignment(self):
        with pytest.raises(ValueError, match="shape"):
            Placement(3, 2, assignment=np.array([0, 1]))
        with pytest.raises(ValueError, match="entries"):
            Placement(2, 2, assignment=np.array([0, 5]))

    def test_constructor_copies_assignment(self):
        a = np.array([0, 1])
        p = Placement(2, 2, assignment=a)
        a[0] = 1
        assert p.pm_of(0) == 0


class TestVmArrays:
    def test_columns(self):
        vms = [VMSpec(0.01, 0.09, 1.0, 2.0), VMSpec(0.02, 0.08, 3.0, 4.0)]
        cols = vm_arrays(vms)
        np.testing.assert_array_equal(cols["r_base"], [1.0, 3.0])
        np.testing.assert_array_equal(cols["r_extra"], [2.0, 4.0])
        np.testing.assert_array_equal(cols["r_peak"], [3.0, 7.0])
        np.testing.assert_array_equal(cols["p_on"], [0.01, 0.02])

    def test_empty(self):
        cols = vm_arrays([])
        assert all(v.size == 0 for v in cols.values())
