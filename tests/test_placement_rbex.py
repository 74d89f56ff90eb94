"""Tests for repro.placement.rbex — the delta-reservation baseline."""

import pytest

from repro.core.types import PMSpec, VMSpec
from repro.placement.base import InsufficientCapacityError
from repro.placement.ffd import ffd_by_base
from repro.placement.rbex import RBExPlacer
from tests.helpers import check_placement_complete

P_ON, P_OFF = 0.01, 0.09


def vm(base, extra=0.0):
    return VMSpec(P_ON, P_OFF, base, extra)


class TestRBEx:
    def test_reserves_delta_fraction(self):
        # delta=0.3 on a 10-unit PM leaves 7 usable: two 3.5-base VMs fit,
        # a third does not.
        placer = RBExPlacer(delta=0.3)
        vms = [vm(3.5), vm(3.5), vm(3.5)]
        placement = placer.place(vms, [PMSpec(10.0), PMSpec(10.0)])
        assert placement.n_used_pms == 2

    def test_delta_zero_equals_rb(self, medium_instance):
        vms, pms = medium_instance
        rbex = RBExPlacer(delta=0.0, max_vms_per_pm=16).place(vms, pms)
        rb = ffd_by_base(max_vms_per_pm=16).place(vms, pms)
        assert rbex.n_used_pms == rb.n_used_pms

    def test_uses_at_least_as_many_pms_as_rb(self, medium_instance):
        vms, pms = medium_instance
        rbex = RBExPlacer(delta=0.3, max_vms_per_pm=16).place(vms, pms)
        rb = ffd_by_base(max_vms_per_pm=16).place(vms, pms)
        assert rbex.n_used_pms >= rb.n_used_pms

    def test_larger_delta_uses_more_pms(self, medium_instance):
        vms, pms = medium_instance
        small = RBExPlacer(delta=0.1, max_vms_per_pm=16).place(vms, pms)
        large = RBExPlacer(delta=0.5, max_vms_per_pm=16).place(vms, pms)
        assert large.n_used_pms >= small.n_used_pms

    def test_original_capacities_untouched(self):
        pms = [PMSpec(10.0)]
        RBExPlacer(delta=0.3).place([vm(5.0)], pms)
        assert pms[0].capacity == 10.0

    def test_complete(self, medium_instance):
        vms, pms = medium_instance
        placement = RBExPlacer(delta=0.3, max_vms_per_pm=16).place(vms, pms)
        check_placement_complete(placement)

    def test_base_loads_respect_shrunk_capacity(self, medium_instance):
        vms, pms = medium_instance
        placement = RBExPlacer(delta=0.3, max_vms_per_pm=16).place(vms, pms)
        import numpy as np

        loads = np.zeros(len(pms))
        for vm_idx, pm_idx in placement:
            loads[pm_idx] += vms[vm_idx].r_base
        caps = np.array([p.capacity for p in pms])
        assert np.all(loads <= 0.7 * caps + 1e-6)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            RBExPlacer(delta=1.0)
        with pytest.raises(ValueError):
            RBExPlacer(delta=-0.1)

    def test_infeasible_raises(self):
        with pytest.raises(InsufficientCapacityError):
            RBExPlacer(delta=0.5).place([vm(6.0)], [PMSpec(10.0)])

    def test_max_vms_per_pm_exposed(self):
        assert RBExPlacer(max_vms_per_pm=8).max_vms_per_pm == 8

    def test_name(self):
        assert RBExPlacer().name == "RB-EX"
