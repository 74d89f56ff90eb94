"""Tests for repro.simulation.migration — policies and idle deception."""

import numpy as np
import pytest

from repro.core.types import Placement, PMSpec, VMSpec
from repro.simulation.datacenter import Datacenter
from repro.simulation.migration import (
    StandardPolicy,
    select_target_least_loaded,
    select_target_reservation_aware,
    select_vm_largest_demand,
)
from tests.helpers import set_on

P_ON, P_OFF = 0.01, 0.09


def vm(base, extra):
    return VMSpec(P_ON, P_OFF, base, extra)


def make_dc(vms, pms, assignment, on_flags=None, seed=0):
    placement = Placement(len(vms), len(pms),
                          assignment=np.asarray(assignment))
    dc = Datacenter(vms, pms, placement, seed=seed)
    if on_flags is not None:
        for i, flag in enumerate(on_flags):
            set_on(dc, i, flag)
    return dc


class TestVmSelection:
    def test_largest_demand(self):
        dc = make_dc(
            [vm(10, 0), vm(30, 0), vm(20, 0)],
            [PMSpec(100.0)], [0, 0, 0],
        )
        assert select_vm_largest_demand(dc, 0) == 1

    def test_largest_demand_considers_spikes(self):
        dc = make_dc(
            [vm(10, 50), vm(30, 0)],
            [PMSpec(100.0)], [0, 0],
            on_flags=[True, False],
        )
        assert select_vm_largest_demand(dc, 0) == 0

    def test_empty_pm_raises(self):
        dc = make_dc([vm(1, 0)], [PMSpec(10.0), PMSpec(10.0)], [0])
        with pytest.raises(ValueError, match="hosts no VMs"):
            select_vm_largest_demand(dc, 1)


class TestTargetSelection:
    def test_least_loaded_prefers_used_pm(self):
        # PM0 overloaded source; PM1 used and light; PM2 idle.
        dc = make_dc(
            [vm(40, 0), vm(40, 0), vm(5, 0)],
            [PMSpec(60.0), PMSpec(60.0), PMSpec(60.0)],
            [0, 0, 1],
        )
        assert select_target_least_loaded(dc, 0, 0) == 1

    def test_least_loaded_powers_on_idle_as_last_resort(self):
        dc = make_dc(
            [vm(40, 0), vm(40, 0), vm(50, 0)],
            [PMSpec(60.0), PMSpec(60.0), PMSpec(60.0)],
            [0, 0, 1],
        )
        # VM 0 (40) does not fit on PM1 (50 + 40 > 60) -> idle PM2.
        assert select_target_least_loaded(dc, 0, 0) == 2

    def test_returns_none_when_nothing_fits(self):
        dc = make_dc(
            [vm(40, 0), vm(40, 0), vm(50, 0)],
            [PMSpec(60.0), PMSpec(60.0)],
            [0, 0, 1],
        )
        assert select_target_least_loaded(dc, 0, 0) is None

    def test_source_never_selected(self):
        dc = make_dc(
            [vm(10, 0)],
            [PMSpec(100.0), PMSpec(100.0)],
            [0],
        )
        assert select_target_least_loaded(dc, 0, 0) == 1

    def test_idle_deception_demonstrated(self):
        """The least-loaded policy picks a PM that merely *looks* idle: its
        VMs are OFF now but their bases fill the PM, so the move will
        overload it at the next spike — the paper's idle deception."""
        vms = [vm(30, 30),              # the migrating VM
               vm(25, 25), vm(25, 25),  # PM1: heavy bases, currently OFF
               vm(10, 10)]              # PM2: light but currently ON
        dc = make_dc(
            vms,
            [PMSpec(100.0), PMSpec(100.0), PMSpec(100.0)],
            [0, 1, 1, 2],
            on_flags=[False, False, False, True],
        )
        # observed loads: PM1 = 50 (deceptively idle), PM2 = 20
        target = select_target_least_loaded(dc, 0, 0)
        assert target == 2  # 20 < 50: picks PM2 here...
        # ...but make PM2's VM heavier-looking and PM1 still OFF:
        dc2 = make_dc(
            vms,
            [PMSpec(100.0), PMSpec(100.0), PMSpec(100.0)],
            [0, 1, 1, 2],
            on_flags=[False, False, False, False],
        )
        # observed: PM1 = 50, PM2 = 10 -> PM2; flip PM2's base up:
        vms3 = [vm(30, 30), vm(25, 25), vm(25, 25), vm(60, 30)]
        dc3 = make_dc(
            vms3,
            [PMSpec(100.0), PMSpec(100.0), PMSpec(100.0)],
            [0, 1, 1, 2],
            on_flags=[False, False, False, False],
        )
        target3 = select_target_least_loaded(dc3, 0, 0)
        assert target3 == 1
        # the deception: if both PM1 VMs spike, 50 + 50 + 30 > 100
        peak_after_move = sum(v.r_peak for v in (vms3[0], vms3[1], vms3[2]))
        assert peak_after_move > 100.0

    def test_reservation_aware_avoids_deceptively_idle_pm(self):
        vms = [vm(30, 30), vm(25, 25), vm(25, 25), vm(60, 30)]
        dc = make_dc(
            vms,
            [PMSpec(100.0), PMSpec(100.0), PMSpec(100.0), PMSpec(100.0)],
            [0, 1, 1, 2],
            on_flags=[False, False, False, False],
        )
        # base-aware with 30% headroom: PM1 bases 50 + 30 = 80 > 70 -> reject;
        # PM2 bases 60 + 30 = 90 > 70 -> reject; opens idle PM3 instead.
        target = select_target_reservation_aware(dc, 0, 0, headroom_fraction=0.3)
        assert target == 3


class TestStandardPolicy:
    def test_default_bundle(self):
        policy = StandardPolicy()
        dc = make_dc(
            [vm(40, 0), vm(10, 0), vm(5, 0)],
            [PMSpec(45.0), PMSpec(45.0)],
            [0, 0, 1],
        )
        assert policy.pick_vm(dc, 0) == 0
        assert policy.pick_target(dc, 1, 0) == 1

    def test_custom_functions(self):
        def smallest(dc, pm_id):
            vm_ids = dc.placement.vms_on(pm_id)
            return int(vm_ids[np.argmin(dc.vm_demands()[vm_ids])])

        policy = StandardPolicy(pick_vm_fn=smallest,
                                pick_target_fn=select_target_reservation_aware)
        dc = make_dc(
            [vm(5, 0), vm(15, 0), vm(40, 0)],
            [PMSpec(50.0), PMSpec(100.0)],
            [0, 0, 0],
        )
        assert policy.pick_vm(dc, 0) == 0
        assert policy.pick_target(dc, 0, 0) == 1
