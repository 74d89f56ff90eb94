"""Tests for repro.simulation.failures — PM crash injection."""

import numpy as np
import pytest

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import Placement, PMSpec, VMSpec
from repro.simulation.datacenter import Datacenter
from repro.simulation.failures import FailureInjector
from repro.workload.patterns import generate_pattern_instance
from tests.helpers import set_on


def vm(base, extra=0.0):
    return VMSpec(0.01, 0.09, base, extra)


def simple_dc(n_vms=2, n_pms=3, cap=100.0, seed=0):
    vms = [vm(10.0, 5.0) for _ in range(n_vms)]
    pms = [PMSpec(cap)] * n_pms
    placement = Placement(n_vms, n_pms,
                          assignment=np.zeros(n_vms, dtype=int))
    return Datacenter(vms, pms, placement, seed=seed)


class TestFailureInjector:
    def test_no_failures_at_zero_probability(self):
        dc = simple_dc()
        inj = FailureInjector(dc, failure_probability=0.0, seed=0)
        for t in range(50):
            inj.step(t)
        assert inj.record.failures == 0
        assert not inj.failed.any()

    def test_certain_failure_evacuates(self):
        dc = simple_dc()
        inj = FailureInjector(dc, failure_probability=1.0,
                              repair_probability=0.0, seed=1)
        inj.step(0)
        assert inj.record.failures >= 1
        assert inj.failed[0]
        # PM 0's VMs moved off
        assert dc.placement.vms_on(0).size == 0
        assert inj.record.evacuations == 2

    def test_stranded_when_nowhere_to_go(self):
        # One PM only: its VMs cannot be evacuated.
        dc = simple_dc(n_pms=1)
        inj = FailureInjector(dc, failure_probability=1.0,
                              repair_probability=0.0, seed=2)
        inj.step(0)
        assert len(inj.stranded_vms) == 2
        assert inj.record.stranded_vm_intervals == 2

    def test_stranded_cleared_on_recovery(self):
        dc = simple_dc(n_pms=1)
        inj = FailureInjector(dc, failure_probability=1.0,
                              repair_probability=0.0, seed=3)
        inj.step(0)
        assert inj.stranded_vms
        inj.failure_probability = 0.0
        inj.repair_probability = 1.0
        inj.step(1)
        assert inj.record.recoveries == 1
        assert not inj.stranded_vms  # host healthy again

    def test_stranded_retry_succeeds_when_demand_shrinks(self):
        # Two PMs; the stranded VM is spiking during the crash and only
        # fits the healthy PM once its spike ends.  Degradation is off so
        # the plain stranded-retry path is exercised.
        vms = [VMSpec(0.01, 0.09, 30.0, 40.0), vm(60.0)]
        pms = [PMSpec(100.0), PMSpec(100.0)]
        placement = Placement(2, 2, assignment=np.array([0, 1]))
        dc = Datacenter(vms, pms, placement, seed=4)
        set_on(dc, 0, True)  # demand 70 > PM1's free 40
        inj = FailureInjector(dc, failure_probability=0.0,
                              repair_probability=0.0,
                              degrade_stranded=False, seed=5)
        inj.failed[0] = True
        inj.record.failures += 1
        inj._evacuate(0)
        assert dc.placement.pm_of(0) == 0  # stranded on the dead host
        assert 0 in inj.stranded_vms
        # Spike ends -> demand 30 fits PM1's free 40 -> retry succeeds.
        set_on(dc, 0, False)
        inj.step(0)
        assert dc.placement.pm_of(0) == 1
        assert not inj.stranded_vms

    def test_failed_pm_not_an_evacuation_target(self):
        dc = simple_dc(n_pms=3)
        inj = FailureInjector(dc, failure_probability=0.0, seed=6)
        inj.failed[1] = True
        inj.failed[0] = True
        inj._evacuate(0)
        for vm_id in (0, 1):
            assert dc.placement.pm_of(vm_id) == 2

    def test_evacuation_ties_go_to_the_lowest_index(self):
        # 299 idle PMs tie at load 0 (enough for NumPy's SIMD sorts to
        # reorder equal keys); the least-loaded target must be PM 0.
        vms = [vm(10.0)]
        pms = [PMSpec(100.0)] * 300
        placement = Placement(1, 300, assignment=np.array([150]))
        dc = Datacenter(vms, pms, placement, seed=0)
        inj = FailureInjector(dc, failure_probability=1.0,
                              repair_probability=0.0, seed=0)
        inj.step(0)
        assert inj.failed[150]
        assert dc.placement.pm_of(0) == 0

    def test_failed_intervals_accumulate(self):
        dc = simple_dc()
        inj = FailureInjector(dc, failure_probability=1.0,
                              repair_probability=0.0, seed=7)
        inj.step(0)
        down_now = int(inj.failed.sum())
        inj.failure_probability = 0.0
        inj.step(1)
        assert inj.record.failed_intervals >= 2 * down_now - 1

    def test_probability_validation(self):
        dc = simple_dc()
        with pytest.raises(ValueError):
            FailureInjector(dc, failure_probability=1.5)
        with pytest.raises(ValueError):
            FailureInjector(dc, repair_probability=-0.1)

    def test_reproducible(self):
        a_dc = simple_dc(seed=8)
        b_dc = simple_dc(seed=8)
        a = FailureInjector(a_dc, failure_probability=0.3,
                            repair_probability=0.3, seed=9)
        b = FailureInjector(b_dc, failure_probability=0.3,
                            repair_probability=0.3, seed=9)
        for t in range(30):
            a.step(t)
            b.step(t)
        assert a.record == b.record


class TestResilienceComparison:
    def test_denser_packing_strands_more(self):
        """RB's denser packing leaves less evacuation headroom than QUEUE's
        reserved fleet when PMs crash."""
        from repro.placement.ffd import ffd_by_base

        totals = {}
        for name, placer in (("QUEUE", QueuingFFD(rho=0.01, d=16)),
                             ("RB", ffd_by_base(max_vms_per_pm=16))):
            stranded = 0
            for seed in range(5):
                vms, pms = generate_pattern_instance("equal", 80, seed=seed)
                placement = placer.place(vms, pms)
                dc = Datacenter(vms, pms, placement, seed=seed + 100)
                inj = FailureInjector(dc, failure_probability=0.01,
                                      repair_probability=0.1, seed=seed + 200)
                for t in range(100):
                    dc.step()
                    inj.step(t)
                stranded += inj.record.stranded_vm_intervals
            totals[name] = stranded
        # QUEUE's headroom absorbs evacuations at least as well as RB's
        # tight packing (usually strictly better).
        assert totals["QUEUE"] <= totals["RB"]
