"""Tests for repro.simulation.triggers."""

import numpy as np
import pytest

from repro.core.types import Placement, PMSpec, VMSpec
from repro.simulation.datacenter import Datacenter
from repro.simulation.scheduler import DynamicScheduler
from repro.simulation.triggers import OverflowTrigger, SlidingWindowCVRTrigger
from tests.helpers import set_on


def overloadable_dc(seed=0):
    vms = [VMSpec(0.01, 0.09, 40.0, 30.0), VMSpec(0.01, 0.09, 40.0, 30.0)]
    pms = [PMSpec(90.0), PMSpec(90.0)]
    placement = Placement(2, 2, assignment=np.array([0, 0]))
    return Datacenter(vms, pms, placement, seed=seed)


def force_spike(dc, vm_ids):
    for v in vm_ids:
        set_on(dc, v, True)


class TestOverflowTrigger:
    def test_always_fires(self):
        trigger = OverflowTrigger()
        trigger.observe(overloadable_dc(), 0)
        assert trigger.should_migrate(0)
        assert trigger.should_migrate(99)


class TestSlidingWindowCVRTrigger:
    def test_single_violation_in_long_window_tolerated_once_history_builds(self):
        dc = overloadable_dc()
        trigger = SlidingWindowCVRTrigger(2, rho=0.2, window=10)
        # 9 clean intervals
        for t in range(9):
            trigger.observe(dc, t)
        # one violating interval: windowed CVR = 1/10 = 0.1 <= 0.2
        force_spike(dc, [0, 1])
        trigger.observe(dc, 9)
        assert trigger.windowed_cvr(0) == pytest.approx(0.1)
        assert not trigger.should_migrate(0)

    def test_persistent_violation_fires(self):
        dc = overloadable_dc()
        trigger = SlidingWindowCVRTrigger(2, rho=0.2, window=10)
        force_spike(dc, [0, 1])
        for t in range(5):
            trigger.observe(dc, t)
        assert trigger.windowed_cvr(0) == 1.0
        assert trigger.should_migrate(0)

    def test_window_rolls_off_old_violations(self):
        dc = overloadable_dc()
        trigger = SlidingWindowCVRTrigger(2, rho=0.3, window=4)
        force_spike(dc, [0, 1])
        trigger.observe(dc, 0)  # violation
        # now calm down
        for i in range(dc.n_vms):
            set_on(dc, i, False)
        for t in range(1, 5):
            trigger.observe(dc, t)
        assert trigger.windowed_cvr(0) == 0.0

    def test_early_violation_exceeds_any_small_rho(self):
        dc = overloadable_dc()
        trigger = SlidingWindowCVRTrigger(2, rho=0.01, window=50)
        force_spike(dc, [0, 1])
        trigger.observe(dc, 0)
        assert trigger.windowed_cvr(0) == 1.0  # measured over 1 interval
        assert trigger.should_migrate(0)

    def test_non_violating_pm_never_fires(self):
        dc = overloadable_dc()
        trigger = SlidingWindowCVRTrigger(2, rho=0.01, window=5)
        force_spike(dc, [0, 1])
        for t in range(5):
            trigger.observe(dc, t)
        assert trigger.windowed_cvr(1) == 0.0  # PM 1 is empty
        assert not trigger.should_migrate(1)

    def test_fleet_size_checked(self):
        trigger = SlidingWindowCVRTrigger(3)
        with pytest.raises(ValueError, match="built for"):
            trigger.observe(overloadable_dc(), 0)

    def test_pm_id_validated(self):
        trigger = SlidingWindowCVRTrigger(2)
        with pytest.raises(ValueError):
            trigger.windowed_cvr(5)

    def test_empty_history_cvr_zero(self):
        assert SlidingWindowCVRTrigger(2).windowed_cvr(0) == 0.0


class TestSchedulerIntegration:
    def test_very_tolerant_trigger_absorbs_overflows(self):
        """A near-1 rho absorbs transient overflows instead of migrating:
        far fewer migrations, at the price of recorded violations.  (For
        intermediate rho the count is NOT monotone — tolerating an overflow
        can merely postpone the migration — so only the extremes are
        asserted.)"""
        from repro.placement.ffd import ffd_by_base
        from repro.simulation.scheduler import run_simulation
        from repro.workload.patterns import generate_pattern_instance

        vms, pms = generate_pattern_instance("equal", 80, seed=99)
        placement = ffd_by_base(max_vms_per_pm=16).place(vms, pms)
        reactive = run_simulation(vms, pms, placement, n_intervals=100, seed=7)
        tolerant = run_simulation(
            vms, pms, placement, n_intervals=100, seed=7,
            trigger=SlidingWindowCVRTrigger(len(pms), rho=0.95, window=20),
        )
        assert reactive.total_migrations > 0
        assert tolerant.total_migrations < reactive.total_migrations / 2
        assert (tolerant.record.violation_counts.sum()
                >= reactive.record.violation_counts.sum())

    def test_scheduler_respects_trigger_veto(self):
        dc = overloadable_dc()
        force_spike(dc, [0, 1])

        class Veto:
            def observe(self, dc, time):
                pass

            def should_migrate(self, pm_id):
                return False

        scheduler = DynamicScheduler(dc, trigger=Veto())
        assert scheduler.resolve_overloads(0) == []
        assert dc.overloaded_pms().size == 1  # violation tolerated
