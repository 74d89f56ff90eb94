"""Tests for per-VM violation attribution in the monitor."""

import numpy as np
import pytest

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import Placement, PMSpec, VMSpec
from repro.placement.ffd import ffd_by_base
from repro.simulation.datacenter import Datacenter
from repro.simulation.monitor import Monitor
from repro.simulation.scheduler import run_simulation
from repro.workload.patterns import generate_pattern_instance
from tests.helpers import set_on


def make_dc():
    vms = [VMSpec(0.01, 0.09, 60.0, 50.0), VMSpec(0.01, 0.09, 30.0, 5.0),
           VMSpec(0.01, 0.09, 10.0, 5.0)]
    pms = [PMSpec(100.0), PMSpec(100.0)]
    placement = Placement(3, 2, assignment=np.array([0, 0, 1]))
    return Datacenter(vms, pms, placement, seed=0)


class TestVmAttribution:
    def test_vms_on_violated_pm_suffer(self):
        dc = make_dc()
        monitor = Monitor(2, n_vms=3)
        monitor.record_interval(dc, [])  # loads 90 / 10: no violation
        set_on(dc, 0, True)  # PM0 load 140 > 100
        monitor.record_interval(dc, [])
        record = monitor.finalize()
        np.testing.assert_array_equal(record.vm_suffering_counts, [1, 1, 0])
        np.testing.assert_allclose(record.vm_suffering_fraction(),
                                   [0.5, 0.5, 0.0])

    def test_untracked_monitor_returns_empty(self):
        dc = make_dc()
        monitor = Monitor(2)
        monitor.record_interval(dc, [])
        record = monitor.finalize()
        assert record.vm_suffering_counts.size == 0
        assert record.vm_suffering_fraction().size == 0

    def test_vm_count_mismatch_rejected(self):
        dc = make_dc()
        monitor = Monitor(2, n_vms=5)
        with pytest.raises(ValueError, match="tracks"):
            monitor.record_interval(dc, [])

    def test_negative_vm_count_rejected(self):
        with pytest.raises(ValueError):
            Monitor(2, n_vms=-1)

    @staticmethod
    def _spare_free(placer, n, seed):
        """Place with `placer`, then truncate the fleet to exactly the used
        PMs so overflows cannot always be migrated away (and therefore get
        recorded as violations the monitor attributes to VMs)."""
        vms, pms = generate_pattern_instance("equal", n, seed=seed)
        placement = placer.place(vms, pms)
        m = int(placement.used_pms().max()) + 1
        return vms, pms[:m], Placement(len(vms), m,
                                       assignment=placement.assignment)

    def test_run_simulation_populates_suffering(self):
        vms, pms, placement = self._spare_free(
            ffd_by_base(max_vms_per_pm=16), 50, seed=1
        )
        result = run_simulation(vms, pms, placement, n_intervals=200, seed=2)
        assert result.record.vm_suffering_counts.shape == (50,)
        # The spare-free RB fleet cannot absorb every spike collision.
        assert result.record.vm_suffering_counts.sum() > 0

    def test_queue_spreads_less_pain_than_rb(self):
        rb_vms, rb_pms, rb_place = self._spare_free(
            ffd_by_base(max_vms_per_pm=16), 80, seed=3
        )
        q_vms, q_pms, q_place = self._spare_free(
            QueuingFFD(rho=0.01, d=16), 80, seed=3
        )
        res_rb = run_simulation(rb_vms, rb_pms, rb_place,
                                n_intervals=200, seed=4)
        res_q = run_simulation(q_vms, q_pms, q_place,
                               n_intervals=200, seed=4)
        assert (res_q.record.vm_suffering_fraction().mean()
                < res_rb.record.vm_suffering_fraction().mean())

    def test_suffering_consistent_with_pm_violations(self):
        """Each PM violation interval contributes exactly its hosted VM
        count to the suffering totals (when no migrations move VMs)."""
        dc = make_dc()
        monitor = Monitor(2, n_vms=3)
        set_on(dc, 0, True)
        for _ in range(5):
            monitor.record_interval(dc, [])
        record = monitor.finalize()
        assert record.violation_counts[0] == 5
        assert record.vm_suffering_counts.sum() == 5 * 2  # 2 VMs on PM0
