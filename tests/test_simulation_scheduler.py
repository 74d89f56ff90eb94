"""Tests for repro.simulation.scheduler and the end-to-end run loop."""

import numpy as np
import pytest

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import Placement, PMSpec, VMSpec
from repro.placement.ffd import ffd_by_base, ffd_by_peak
from repro.simulation.datacenter import Datacenter
from repro.simulation.migration import StandardPolicy
from repro.simulation.scheduler import DynamicScheduler, run_simulation
from repro.workload.patterns import generate_pattern_instance
from tests.helpers import set_on

P_ON, P_OFF = 0.01, 0.09


def vm(base, extra):
    return VMSpec(P_ON, P_OFF, base, extra)


class TestResolveOverloads:
    def test_no_overload_no_migration(self):
        vms = [vm(10, 5), vm(10, 5)]
        pms = [PMSpec(100.0), PMSpec(100.0)]
        placement = Placement(2, 2, assignment=np.array([0, 0]))
        dc = Datacenter(vms, pms, placement, seed=0)
        scheduler = DynamicScheduler(dc)
        assert scheduler.resolve_overloads(0) == []

    def test_overload_triggers_migration(self):
        vms = [vm(40, 30), vm(40, 30)]
        pms = [PMSpec(90.0), PMSpec(90.0)]
        placement = Placement(2, 2, assignment=np.array([0, 0]))
        dc = Datacenter(vms, pms, placement, seed=0)
        for i in range(dc.n_vms):
            set_on(dc, i, True)  # both spike: load 140 > 90
        events = DynamicScheduler(dc).resolve_overloads(time=5)
        assert len(events) == 1
        e = events[0]
        assert e.time == 5 and e.source_pm == 0 and e.target_pm == 1
        assert dc.overloaded_pms().size == 0

    def test_violation_tolerated_when_no_target(self):
        vms = [vm(40, 30), vm(40, 30)]
        pms = [PMSpec(90.0)]
        placement = Placement(2, 1, assignment=np.array([0, 0]))
        dc = Datacenter(vms, pms, placement, seed=0)
        for i in range(dc.n_vms):
            set_on(dc, i, True)
        events = DynamicScheduler(dc).resolve_overloads(0)
        assert events == []
        assert dc.overloaded_pms().size == 1

    def test_lone_oversized_vm_not_bounced(self):
        vms = [vm(100, 50)]
        pms = [PMSpec(90.0), PMSpec(90.0)]
        placement = Placement(1, 2, assignment=np.array([0]))
        dc = Datacenter(vms, pms, placement, seed=0)
        events = DynamicScheduler(dc).resolve_overloads(0)
        assert events == []  # single VM over capacity: nowhere is better

    def test_migration_budget_respected(self):
        vms = [vm(30, 0) for _ in range(6)]
        pms = [PMSpec(60.0)] + [PMSpec(200.0)] * 3
        placement = Placement(6, 4, assignment=np.zeros(6, dtype=int))
        dc = Datacenter(vms, pms, placement, seed=0)
        scheduler = DynamicScheduler(dc, max_migrations_per_interval=2)
        events = scheduler.resolve_overloads(0)
        assert len(events) == 2

    def test_cascading_overloads_all_visited(self):
        vms = [vm(50, 0), vm(50, 0), vm(50, 0), vm(50, 0)]
        pms = [PMSpec(80.0), PMSpec(80.0), PMSpec(300.0)]
        placement = Placement(4, 3, assignment=np.array([0, 0, 1, 1]))
        dc = Datacenter(vms, pms, placement, seed=0)
        events = DynamicScheduler(dc).resolve_overloads(0)
        assert len(events) == 2
        assert dc.overloaded_pms().size == 0


def boundary_fleet(cap0):
    """40 steady VMs with R_b rounded to 1-3 decimals on 4 PMs, after a
    random migration history; PM 0's capacity is ``cap0``.

    At the capacities the tests use, PM 0's load sits on a float boundary:
    summing its demands in an order other than VM-index order reads
    61.336 instead of 61.336000000000006.
    """
    rng = np.random.default_rng(41)
    r_base = [round(float(x), int(k)) for x, k in
              zip(rng.uniform(1.0, 8.0, 40), rng.integers(1, 4, 40))]
    vms = [vm(b, 0.0) for b in r_base]
    pms = [PMSpec(cap0)] + [PMSpec(1000.0)] * 3
    dc = Datacenter(vms, pms, Placement(40, 4, rng.integers(0, 4, 40)),
                    seed=0)
    for _ in range(120):
        dc.migrate(int(rng.integers(40)), int(rng.integers(4)))
    restored = Datacenter(vms, pms, dc.placement, seed=1)
    restored.restore_state(dc.capture_state())
    return dc, restored


class TestRestoredDecisions:
    """A restored fleet decides exactly as the live one it came from."""

    def test_resolve_overloads_at_a_float_boundary(self):
        live, restored = boundary_fleet(61.335999999)
        np.testing.assert_array_equal(live.overloaded_pms(), [0])
        events = DynamicScheduler(live).resolve_overloads(0)
        assert events == DynamicScheduler(restored).resolve_overloads(0)
        # the PM overloaded_pms() (and so the monitor) counts as violated
        # is acted upon, not left alone
        assert [e.source_pm for e in events] == [0]
        np.testing.assert_array_equal(live.placement.assignment,
                                      restored.placement.assignment)


class TestRunSimulation:
    def test_record_lengths(self):
        vms, pms = generate_pattern_instance("equal", 30, seed=0)
        placement = QueuingFFD().place(vms, pms)
        result = run_simulation(vms, pms, placement, n_intervals=50, seed=1)
        assert result.record.n_intervals == 50
        assert result.record.pms_used_series.shape == (50,)
        assert result.record.migrations_per_interval.shape == (50,)
        assert result.record.cumulative_migrations[-1] == result.total_migrations

    def test_initial_pms_used_matches_placement(self):
        vms, pms = generate_pattern_instance("equal", 30, seed=0)
        placement = QueuingFFD().place(vms, pms)
        result = run_simulation(vms, pms, placement, n_intervals=10, seed=1)
        assert result.initial_pms_used == placement.n_used_pms

    def test_reproducible(self):
        vms, pms = generate_pattern_instance("equal", 30, seed=2)
        placement = ffd_by_base(max_vms_per_pm=16).place(vms, pms)
        a = run_simulation(vms, pms, placement, n_intervals=60, seed=3)
        b = run_simulation(vms, pms, placement, n_intervals=60, seed=3)
        assert a.total_migrations == b.total_migrations
        np.testing.assert_array_equal(a.record.pms_used_series,
                                      b.record.pms_used_series)

    def test_rp_placement_never_migrates(self):
        """Peak provisioning can never overflow, hence zero migrations."""
        vms, pms = generate_pattern_instance("equal", 40, seed=4)
        placement = ffd_by_peak(max_vms_per_pm=16).place(vms, pms)
        result = run_simulation(vms, pms, placement, n_intervals=100, seed=5)
        assert result.total_migrations == 0
        assert result.record.violation_counts.sum() == 0

    def test_rb_migrates_more_than_queue(self):
        vms, pms = generate_pattern_instance("equal", 80, seed=6)
        rb = ffd_by_base(max_vms_per_pm=16).place(vms, pms)
        queue = QueuingFFD(rho=0.01, d=16).place(vms, pms)
        res_rb = run_simulation(vms, pms, rb, n_intervals=100, seed=7)
        res_q = run_simulation(vms, pms, queue, n_intervals=100, seed=7)
        assert res_rb.total_migrations > res_q.total_migrations

    def test_custom_policy_accepted(self):
        from repro.simulation.migration import select_target_reservation_aware

        vms, pms = generate_pattern_instance("equal", 40, seed=8)
        placement = ffd_by_base(max_vms_per_pm=16).place(vms, pms)
        policy = StandardPolicy(pick_target_fn=select_target_reservation_aware)
        result = run_simulation(vms, pms, placement, n_intervals=50,
                                policy=policy, seed=9)
        assert result.record.n_intervals == 50

    def test_invalid_intervals(self):
        vms, pms = generate_pattern_instance("equal", 5, seed=0)
        placement = QueuingFFD().place(vms, pms)
        with pytest.raises(ValueError):
            run_simulation(vms, pms, placement, n_intervals=0)
