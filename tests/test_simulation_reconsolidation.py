"""Tests for repro.simulation.reconsolidation."""

import numpy as np
import pytest

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import VMSpec
from repro.placement.ffd import ffd_by_base, ffd_by_peak
from repro.simulation.checkpoint import canonical_state_bytes
from repro.simulation.datacenter import Datacenter
from repro.simulation.engine import SimulationEngine
from repro.simulation.monitor import Monitor
from repro.simulation.reconsolidation import ReconsolidationScheduler
from repro.simulation.scenario import Scenario
from repro.workload.patterns import generate_pattern_instance


def run_with(scheduler_factory, vms, pms, placement, n_intervals=100, seed=0):
    dc = Datacenter(vms, pms, placement, seed=seed)
    scheduler = scheduler_factory(dc)
    monitor = Monitor(dc.n_pms)
    engine = SimulationEngine()

    def tick(t):
        dc.step()
        monitor.record_interval(dc, scheduler.resolve_overloads(t))

    engine.add_hook("tick", tick)
    engine.run(n_intervals)
    return monitor.finalize(), scheduler


class TestReconsolidation:
    def test_replan_fires_on_period(self):
        vms, pms = generate_pattern_instance("equal", 40, seed=1)
        # Start from a deliberately loose placement (peak provisioning).
        placement = ffd_by_peak(max_vms_per_pm=16).place(vms, pms)
        record, scheduler = run_with(
            lambda dc: ReconsolidationScheduler(dc, period=25),
            vms, pms, placement, n_intervals=60, seed=2,
        )
        # The first re-plan (t = 25) must compact the RP placement.
        assert scheduler.planned_migrations > 0
        assert record.pms_used_series[-1] < record.pms_used_series[0]

    def test_compacts_toward_queue_packing(self):
        vms, pms = generate_pattern_instance("equal", 60, seed=3)
        placement = ffd_by_peak(max_vms_per_pm=16).place(vms, pms)
        queue_pms = QueuingFFD(rho=0.01, d=16).place(vms, pms).n_used_pms
        record, _ = run_with(
            lambda dc: ReconsolidationScheduler(
                dc, placer=QueuingFFD(rho=0.01, d=16), period=20),
            vms, pms, placement, n_intervals=50, seed=4,
        )
        assert record.pms_used_series[-1] <= queue_pms + 2

    def test_planned_moves_capped(self):
        vms, pms = generate_pattern_instance("equal", 50, seed=5)
        placement = ffd_by_peak(max_vms_per_pm=16).place(vms, pms)
        record, scheduler = run_with(
            lambda dc: ReconsolidationScheduler(dc, period=10,
                                                max_planned_moves=3),
            vms, pms, placement, n_intervals=21, seed=6,
        )
        # two re-plans (t = 10, 20), each at most 3 moves
        assert scheduler.planned_migrations <= 6

    def test_no_replan_before_period(self):
        vms, pms = generate_pattern_instance("equal", 30, seed=7)
        placement = ffd_by_peak(max_vms_per_pm=16).place(vms, pms)
        record, scheduler = run_with(
            lambda dc: ReconsolidationScheduler(dc, period=1000),
            vms, pms, placement, n_intervals=50, seed=8,
        )
        assert scheduler.planned_migrations == 0

    def test_reactive_split_consistent(self):
        vms, pms = generate_pattern_instance("equal", 60, seed=9)
        placement = ffd_by_base(max_vms_per_pm=16).place(vms, pms)
        record, scheduler = run_with(
            lambda dc: ReconsolidationScheduler(dc, period=30),
            vms, pms, placement, n_intervals=100, seed=10,
        )
        reactive = record.total_migrations - scheduler.planned_migrations
        assert reactive >= 0
        assert reactive + scheduler.planned_migrations == record.total_migrations

    def test_zero_period_invalid(self):
        vms, pms = generate_pattern_instance("equal", 5, seed=0)
        placement = ffd_by_peak(max_vms_per_pm=16).place(vms, pms)
        dc = Datacenter(vms, pms, placement, seed=0)
        with pytest.raises(ValueError):
            ReconsolidationScheduler(dc, period=0)


def failing_scenario():
    """Failures, flaky migrations and frequent replans on a loose packing."""
    vms, pms = generate_pattern_instance("equal", 60, seed=3)
    return Scenario(vms, pms, placer=ffd_by_base(max_vms_per_pm=16),
                    failures={"failure_probability": 0.02,
                              "repair_probability": 0.1},
                    migration_failure_probability=0.05,
                    reconsolidation={"period": 5}, start_stationary=True)


def count_place_calls(monkeypatch):
    calls = []
    place = QueuingFFD.place

    def counted(self, vms, pms):
        calls.append(len(vms))
        return place(self, vms, pms)

    monkeypatch.setattr(QueuingFFD, "place", counted)
    return calls


class TestReplanMemo:
    def test_periodic_replans_place_once(self, monkeypatch):
        calls = count_place_calls(monkeypatch)
        run = failing_scenario().start(seed=5)
        run.advance(60)
        assert run.scheduler.planned_migrations > 0
        assert run.injector.record.failures > 0
        assert len(calls) == 1  # eleven replans, one placement

    def test_memo_leaves_the_run_unchanged(self, monkeypatch):
        def state_bytes():
            run = failing_scenario().start(seed=5)
            run.advance(80)
            return canonical_state_bytes(run.capture_state())

        memoized = state_bytes()
        target = ReconsolidationScheduler._target

        def no_memo(self, planning):
            self._memo = None
            return target(self, planning)

        monkeypatch.setattr(ReconsolidationScheduler, "_target", no_memo)
        calls = count_place_calls(monkeypatch)
        assert state_bytes() == memoized
        assert len(calls) == 15  # every replan placed afresh

    def test_requested_replan_with_new_specs_recomputes(self, monkeypatch):
        vms, pms = generate_pattern_instance("equal", 40, seed=1)
        placement = ffd_by_peak(max_vms_per_pm=16).place(vms, pms)
        dc = Datacenter(vms, pms, placement, seed=0)
        scheduler = ReconsolidationScheduler(dc, period=10)
        refit = [VMSpec(v.p_on, v.p_off, 1.5 * v.r_base, v.r_extra)
                 for v in vms]
        refit_target = QueuingFFD().place(refit, pms).assignment
        calls = count_place_calls(monkeypatch)
        scheduler.replan_now(10)
        assert scheduler.replan_now(20) == []  # memo hit, nothing to move
        assert len(calls) == 1
        scheduler.request_replan(vms=refit)
        scheduler.resolve_overloads(21)
        assert len(calls) == 2
        np.testing.assert_array_equal(dc.placement.assignment, refit_target)
        scheduler.replan_now(30)  # the fleet's own specs again: a miss
        assert len(calls) == 3

    def test_infeasible_plan_is_memoized_as_no_moves(self, monkeypatch):
        vms, pms = generate_pattern_instance("equal", 20, seed=2)
        placement = ffd_by_peak(max_vms_per_pm=16).place(vms, pms)
        dc = Datacenter(vms, pms, placement, seed=0)
        scheduler = ReconsolidationScheduler(dc, period=10)
        calls = count_place_calls(monkeypatch)
        huge = [VMSpec(v.p_on, v.p_off, 1e6, v.r_extra) for v in vms]
        before = dc.placement.assignment.copy()
        assert scheduler.replan_now(10, vms=huge) == []
        assert scheduler.replan_now(20, vms=huge) == []
        assert len(calls) == 1
        np.testing.assert_array_equal(dc.placement.assignment, before)


class TestReplanAroundFailures:
    def test_no_replan_move_targets_a_failed_pm(self):
        run = failing_scenario().start(seed=5)
        scheduler, injector = run.scheduler, run.injector
        replan_now = scheduler.replan_now
        moved = []

        def checked(time, **kwargs):
            events = replan_now(time, **kwargs)
            assert not any(injector.failed[e.target_pm] for e in events)
            moved.extend(events)
            return events

        scheduler.replan_now = checked
        run.advance(200)
        assert moved
        assert injector.record.failures > 20
