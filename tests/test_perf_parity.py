"""Bit-identical parity: vectorized tick vs the scalar reference path.

The fast path's contract is not "statistically equivalent" but *identical*:
both datacenters consume the same RNG stream (one uniform draw per VM per
interval) and accumulate PM loads in the same order, so every derived
quantity — migrations, CVR, fairness, failure accounting — must match to
the last bit.  These tests sweep random fleet shapes and scenario features
(failures, migration flakiness, costing, energy) and compare the complete
:class:`~repro.simulation.monitor.RunRecord`.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.queuing_ffd import QueuingFFD
from repro.perf.reference import ScalarReferenceDatacenter
from repro.simulation.costmodel import MigrationCostModel
from repro.simulation.datacenter import Datacenter
from repro.simulation.energy import EnergyModel
from repro.simulation.scenario import Scenario
from repro.workload.patterns import generate_pattern_instance
from tests.helpers import set_on


def assert_reports_identical(a, b):
    ra, rb = a.record, b.record
    assert ra.n_intervals == rb.n_intervals
    np.testing.assert_array_equal(ra.pms_used_series, rb.pms_used_series)
    np.testing.assert_array_equal(ra.migrations_per_interval,
                                  rb.migrations_per_interval)
    np.testing.assert_array_equal(ra.violation_counts, rb.violation_counts)
    np.testing.assert_array_equal(ra.presence_counts, rb.presence_counts)
    np.testing.assert_array_equal(ra.vm_suffering_counts,
                                  rb.vm_suffering_counts)
    np.testing.assert_array_equal(ra.vm_down_counts, rb.vm_down_counts)
    np.testing.assert_array_equal(ra.vm_degraded_counts,
                                  rb.vm_degraded_counts)
    assert ra.failed_migration_attempts == rb.failed_migration_attempts
    assert ra.migrations == rb.migrations
    assert a.initial_pms_used == b.initial_pms_used
    assert a.final_pms_used == b.final_pms_used
    assert a.mean_cvr == b.mean_cvr and a.max_cvr == b.max_cvr
    assert a.fairness == b.fairness
    assert a.energy_joules == b.energy_joules
    assert a.migration_downtime_seconds == b.migration_downtime_seconds
    if a.failures is None:
        assert b.failures is None
    else:
        assert a.failures == b.failures


def run_both(vms, pms, *, n_intervals, seed, **kwargs):
    reports = []
    for mode in ("vectorized", "scalar"):
        scenario = Scenario(vms, pms, placer=QueuingFFD(rho=0.01, d=16),
                            tick_mode=mode, **kwargs)
        reports.append(scenario.run(n_intervals, seed=seed))
    return reports


PATTERNS = ("equal", "small", "large")


class TestTickParity:
    def test_raw_step_stream_identical(self):
        vms, pms = generate_pattern_instance("small", 60, seed=3)
        placement = QueuingFFD(rho=0.01, d=16).place(vms, pms)
        fast = Datacenter(vms, pms, placement, seed=11, start_stationary=True)
        slow = ScalarReferenceDatacenter(vms, pms, placement, seed=11,
                                         start_stationary=True)
        for _ in range(50):
            fast.step()
            slow.step()
            np.testing.assert_array_equal(fast._on, slow._on)
            np.testing.assert_array_equal(fast.vm_demands(),
                                          slow.vm_demands())
            np.testing.assert_array_equal(fast.pm_loads(), slow.pm_loads())
            np.testing.assert_array_equal(fast.pm_used_mask(),
                                          slow.pm_used_mask())
            np.testing.assert_array_equal(fast.overloaded_pms(),
                                          slow.overloaded_pms())

    @pytest.mark.parametrize("case", range(20))
    def test_random_scenarios_bit_identical(self, case):
        shape_rng = np.random.default_rng(900 + case)
        n_vms = int(shape_rng.integers(10, 80))
        pattern = PATTERNS[case % len(PATTERNS)]
        vms, pms = generate_pattern_instance(pattern, n_vms,
                                             seed=1000 + case)
        kwargs = {}
        if case % 2 == 0:
            kwargs["failures"] = True
        if case % 3 == 0:
            kwargs["migration_failure_probability"] = 0.1
        if case % 4 == 0:
            kwargs["start_stationary"] = True
        if case % 5 == 0:
            kwargs["energy_model"] = EnergyModel()
        a, b = run_both(vms, pms, n_intervals=30, seed=7000 + case, **kwargs)
        assert_reports_identical(a, b)

    def test_fig9_shape_scenario_identical(self):
        vms, pms = generate_pattern_instance("large", 200, seed=2013)
        a, b = run_both(
            vms, pms, n_intervals=60, seed=2013,
            failures=True, migration_failure_probability=0.05,
            cost_model=MigrationCostModel(), energy_model=EnergyModel(),
            start_stationary=True,
        )
        assert_reports_identical(a, b)

    def test_bad_tick_mode_rejected(self):
        vms, pms = generate_pattern_instance("equal", 10, seed=1)
        with pytest.raises(ValueError, match="tick_mode"):
            Scenario(vms, pms, placer=QueuingFFD(), tick_mode="turbo")


class TestCacheCoherence:
    """The cached demand/load vectors and the per-PM counts never go stale.

    The scalar reference recomputes every query from the arrays on each
    call, so it is the oracle for the vectorized datacenter's caches.
    """

    QUERIES = ("vm_demands", "vm_full_demands", "pm_loads", "pm_base_loads",
               "pm_used_mask", "hosted_counts", "overloaded_pms",
               "on_states")

    def assert_fleets_identical(self, fast, slow):
        for query in self.QUERIES:
            np.testing.assert_array_equal(getattr(fast, query)(),
                                          getattr(slow, query)(),
                                          err_msg=query)
        assert fast.used_pm_count() == slow.used_pm_count()
        for pm in range(fast.n_pms):
            hosted = fast.placement.vms_on(pm)
            np.testing.assert_array_equal(hosted, slow.placement.vms_on(pm))
            assert fast.hosted_counts()[pm] == hosted.size

    @pytest.mark.parametrize("case", range(6))
    def test_mutator_stream_identical(self, case):
        """Steps interleaved with every mutator and checkpoint round trips."""
        ops = np.random.default_rng(500 + case)
        vms, pms = generate_pattern_instance(PATTERNS[case % len(PATTERNS)],
                                             40, seed=case)
        placement = QueuingFFD(rho=0.01, d=16).place(vms, pms)
        fast = Datacenter(vms, pms, placement, seed=case,
                          start_stationary=True)
        slow = ScalarReferenceDatacenter(vms, pms, placement, seed=case,
                                         start_stationary=True)
        snapshot = None
        for _ in range(120):
            op = int(ops.integers(6))
            vm = int(ops.integers(fast.n_vms))
            pm = int(ops.integers(fast.n_pms))
            flag = bool(ops.integers(2))
            if op == 4:
                snapshot = json.loads(json.dumps(fast.capture_state()))
                assert slow.capture_state() == snapshot
            for dc in (fast, slow):
                if op == 0:
                    dc.step()
                elif op == 1:
                    dc.migrate(vm, pm)
                elif op == 2:
                    dc.set_throttle(vm, flag)
                elif op == 3:
                    set_on(dc, vm, flag)
                elif op == 5 and snapshot is not None:
                    dc.restore_state(snapshot)
            self.assert_fleets_identical(fast, slow)

    def test_stray_writes_raise(self):
        vms, pms = generate_pattern_instance("equal", 8, seed=5)
        placement = QueuingFFD(rho=0.01, d=16).place(vms, pms)
        dc = Datacenter(vms, pms, placement, seed=0)
        dc.step()
        set_on(dc, 3, True)
        dc.set_throttle(2, True)
        dc.migrate(0, dc.n_pms - 1)
        for arr in (dc._on, dc._throttled, dc._r_base, dc._r_extra,
                    dc.vm_demands(), dc.pm_loads(), dc.hosted_counts()):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]
