"""Resilience-layer tests: correlated failures, degradation, retry/backoff.

Covers the fault-domain failure model end-to-end plus the two invariants
the layer exists to guarantee:

- **no VM ever resides on a failed PM** except the explicitly-stranded set
  (and, with headroom plus degradation, that set is empty);
- **no migration — scheduler- or evacuation-driven — ever targets a
  failed PM**.
"""

import numpy as np
import pytest

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import Placement, PMSpec, VMSpec
from repro.simulation.datacenter import Datacenter
from repro.simulation.failures import FailureInjector
from repro.simulation.migration import MigrationExecutor, RetryPolicy
from repro.simulation.scenario import Scenario
from repro.simulation.scheduler import DynamicScheduler
from repro.simulation.topology import Topology
from repro.workload.patterns import generate_pattern_instance
from tests.helpers import set_on, single_domain, striped


def steady_vm(base=10.0, extra=5.0):
    return VMSpec(0.01, 0.09, base, extra)


def spread_dc(n_vms=4, n_pms=4, cap=100.0, seed=0):
    """One VM per PM, plenty of headroom."""
    vms = [steady_vm() for _ in range(n_vms)]
    pms = [PMSpec(cap)] * n_pms
    placement = Placement(n_vms, n_pms,
                          assignment=np.arange(n_vms) % n_pms)
    return Datacenter(vms, pms, placement, seed=seed)


class TestCorrelatedFailures:
    def test_domain_crash_fails_all_its_pms(self):
        dc = spread_dc(n_vms=2, n_pms=4)
        topo = Topology.racks(4, 2)
        inj = FailureInjector(dc, failure_probability=0.0,
                              topology=topo,
                              domain_failure_probability=1.0,
                              domain_repair_probability=0.0, seed=1)
        inj.step(0)
        assert inj.domain_failed.all()
        assert inj.failed.all()
        assert inj.record.domain_failures == 2

    def test_domain_failure_requires_topology(self):
        dc = spread_dc()
        with pytest.raises(ValueError, match="requires a topology"):
            FailureInjector(dc, domain_failure_probability=0.5)

    def test_topology_size_mismatch(self):
        dc = spread_dc(n_pms=4)
        with pytest.raises(ValueError, match="datacenter has 4"):
            FailureInjector(dc, topology=Topology.racks(6, 2))

    def test_blast_radius_recorded_per_domain_event(self):
        # Both VMs in rack 0; rack 1 is empty but also fails.
        vms = [steady_vm(), steady_vm()]
        pms = [PMSpec(100.0)] * 4
        placement = Placement(2, 4, assignment=np.array([0, 1]))
        dc = Datacenter(vms, pms, placement, seed=2)
        inj = FailureInjector(dc, failure_probability=0.0,
                              topology=Topology.racks(4, 2),
                              domain_failure_probability=1.0,
                              domain_repair_probability=0.0,
                              degrade_stranded=False, seed=3)
        inj.step(0)
        assert sorted(inj.record.blast_radii) == [0, 2]

    def test_pm_repair_blocked_while_domain_down(self):
        dc = spread_dc(n_pms=2)
        topo = single_domain(2)
        inj = FailureInjector(dc, failure_probability=0.0,
                              repair_probability=1.0,
                              topology=topo,
                              domain_failure_probability=1.0,
                              domain_repair_probability=0.0, seed=4)
        inj.step(0)
        assert inj.failed.all()
        inj.domain_failure_probability = 0.0
        inj.step(1)  # repair_probability=1 but the domain is still dark
        assert inj.failed.all()
        inj.domain_repair_probability = 1.0
        inj.step(2)  # domain restored, then PMs repair individually
        assert not inj.failed.any()

    def test_repair_durations_feed_mttr(self):
        dc = spread_dc(n_pms=1, n_vms=1)
        inj = FailureInjector(dc, failure_probability=1.0,
                              repair_probability=0.0, seed=5)
        inj.step(0)
        inj.failure_probability = 0.0
        inj.repair_probability = 1.0
        inj.step(3)
        assert inj.record.repair_durations == [3]


class TestGracefulDegradation:
    def _crash_with_spiking_vm(self, cap_free=40.0):
        # VM 0 spikes to 70 on the crashing PM; PM 1 has only 40 free
        # while VM 1 (R_b = 10) spikes there too.
        vms = [VMSpec(0.01, 0.09, 30.0, 40.0),
               VMSpec(0.01, 0.09, 10.0, 90.0 - cap_free)]
        pms = [PMSpec(100.0), PMSpec(100.0)]
        placement = Placement(2, 2, assignment=np.array([0, 1]))
        dc = Datacenter(vms, pms, placement, seed=6)
        set_on(dc, 0, True)
        set_on(dc, 1, True)
        return dc

    def test_stranded_vm_degrades_instead_of_dropping(self):
        dc = self._crash_with_spiking_vm()
        inj = FailureInjector(dc, failure_probability=0.0,
                              repair_probability=0.0, seed=7)
        inj.failed[0] = True
        inj._evacuate(0)
        # Full demand 70 does not fit, but R_b = 30 does: VM is throttled
        # and moved, not stranded.
        assert dc.placement.pm_of(0) == 1
        assert 0 in inj.degraded_vms
        assert not inj.stranded_vms
        assert inj.record.degraded_evacuations == 1
        assert dc.vm_demands()[0] == pytest.approx(30.0)

    def test_degraded_vm_restored_when_room_returns(self):
        dc = self._crash_with_spiking_vm()
        inj = FailureInjector(dc, failure_probability=0.0,
                              repair_probability=0.0, seed=8)
        inj.failed[0] = True
        inj._evacuate(0)
        assert 0 in inj.degraded_vms
        # VM 1's spike ends: its demand drops to R_b = 10.
        set_on(dc, 1, False)
        inj.step(0)
        assert not inj.degraded_vms
        assert inj.record.restorations == 1
        assert dc.vm_demands()[0] == pytest.approx(70.0)

    def test_degraded_intervals_accumulate(self):
        dc = self._crash_with_spiking_vm()
        inj = FailureInjector(dc, failure_probability=0.0,
                              repair_probability=0.0, seed=9)
        inj.failed[0] = True
        inj._evacuate(0)
        for t in range(3):
            inj.step(t)
        assert inj.record.degraded_vm_intervals == 3


class TestRetryAndBackoff:
    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_intervals=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_intervals=4, max_backoff_intervals=2)

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(base_backoff_intervals=1, max_backoff_intervals=8)
        assert [policy.backoff(n) for n in (1, 2, 3, 4, 5)] == [1, 2, 4, 8, 8]

    def test_failed_attempt_leaves_vm_on_source(self):
        dc = spread_dc()
        ex = MigrationExecutor(dc, failure_probability=1.0, seed=10)
        assert ex.attempt(0, 3, time=0) is False
        assert dc.placement.pm_of(0) == 0
        assert ex.failures == 1
        assert ex.in_backoff(0, time=0)

    def test_success_clears_backoff_state(self):
        dc = spread_dc()
        ex = MigrationExecutor(dc, failure_probability=1.0, seed=11)
        ex.attempt(0, 3, time=0)
        ex.failure_probability = 0.0
        assert ex.attempt(0, 3, time=5) is True
        assert dc.placement.pm_of(0) == 3
        assert not ex.in_backoff(0, time=5)

    def test_flapping_target_blacklisted(self):
        dc = spread_dc(n_vms=6, n_pms=6)
        retry = RetryPolicy(blacklist_threshold=2, blacklist_intervals=10)
        ex = MigrationExecutor(dc, failure_probability=1.0, retry=retry,
                               seed=12)
        ex.attempt(0, 5, time=0)
        assert ex.blacklisted_mask(0) is None  # one strike is not flapping
        ex.attempt(1, 5, time=0)
        mask = ex.blacklisted_mask(0)
        assert mask is not None and mask[5]
        assert not ex.blacklisted_mask(11)  # veto expires

    def test_zero_failure_probability_draws_no_rng(self):
        dc = spread_dc()
        ex = MigrationExecutor(dc, failure_probability=0.0, seed=13)
        before = ex._rng.bit_generator.state
        ex.attempt(0, 2, time=0)
        assert ex._rng.bit_generator.state == before

    def test_scheduler_skips_vm_in_backoff(self):
        # Overloaded PM whose best migration candidate is cooling down.
        vms = [VMSpec(0.5, 0.5, 60.0, 30.0), steady_vm(10.0, 0.0)]
        pms = [PMSpec(80.0), PMSpec(100.0)]
        placement = Placement(2, 2, assignment=np.array([0, 0]))
        dc = Datacenter(vms, pms, placement, seed=14)
        sched = DynamicScheduler(dc, migration_failure_probability=1.0,
                                 seed=15)
        set_on(dc, 0, True)  # load 90 > cap 80
        events = sched.resolve_overloads(0)
        assert events == []
        assert sched.failed_attempts_last_interval == 1
        # Next interval the VM is still backing off: no second attempt.
        events = sched.resolve_overloads(0)
        assert sched.executor.attempts == 1


class TestInvariants:
    """The two acceptance properties, over many random runs."""

    def test_no_vm_on_failed_pm_and_no_migration_into_one(self):
        for seed in range(6):
            vms, pms = generate_pattern_instance("equal", 40, seed=seed)
            placement = QueuingFFD(rho=0.01, d=16).place(vms, pms)
            dc = Datacenter(vms, pms, placement, seed=seed + 50)
            inj = FailureInjector(
                dc, failure_probability=0.05, repair_probability=0.2,
                topology=Topology.racks(len(pms), 4),
                domain_failure_probability=0.02,
                domain_repair_probability=0.3, seed=seed + 100,
            )
            sched = DynamicScheduler(
                dc, excluded_pms_fn=lambda: inj.failed,
                migration_failure_probability=0.2, seed=seed + 150,
            )
            for t in range(50):
                dc.step()
                inj.step(t)
                failed_before = inj.failed.copy()
                for ev in sched.resolve_overloads(t):
                    assert not failed_before[ev.target_pm]
                on_failed = {
                    v for v in range(dc.n_vms)
                    if inj.failed[dc.placement.pm_of(v)]
                }
                assert on_failed == inj.stranded_vms

    def test_ample_headroom_means_no_stranding(self):
        # Twice the PMs any placement needs: every evacuation must succeed
        # (possibly degraded), so no VM is ever left on dead hardware.
        for seed in range(4):
            vms, pms = generate_pattern_instance("equal", 30, seed=seed)
            placement = QueuingFFD(rho=0.01, d=16).place(vms, pms)
            dc = Datacenter(vms, pms, placement, seed=seed + 60)
            inj = FailureInjector(dc, failure_probability=0.03,
                                  repair_probability=0.3, seed=seed + 110)
            for t in range(50):
                dc.step()
                inj.step(t)
                assert not inj.stranded_vms

    def test_seeded_determinism_identical_records(self):
        def run(seed):
            vms, pms = generate_pattern_instance("equal", 30, seed=21)
            placement = QueuingFFD(rho=0.01, d=16).place(vms, pms)
            dc = Datacenter(vms, pms, placement, seed=22)
            inj = FailureInjector(
                dc, failure_probability=0.05, repair_probability=0.2,
                topology=striped(len(pms), 5),
                domain_failure_probability=0.02,
                domain_repair_probability=0.3, seed=seed,
            )
            sched = DynamicScheduler(dc, excluded_pms_fn=lambda: inj.failed,
                                     migration_failure_probability=0.1,
                                     seed=seed + 1)
            for t in range(60):
                dc.step()
                inj.step(t)
                sched.resolve_overloads(t)
            return inj.record

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestScenarioIntegration:
    def test_correlated_scenario_reports_availability(self):
        vms, pms = generate_pattern_instance("equal", 40, seed=31)
        report = Scenario(
            vms, pms, placer=QueuingFFD(rho=0.01, d=16),
            topology=Topology.racks(len(pms), 4),
            failures={"failure_probability": 0.01,
                      "domain_failure_probability": 0.02,
                      "domain_repair_probability": 0.2},
            migration_failure_probability=0.1,
        ).run(80, seed=32)
        avail = report.availability
        assert avail is not None
        assert 0.0 <= avail["min_availability"] <= avail["mean_availability"] <= 1.0
        assert avail["domain_failures"] >= 1
        assert avail["blast_events"] >= 1
        assert "availability" in report.summary()

    def test_topology_alone_enables_failures(self):
        vms, pms = generate_pattern_instance("equal", 20, seed=33)
        report = Scenario(
            vms, pms, placer=QueuingFFD(rho=0.01, d=16),
            topology=Topology.racks(len(pms), 4),
        ).run(30, seed=34)
        assert report.failures is not None
        assert report.availability is not None

    def test_scenario_seeded_determinism(self):
        vms, pms = generate_pattern_instance("equal", 30, seed=35)

        def run():
            return Scenario(
                vms, pms, placer=QueuingFFD(rho=0.01, d=16),
                topology=Topology.racks(len(pms), 2),
                failures={"failure_probability": 0.02,
                          "domain_failure_probability": 0.01},
                migration_failure_probability=0.1,
            ).run(60, seed=36)

        a, b = run(), run()
        assert a.failures == b.failures
        assert a.availability == b.availability
