"""Tests for repro.core.queuing_ffd — Algorithm 2."""

import numpy as np
import pytest

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.placement.base import InsufficientCapacityError
from repro.placement.ffd import ffd_by_peak
from repro.placement.validation import (
    check_capacity_at_base,
    check_placement_complete,
    max_vms_on_any_pm,
)
from repro.workload.patterns import generate_pattern_instance

P_ON, P_OFF = 0.01, 0.09


def vm(base, extra):
    return VMSpec(P_ON, P_OFF, base, extra)


class TestOrdering:
    def test_clusters_sorted_by_spike_descending(self):
        placer = QueuingFFD(n_clusters=2)
        vms = [vm(1, 2), vm(9, 18), vm(2, 3), vm(8, 17)]
        order = placer.order_vms(vms)
        # big-spike cluster (indices 1, 3) must come first
        assert set(order[:2].tolist()) == {1, 3}

    def test_within_cluster_by_base_descending(self):
        placer = QueuingFFD(n_clusters=1)
        vms = [vm(5, 10), vm(20, 10), vm(10, 10)]
        order = placer.order_vms(vms)
        np.testing.assert_array_equal(order, [1, 2, 0])

    def test_no_clustering_is_pure_base_sort(self):
        placer = QueuingFFD(cluster_method="none")
        vms = [vm(5, 100), vm(20, 1), vm(10, 50)]
        np.testing.assert_array_equal(placer.order_vms(vms), [1, 2, 0])

    def test_deterministic(self):
        placer = QueuingFFD()
        vms, _ = generate_pattern_instance("equal", 50, seed=3)
        np.testing.assert_array_equal(placer.order_vms(vms), placer.order_vms(vms))

    def test_kmeans_variant_runs(self):
        placer = QueuingFFD(cluster_method="kmeans", n_clusters=3)
        vms, _ = generate_pattern_instance("equal", 30, seed=4)
        order = placer.order_vms(vms)
        assert sorted(order.tolist()) == list(range(30))


class TestPlacement:
    def test_places_every_vm(self, medium_instance):
        vms, pms = medium_instance
        placement = QueuingFFD(rho=0.01, d=16).place(vms, pms)
        check_placement_complete(placement)

    def test_base_demand_fits(self, medium_instance):
        vms, pms = medium_instance
        placement = QueuingFFD(rho=0.01, d=16).place(vms, pms)
        check_capacity_at_base(placement, vms, pms)

    def test_respects_d(self, medium_instance):
        vms, pms = medium_instance
        placement = QueuingFFD(rho=0.01, d=4).place(vms, pms)
        assert max_vms_on_any_pm(placement) <= 4

    def test_eq17_holds_on_every_pm(self, medium_instance):
        vms, pms = medium_instance
        placer = QueuingFFD(rho=0.01, d=16)
        placement, states = placer.place_with_states(vms, pms)
        for pm_idx, state in enumerate(states):
            if state.is_empty:
                continue
            assert state.committed <= pms[pm_idx].capacity + 1e-9
            hosted = placement.vms_on(pm_idx)
            assert len(hosted) == state.count

    def test_states_match_placement(self, medium_instance):
        vms, pms = medium_instance
        placement, states = QueuingFFD().place_with_states(vms, pms)
        for pm_idx, state in enumerate(states):
            assert set(state.vms.keys()) == set(placement.vms_on(pm_idx).tolist())

    def test_uses_fewer_pms_than_peak_provisioning(self):
        for pattern in ("equal", "small", "large"):
            vms, pms = generate_pattern_instance(pattern, 150, seed=11)
            queue = QueuingFFD(rho=0.01, d=16).place(vms, pms)
            rp = ffd_by_peak(max_vms_per_pm=16).place(vms, pms)
            assert queue.n_used_pms <= rp.n_used_pms

    def test_insufficient_capacity_raises(self):
        vms = [vm(50, 50) for _ in range(4)]
        pms = [PMSpec(60.0)]
        with pytest.raises(InsufficientCapacityError):
            QueuingFFD(rho=0.01, d=16).place(vms, pms)

    def test_empty_vm_list(self):
        placement = QueuingFFD().place([], [PMSpec(10.0)])
        assert placement.n_vms == 0
        assert placement.n_used_pms == 0

    def test_single_vm(self):
        placement = QueuingFFD().place([vm(10, 10)], [PMSpec(100.0)])
        assert placement.pm_of(0) == 0

    def test_rho_one_reserves_nothing(self):
        # With rho = 1 violations are always tolerated: packing by R_b only.
        vms = [vm(10, 1000) for _ in range(5)]
        pms = [PMSpec(51.0), PMSpec(51.0)]
        placement = QueuingFFD(rho=1.0, d=16).place(vms, pms)
        assert placement.n_used_pms == 1

    def test_tight_rho_packs_by_peakish(self):
        # rho = 0 forces K = k blocks of size max R_e: at least as many PMs
        # as packing by R_b + max R_e * k, i.e. close to peak provisioning.
        vms, pms = generate_pattern_instance("equal", 60, seed=5)
        strict = QueuingFFD(rho=0.0, d=16).place(vms, pms)
        loose = QueuingFFD(rho=0.5, d=16).place(vms, pms)
        assert strict.n_used_pms >= loose.n_used_pms


def random_fleet(rng, n_vms, n_pms):
    """Heterogeneous VMs and capacities, some PMs too small for any VM."""
    vms = [VMSpec(float(rng.uniform(0.005, 0.2)),
                  float(rng.uniform(0.05, 0.6)),
                  float(rng.uniform(0.0, 40.0)),
                  float(rng.uniform(0.0, 60.0)))
           for _ in range(n_vms)]
    pms = [PMSpec(float(c)) for c in rng.uniform(5.0, 160.0, size=n_pms)]
    return vms, pms


class TestVectorizedEqualsReference:
    """One property suite: the vectorized first fit (opened PMs first, then
    empty ones; the explained path scans every PM) must agree with the
    literal Algorithm 2 loop on assignment, reservation states and the VM
    an infeasible input fails at."""

    @staticmethod
    def assert_agrees(placer, vms, pms):
        try:
            ref, ref_states = placer._place_reference(vms, pms)
        except InsufficientCapacityError as ref_exc:
            with pytest.raises(InsufficientCapacityError) as fast_exc:
                placer.place_with_states(vms, pms)
            assert fast_exc.value.vm_index == ref_exc.vm_index
            return None
        fast, fast_states = placer.place_with_states(vms, pms)
        np.testing.assert_array_equal(fast.assignment, ref.assignment)
        for a, b in zip(fast_states, ref_states):
            assert set(a.vms) == set(b.vms)
            # states are materialized in VM-index order, the reference adds
            # in placement order: the sums may differ in the last bit
            assert a.base_sum == pytest.approx(b.base_sum)
            assert a.max_extra == b.max_extra
        return fast

    @pytest.mark.parametrize("pattern", ["equal", "small", "large"])
    def test_assignments_identical(self, pattern):
        vms, pms = generate_pattern_instance(pattern, 120, seed=21)
        assert self.assert_agrees(QueuingFFD(rho=0.01, d=16), vms, pms)

    def test_identical_under_tight_capacity(self):
        vms, pms = generate_pattern_instance(
            "equal", 60, capacity_range=(45.0, 55.0), seed=22
        )
        assert self.assert_agrees(QueuingFFD(rho=0.01, d=16), vms, pms)

    def test_identical_failure_behaviour(self):
        vms = [VMSpec(P_ON, P_OFF, 50.0, 50.0) for _ in range(4)]
        pms = [PMSpec(60.0)]
        assert self.assert_agrees(QueuingFFD(rho=0.01, d=16), vms, pms) is None

    def test_small_unopened_pm_below_the_first_that_fits(self):
        # VM 0 opens PM 0; VM 1 fits neither PM 0 nor the still-empty,
        # too-small PM 1, so it opens PM 2; VM 2 then fits the empty PM 1
        # that now lies below the highest opened PM.
        vms = [vm(50.0, 0.0), vm(40.0, 0.0), vm(12.0, 0.0)]
        pms = [PMSpec(60.0), PMSpec(15.0), PMSpec(60.0)]
        placement = self.assert_agrees(QueuingFFD(rho=0.01, d=16), vms, pms)
        np.testing.assert_array_equal(placement.assignment, [0, 2, 1])

    def test_spread_cap(self):
        from repro.placement.spread import DomainSpreadConstraint
        from repro.simulation.topology import Topology

        vms, pms = generate_pattern_instance("equal", 30, seed=11)
        topo = Topology.racks(len(pms), 2)
        placer = QueuingFFD(rho=0.01, d=16,
                            spread=DomainSpreadConstraint(topo, 4))
        assert self.assert_agrees(placer, vms, pms)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_heterogeneous_fleets(self, seed):
        from repro.placement.spread import DomainSpreadConstraint
        from repro.simulation.topology import Topology

        rng = np.random.default_rng(seed)
        n_vms = int(rng.integers(1, 50))
        n_pms = int(rng.integers(1, 40))
        vms, pms = random_fleet(rng, n_vms, n_pms)
        spread = None
        if seed % 2:
            spread = DomainSpreadConstraint(
                Topology.racks(n_pms, int(rng.integers(1, 5))),
                int(rng.integers(1, 6)))
        placer = QueuingFFD(rho=float(rng.choice([0.001, 0.01, 0.1])),
                            d=int(rng.choice([2, 4, 16])),
                            n_clusters=int(rng.integers(1, 6)),
                            spread=spread)
        self.assert_agrees(placer, vms, pms)

    @pytest.mark.parametrize("seed", range(6))
    def test_explained_placement_picks_the_same_pms(self, seed):
        from repro.telemetry import RingBufferSink, Telemetry

        rng = np.random.default_rng(100 + seed)
        vms, pms = random_fleet(rng, 30, 60)
        placer = QueuingFFD(rho=0.01, d=8)
        try:
            ref, _ = placer._place_reference(vms, pms)
        except InsufficientCapacityError:
            pytest.skip("infeasible draw")
        explained = placer.place_and_report(
            vms, pms, telemetry=Telemetry(RingBufferSink(10_000)))
        np.testing.assert_array_equal(explained.assignment, ref.assignment)


class TestMappingCache:
    def test_mapping_solves_cached_across_calls(self):
        from repro.perf.cache import fresh_cache

        placer = QueuingFFD()
        vms, _ = generate_pattern_instance("equal", 10, seed=0)
        with fresh_cache() as cache:
            m1 = placer.mapping_for(vms)
            solves = cache.misses
            m2 = placer.mapping_for(vms)
            assert cache.misses == solves  # rebuild is pure cache hits
        assert (m1.table == m2.table).all()

    def test_heterogeneous_probs_rounded(self):
        placer = QueuingFFD(rounding_rule="mean")
        vms = [
            VMSpec(0.01, 0.08, 1.0, 1.0),
            VMSpec(0.03, 0.10, 1.0, 1.0),
        ]
        mapping = placer.mapping_for(vms)
        assert mapping.p_on == pytest.approx(0.02)
        assert mapping.p_off == pytest.approx(0.09)

    def test_invalid_cluster_method(self):
        with pytest.raises(ValueError):
            QueuingFFD(cluster_method="bogus")
