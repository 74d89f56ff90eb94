"""Tests for the fault-domain spread constraint across placers."""

import numpy as np
import pytest

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.placement.base import InsufficientCapacityError
from repro.placement.ffd import ffd_by_base, ffd_by_peak
from repro.placement.grand import GreedyRandomPlacer
from repro.placement.spread import DomainSpreadConstraint
from repro.simulation.topology import Topology
from repro.workload.patterns import generate_pattern_instance
from tests.helpers import single_domain, vm_domain_counts


def small_vms(n, base=10.0):
    return [VMSpec(0.01, 0.09, base, 0.0) for _ in range(n)]


class TestConstraint:
    def test_cap_validation(self):
        topo = Topology.racks(4, 2)
        with pytest.raises(ValueError):
            DomainSpreadConstraint(topo, 0)

    def test_allowed_and_admit(self):
        topo = Topology.racks(4, 2)
        spread = DomainSpreadConstraint(topo, 1)
        counts = spread.new_counts()
        assert spread.allowed_pms(counts).all()
        spread.admit(0, counts)
        np.testing.assert_array_equal(
            spread.allowed_pms(counts), [False, False, True, True]
        )

    def test_check_n_pms(self):
        spread = DomainSpreadConstraint(Topology.racks(4, 2), 2)
        with pytest.raises(ValueError, match="4 PMs"):
            spread.check_n_pms(6)


class TestWithPlacers:
    def _assert_cap_respected(self, placement, topo, cap):
        counts = vm_domain_counts(topo, placement.assignment)
        assert counts.max() <= cap

    @pytest.mark.parametrize("make", [
        lambda s: ffd_by_peak(max_vms_per_pm=16, spread=s),
        lambda s: ffd_by_base(max_vms_per_pm=16, spread=s),
        lambda s: GreedyRandomPlacer(rho=0.01, d=16, seed=0, spread=s),
        lambda s: QueuingFFD(rho=0.01, d=16, spread=s),
    ])
    def test_cap_respected(self, make):
        vms, pms = generate_pattern_instance("equal", 40, seed=3)
        topo = Topology.racks(len(pms), 2)
        cap = 4
        placer = make(DomainSpreadConstraint(topo, cap))
        placement = placer.place(vms, pms)
        self._assert_cap_respected(placement, topo, cap)

    def test_spread_uses_more_pms(self):
        vms, pms = generate_pattern_instance("equal", 60, seed=7)
        topo = Topology.racks(len(pms), 2)
        dense = QueuingFFD(rho=0.01, d=16).place(vms, pms).n_used_pms
        spread = QueuingFFD(
            rho=0.01, d=16, spread=DomainSpreadConstraint(topo, 4)
        ).place(vms, pms).n_used_pms
        assert spread >= dense

    def test_infeasible_cap_raises(self):
        # 10 VMs, one domain, cap 4: impossible regardless of capacity.
        vms = small_vms(10)
        pms = [PMSpec(1000.0)] * 3
        spread = DomainSpreadConstraint(single_domain(3), 4)
        with pytest.raises(InsufficientCapacityError):
            ffd_by_base(spread=spread).place(vms, pms)

    def test_topology_size_mismatch_raises(self):
        vms = small_vms(4)
        pms = [PMSpec(100.0)] * 6
        spread = DomainSpreadConstraint(Topology.racks(4, 2), 2)
        with pytest.raises(ValueError):
            ffd_by_base(spread=spread).place(vms, pms)
