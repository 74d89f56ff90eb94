"""Tests for repro.placement.optimal — exact packing and lower bounds."""

import numpy as np
import pytest

from repro.core.types import PMSpec, VMSpec
from repro.placement.base import InsufficientCapacityError
from repro.placement.ffd import FirstFitDecreasing, size_by_base
from repro.placement.optimal import (
    BranchAndBoundPacker,
    lower_bound_l1,
    lower_bound_l2,
)
from tests.helpers import check_capacity_at_base


def vm(b):
    return VMSpec(0.01, 0.09, float(b), 0.0)


def pms(n, cap=10.0):
    return [PMSpec(cap)] * n


class TestLowerBounds:
    def test_l1_exact_division(self):
        assert lower_bound_l1(np.array([5.0, 5.0, 5.0, 5.0]), 10.0) == 2

    def test_l1_rounds_up(self):
        assert lower_bound_l1(np.array([5.0, 5.0, 1.0]), 10.0) == 2

    def test_l1_empty(self):
        assert lower_bound_l1(np.empty(0), 10.0) == 0

    def test_l2_dominates_l1(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sizes = rng.uniform(0.5, 10.0, 15)
            assert lower_bound_l2(sizes, 10.0) >= lower_bound_l1(sizes, 10.0)

    def test_l2_counts_big_items(self):
        # Three items > C/2 can never share: L2 >= 3, L1 = 2.
        sizes = np.array([6.0, 6.0, 6.0])
        assert lower_bound_l1(sizes, 10.0) == 2
        assert lower_bound_l2(sizes, 10.0) == 3

    def test_l2_with_riders(self):
        # items 6,6,6 force 3 bins; 4,4,4 fill the slack exactly.
        sizes = np.array([6.0, 6.0, 6.0, 4.0, 4.0, 4.0])
        assert lower_bound_l2(sizes, 10.0) == 3

    def test_bounds_reject_oversize(self):
        with pytest.raises(ValueError):
            lower_bound_l1(np.array([11.0]), 10.0)
        with pytest.raises(ValueError):
            lower_bound_l2(np.array([-1.0]), 10.0)


class TestBranchAndBound:
    def test_beats_ffd_on_known_instance(self):
        # FFD uses 3 bins on [5,4,4,3,2,2]/10; optimum is 2.
        vms = [vm(s) for s in (5, 4, 4, 3, 2, 2)]
        packer = BranchAndBoundPacker(size_by_base)
        placement = packer.place(vms, pms(6))
        assert placement.n_used_pms == 2
        assert packer.last_proven_optimal
        check_capacity_at_base(placement, vms, pms(6))

    def test_never_worse_than_ffd(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            sizes = rng.uniform(1.0, 9.0, 12)
            vms = [vm(s) for s in sizes]
            fleet = pms(12)
            ffd = FirstFitDecreasing(size_by_base).place(vms, fleet)
            packer = BranchAndBoundPacker(size_by_base)
            opt = packer.place(vms, fleet)
            assert opt.n_used_pms <= ffd.n_used_pms
            assert opt.n_used_pms >= lower_bound_l2(sizes, 10.0)
            check_capacity_at_base(opt, vms, fleet)

    def test_matches_l2_when_tight(self):
        vms = [vm(s) for s in (6, 6, 4, 4)]
        packer = BranchAndBoundPacker(size_by_base)
        placement = packer.place(vms, pms(4))
        assert placement.n_used_pms == 2
        assert packer.last_proven_optimal

    def test_all_items_in_one_bin(self):
        vms = [vm(2), vm(3), vm(4)]
        placement = BranchAndBoundPacker(size_by_base).place(vms, pms(3))
        assert placement.n_used_pms == 1

    def test_each_item_needs_own_bin(self):
        vms = [vm(9), vm(9), vm(9)]
        placement = BranchAndBoundPacker(size_by_base).place(vms, pms(3))
        assert placement.n_used_pms == 3

    def test_oversize_item_raises(self):
        with pytest.raises(InsufficientCapacityError):
            BranchAndBoundPacker(size_by_base).place([vm(11)], pms(2))

    def test_heterogeneous_capacity_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            BranchAndBoundPacker(size_by_base).place(
                [vm(1)], [PMSpec(10.0), PMSpec(20.0)]
            )

    def test_empty_instances(self):
        assert BranchAndBoundPacker().place([], []).n_vms == 0
        assert BranchAndBoundPacker().place([], pms(2)).n_used_pms == 0
        with pytest.raises(InsufficientCapacityError):
            BranchAndBoundPacker().place([vm(1)], [])

    def test_node_budget_degrades_to_incumbent(self):
        rng = np.random.default_rng(2)
        sizes = rng.uniform(1.0, 9.0, 20)
        vms = [vm(s) for s in sizes]
        fleet = pms(20)
        packer = BranchAndBoundPacker(size_by_base, max_nodes=5)
        placement = packer.place(vms, fleet)
        ffd = FirstFitDecreasing(size_by_base).place(vms, fleet)
        assert placement.n_used_pms <= ffd.n_used_pms
        check_capacity_at_base(placement, vms, fleet)

    def test_default_size_is_peak(self):
        # peak sizing: two VMs with r_peak 6 each cannot share a 10-bin.
        vms = [VMSpec(0.01, 0.09, 3.0, 3.0), VMSpec(0.01, 0.09, 3.0, 3.0)]
        placement = BranchAndBoundPacker().place(vms, pms(2))
        assert placement.n_used_pms == 2

    def test_nodes_explored_recorded(self):
        packer = BranchAndBoundPacker(size_by_base)
        packer.place([vm(5), vm(5)], pms(2))
        assert packer.last_nodes_explored >= 1
