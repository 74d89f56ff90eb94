"""Tests for repro.placement.ffd — First Fit Decreasing and the RP/RB baselines."""

import pytest

from repro.core.types import PMSpec, VMSpec
from repro.placement.base import InsufficientCapacityError
from repro.placement.ffd import (
    FirstFitDecreasing,
    ffd_by_base,
    ffd_by_peak,
    size_by_base,
)
from tests.helpers import (
    check_capacity_at_base,
    check_capacity_at_peak,
    check_placement_complete,
    max_vms_on_any_pm,
)

P_ON, P_OFF = 0.01, 0.09


def vm(base, extra=0.0):
    return VMSpec(P_ON, P_OFF, base, extra)


def pms(*caps):
    return [PMSpec(c) for c in caps]


class TestFirstFitDecreasing:
    def test_textbook_instance(self):
        # sizes 7,5,4,3,2 into bins of 10: FFD gives [7,3], [5,4], [2] -> 3 bins
        vms = [vm(s) for s in (5, 7, 3, 4, 2)]
        placement = FirstFitDecreasing(size_by_base).place(vms, pms(*[10] * 5))
        assert placement.n_used_pms == 3
        check_capacity_at_base(placement, vms, pms(*[10] * 5))

    def test_decreasing_order_used(self):
        # First Fit without sorting would open a new bin for the 7.
        vms = [vm(2), vm(5), vm(7)]
        placement = FirstFitDecreasing(size_by_base).place(vms, pms(10, 10))
        assert placement.pm_of(2) == 0  # the 7 goes first into PM 0

    def test_peak_sizing(self):
        vms = [vm(5, 5), vm(5, 5)]  # peak 10 each
        placement = ffd_by_peak().place(vms, pms(10, 10))
        assert placement.n_used_pms == 2
        check_capacity_at_peak(placement, vms, pms(10, 10))

    def test_base_sizing_packs_tighter(self):
        vms = [vm(5, 5), vm(5, 5)]
        placement = ffd_by_base().place(vms, pms(10, 10))
        assert placement.n_used_pms == 1

    def test_max_vms_per_pm(self):
        vms = [vm(1) for _ in range(10)]
        placement = FirstFitDecreasing(size_by_base, max_vms_per_pm=3).place(
            vms, pms(*[100] * 4)
        )
        assert max_vms_on_any_pm(placement) <= 3
        assert placement.n_used_pms == 4

    def test_insufficient_capacity(self):
        with pytest.raises(InsufficientCapacityError) as exc:
            FirstFitDecreasing(size_by_base).place([vm(20)], pms(10))
        assert exc.value.vm_index == 0

    def test_complete(self, medium_instance):
        vms, pm_list = medium_instance
        placement = ffd_by_peak(max_vms_per_pm=16).place(vms, pm_list)
        check_placement_complete(placement)
        check_capacity_at_peak(placement, vms, pm_list)

    def test_names(self):
        assert ffd_by_peak().name == "RP"
        assert ffd_by_base().name == "RB"
        assert FirstFitDecreasing().name == "FFD"

    def test_rb_never_uses_more_pms_than_rp(self, medium_instance):
        vms, pm_list = medium_instance
        rb = ffd_by_base(max_vms_per_pm=16).place(vms, pm_list)
        rp = ffd_by_peak(max_vms_per_pm=16).place(vms, pm_list)
        assert rb.n_used_pms <= rp.n_used_pms


class TestEdgeCases:
    def test_zero_vms(self):
        placement = FirstFitDecreasing().place([], pms(10))
        assert placement.n_vms == 0

    def test_zero_pms(self):
        with pytest.raises(InsufficientCapacityError):
            FirstFitDecreasing().place([vm(1)], [])

    def test_exact_fill(self):
        vms = [vm(5), vm(5)]
        placement = FirstFitDecreasing(size_by_base).place(vms, pms(10))
        assert placement.n_used_pms == 1

    def test_stable_tie_break(self):
        # Equal sizes keep input order (stable sort).
        vms = [vm(5), vm(5), vm(5)]
        placement = FirstFitDecreasing(size_by_base).place(vms, pms(15, 15))
        assert placement.pm_of(0) == 0
        assert placement.pm_of(1) == 0
        assert placement.pm_of(2) == 0
