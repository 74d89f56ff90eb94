"""Tests for repro.core.reservation — Eq. (17) and PM state bookkeeping."""

import numpy as np
import pytest

from repro.core.mapcal import mapcal_table
from repro.core.reservation import (
    PMReservationState,
    ReservationKernel,
    fits_with_reservation,
)
from repro.core.types import PMSpec, VMSpec

P_ON, P_OFF, RHO = 0.01, 0.09, 0.01


@pytest.fixture(scope="module")
def mapping():
    return mapcal_table(16, P_ON, P_OFF, RHO)


def vm(base, extra):
    return VMSpec(P_ON, P_OFF, base, extra)


class TestFitsWithReservation:
    def test_empty_pm_accepts_when_room(self, mapping):
        assert fits_with_reservation(
            vm(10, 10), 100.0, current_count=0, current_base_sum=0.0,
            current_max_extra=0.0, mapping=mapping,
        )

    def test_eq17_exact_boundary(self, mapping):
        # One VM: needs R_b + mapping(1) * R_e <= C.
        K1 = mapping.blocks_for(1)
        need = 10.0 + K1 * 10.0
        assert fits_with_reservation(
            vm(10, 10), need, current_count=0, current_base_sum=0.0,
            current_max_extra=0.0, mapping=mapping,
        )
        assert not fits_with_reservation(
            vm(10, 10), need - 0.001, current_count=0, current_base_sum=0.0,
            current_max_extra=0.0, mapping=mapping,
        )

    def test_block_size_takes_max_of_new_and_existing(self, mapping):
        # Existing max R_e is 20; adding a small-spike VM still reserves 20/block.
        k_new = 3
        blocks = mapping.blocks_for(k_new)
        need = 20.0 * blocks + 30.0 + 5.0  # base sums
        assert fits_with_reservation(
            vm(5, 2), need, current_count=2, current_base_sum=30.0,
            current_max_extra=20.0, mapping=mapping,
        )
        assert not fits_with_reservation(
            vm(5, 2), need - 0.01, current_count=2, current_base_sum=30.0,
            current_max_extra=20.0, mapping=mapping,
        )

    def test_rejects_beyond_d(self, mapping):
        assert not fits_with_reservation(
            vm(0.001, 0.001), 1e9, current_count=16, current_base_sum=0.0,
            current_max_extra=0.0, mapping=mapping,
        )


class TestPMReservationState:
    def test_add_updates_aggregates(self, mapping):
        state = PMReservationState(spec=PMSpec(100.0), mapping=mapping)
        state.add(0, vm(10, 5))
        state.add(1, vm(20, 15))
        assert state.count == 2
        assert state.base_sum == pytest.approx(30.0)
        assert state.max_extra == 15.0
        assert state.n_blocks == mapping.blocks_for(2)
        assert state.reserved == pytest.approx(15.0 * mapping.blocks_for(2))
        assert state.committed == pytest.approx(30.0 + state.reserved)
        assert state.headroom == pytest.approx(100.0 - state.committed)

    def test_fits_matches_free_function(self, mapping):
        state = PMReservationState(spec=PMSpec(60.0), mapping=mapping)
        state.add(0, vm(20, 10))
        candidate = vm(25, 5)
        expected = fits_with_reservation(
            candidate, 60.0, current_count=1, current_base_sum=20.0,
            current_max_extra=10.0, mapping=mapping,
        )
        assert state.fits(candidate) == expected

    def test_duplicate_id_rejected(self, mapping):
        state = PMReservationState(spec=PMSpec(100.0), mapping=mapping)
        state.add(0, vm(1, 1))
        with pytest.raises(ValueError, match="already"):
            state.add(0, vm(1, 1))

    def test_add_beyond_d_rejected(self, mapping):
        state = PMReservationState(spec=PMSpec(1e9), mapping=mapping)
        for i in range(16):
            state.add(i, vm(0.1, 0.1))
        with pytest.raises(ValueError, match="d=16"):
            state.add(99, vm(0.1, 0.1))

    def test_remove_recomputes_max_extra(self, mapping):
        state = PMReservationState(spec=PMSpec(100.0), mapping=mapping)
        state.add(0, vm(10, 20))
        state.add(1, vm(10, 5))
        removed = state.remove(0)
        assert removed.r_extra == 20.0
        assert state.max_extra == 5.0
        assert state.count == 1

    def test_remove_to_empty_resets(self, mapping):
        state = PMReservationState(spec=PMSpec(100.0), mapping=mapping)
        state.add(0, vm(10, 20))
        state.remove(0)
        assert state.is_empty
        assert state.base_sum == 0.0
        assert state.max_extra == 0.0
        assert state.n_blocks == 0
        assert state.reserved == 0.0

    def test_remove_unknown_raises(self, mapping):
        state = PMReservationState(spec=PMSpec(100.0), mapping=mapping)
        with pytest.raises(KeyError):
            state.remove(7)

    def test_remove_keeps_max_when_other_vm_holds_it(self, mapping):
        state = PMReservationState(spec=PMSpec(100.0), mapping=mapping)
        state.add(0, vm(10, 20))
        state.add(1, vm(10, 20))
        state.remove(0)
        assert state.max_extra == 20.0

    def test_remove_recomputes_base_sum_in_id_order(self, mapping):
        state = PMReservationState(spec=PMSpec(50.0), mapping=mapping)
        for vm_id, r_base in enumerate((2.37, 2.4, 0.97)):
            state.add(vm_id, vm(r_base, 1.0))
        state.remove(1)
        assert state.base_sum == 2.37 + 0.97


class TestReservationKernel:
    def test_need_and_snapshot_match_the_scalar_reference(self, mapping):
        kernel = ReservationKernel([60.0, 100.0], mapping.d, mapping.table)
        kernel.add(0, 0, vm(20, 10))
        candidate = vm(25, 5)
        need, count_ok = kernel.need(candidate)
        assert count_ok.tolist() == [True, True]
        for pm, cap in enumerate((60.0, 100.0)):
            state = kernel.snapshot(pm, PMSpec(cap), mapping)
            assert bool(kernel.within(need)[pm]) == state.fits(candidate)
            assert state.headroom == pytest.approx(
                float(cap - kernel.committed()[pm]))

    def test_guards_fail_loudly(self, mapping):
        kernel = ReservationKernel([1e9], mapping.d, mapping.table)
        kernel.add(0, 0, vm(0.1, 0.1))
        with pytest.raises(ValueError, match="already"):
            kernel.add(0, 0, vm(0.1, 0.1))
        for i in range(1, 16):
            kernel.add(0, i, vm(0.1, 0.1))
        assert not kernel.need(vm(0.1, 0.1))[1][0]
        with pytest.raises(ValueError, match="d=16"):
            kernel.add(0, 99, vm(0.1, 0.1))
        with pytest.raises(KeyError):
            kernel.remove(0, 99)

    def test_remove_recomputes_aggregates_in_id_order(self, mapping):
        # a running -= would leave 3.3399999999999994; a restore re-adds
        # the hosted VMs in id order and gets 2.37 + 0.97
        kernel = ReservationKernel([50.0], mapping.d, mapping.table)
        for vm_id, (r_base, r_extra) in enumerate(
                ((2.37, 1.0), (2.4, 3.0), (0.97, 1.0))):
            kernel.add(0, vm_id, vm(r_base, r_extra))
        kernel.remove(0, 1)
        assert kernel.base_sums[0] == 2.37 + 0.97
        assert kernel.max_extras[0] == 1.0
        assert kernel.counts[0] == 2
        kernel.remove(0, 0)
        kernel.remove(0, 2)
        assert (kernel.counts[0], kernel.base_sums[0],
                kernel.max_extras[0]) == (0, 0.0, 0.0)

    def test_per_dimension_caps_need_every_dimension(self, mapping):
        from repro.core.multidim import MultiDimVMSpec

        kernel = ReservationKernel([[100.0, 10.0], [100.0, 100.0]],
                                   mapping.d, mapping.table)
        big_memory = MultiDimVMSpec(P_ON, P_OFF, (10.0, 20.0), (1.0, 1.0))
        need, count_ok = kernel.need(big_memory)
        assert need.shape == (2, 2)
        assert kernel.within(need).tolist() == [False, True]
        checks = kernel.checks(0, big_memory)
        assert np.logical_and.reduce([ok for _, ok in checks]).tolist() \
            == [False, True]
        kernel.add(1, 0, big_memory)
        assert kernel.base_sums[1].tolist() == [10.0, 20.0]
