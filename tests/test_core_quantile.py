"""Tests for repro.core.quantile — blockless quantile reservations."""

import numpy as np
import pytest

from repro.core.quantile import QuantileFFD, quantile_cvr, spike_sum_distribution
from repro.core.types import PMSpec, VMSpec
from repro.placement.base import InsufficientCapacityError
from tests.helpers import (
    check_capacity_at_base,
    check_placement_complete,
    quantile_ffd_reference,
    quantile_reservation,
)


def vm(p_on, p_off, base=10.0, extra=10.0):
    return VMSpec(p_on, p_off, base, extra)


class TestSpikeSumDistribution:
    def test_single_vm_two_point(self):
        v = vm(0.01, 0.09, extra=5.0)
        pmf, res = spike_sum_distribution([v], resolution=0.5)
        q = 0.1
        assert pmf[0] == pytest.approx(1 - q)
        assert pmf[-1] == pytest.approx(q)
        assert (pmf.size - 1) * res == pytest.approx(5.0)

    def test_two_vms_bruteforce(self):
        a = vm(0.01, 0.09, extra=2.0)   # q = 0.1
        b = vm(0.05, 0.05, extra=4.0)   # q = 0.5
        pmf, res = spike_sum_distribution([a, b], resolution=1.0)
        # atoms at 0, 2, 4, 6
        assert pmf[0] == pytest.approx(0.9 * 0.5)
        assert pmf[2] == pytest.approx(0.1 * 0.5)
        assert pmf[4] == pytest.approx(0.9 * 0.5)
        assert pmf[6] == pytest.approx(0.1 * 0.5)
        assert pmf.sum() == pytest.approx(1.0)

    def test_empty_set(self):
        pmf, _ = spike_sum_distribution([])
        np.testing.assert_array_equal(pmf, [1.0])

    def test_sizes_rounded_up(self):
        v = vm(0.5, 0.5, extra=1.01)
        pmf, res = spike_sum_distribution([v], resolution=1.0)
        assert pmf.size == 3  # 1.01 rounds up to 2 grid steps
        assert pmf[2] == pytest.approx(0.5)

    def test_zero_spike_vm_ignored(self):
        v = vm(0.5, 0.5, extra=0.0)
        pmf, _ = spike_sum_distribution([v, v])
        np.testing.assert_array_equal(pmf, [1.0])

    def test_sums_to_one_many_vms(self):
        rng = np.random.default_rng(0)
        vms = [vm(float(rng.uniform(0.01, 0.2)), float(rng.uniform(0.05, 0.3)),
                  extra=float(rng.uniform(1, 20))) for _ in range(16)]
        pmf, _ = spike_sum_distribution(vms, resolution=0.25)
        assert pmf.sum() == pytest.approx(1.0)


class TestQuantileReservation:
    def test_rho_one_reserves_nothing(self):
        assert quantile_reservation([vm(0.01, 0.09)], 1.0) == 0.0

    def test_rho_zero_reserves_everything(self):
        vms = [vm(0.01, 0.09, extra=4.0), vm(0.01, 0.09, extra=6.0)]
        assert quantile_reservation(vms, 0.0, resolution=1.0) == pytest.approx(10.0)

    def test_cvr_bound_met(self):
        rng = np.random.default_rng(1)
        vms = [vm(float(rng.uniform(0.01, 0.05)), float(rng.uniform(0.05, 0.2)),
                  extra=float(rng.uniform(1, 20))) for _ in range(10)]
        for rho in (0.3, 0.05, 0.01):
            r = quantile_reservation(vms, rho)
            assert quantile_cvr(vms, r) <= rho + 1e-12

    def test_monotone_in_rho(self):
        vms = [vm(0.02, 0.08, extra=float(e)) for e in (3, 7, 11)]
        rs = [quantile_reservation(vms, rho) for rho in (0.5, 0.1, 0.01, 0.001)]
        assert rs == sorted(rs)

    def test_never_exceeds_block_reservation(self):
        """The quantile reservation is bounded by the paper's block
        reservation for the same set (blocks over-reserve by design)."""
        from repro.core.heterogeneous import heterogeneous_blocks

        rng = np.random.default_rng(2)
        for _ in range(10):
            k = int(rng.integers(2, 12))
            vms = [vm(float(rng.uniform(0.005, 0.05)),
                      float(rng.uniform(0.05, 0.2)),
                      extra=float(rng.uniform(1, 20))) for _ in range(k)]
            K = heterogeneous_blocks(vms, 0.01)
            block_reserve = K * max(v.r_extra for v in vms)
            quant_reserve = quantile_reservation(vms, 0.01, resolution=0.1)
            assert quant_reserve <= block_reserve + 0.1 * k + 1e-9

    def test_matches_simulation(self):
        from repro.workload.onoff_generator import demand_trace, ensemble_states

        vms = [vm(0.02, 0.08, base=0.0, extra=5.0),
               vm(0.05, 0.15, base=0.0, extra=9.0),
               vm(0.01, 0.19, base=0.0, extra=13.0)]
        r = quantile_reservation(vms, 0.05, resolution=0.05)
        states = ensemble_states(vms, 200_000, start_stationary=True, seed=3)
        spike_mass = demand_trace(vms, states).sum(axis=0)
        violation = float((spike_mass > r + 1e-9).mean())
        assert violation <= 0.05 * 1.3

    def test_finer_resolution_not_looser(self):
        vms = [vm(0.02, 0.08, extra=3.3), vm(0.02, 0.08, extra=7.7)]
        coarse = quantile_reservation(vms, 0.01, resolution=1.0)
        fine = quantile_reservation(vms, 0.01, resolution=0.01)
        assert fine <= coarse + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            quantile_reservation([vm(0.1, 0.1)], 1.5)
        with pytest.raises(ValueError):
            spike_sum_distribution([vm(0.1, 0.1)], resolution=0.0)
        with pytest.raises(ValueError):
            quantile_cvr([vm(0.1, 0.1)], -1.0)


class TestQuantileFFD:
    def _instance(self, n=60, seed=0):
        from repro.workload.patterns import generate_pattern_instance

        return generate_pattern_instance("equal", n, seed=seed)

    def test_valid_complete_placement(self):
        vms, pms = self._instance()
        placement = QuantileFFD(rho=0.01, d=16).place(vms, pms)
        check_placement_complete(placement)
        check_capacity_at_base(placement, vms, pms)

    def test_packs_at_least_as_tight_as_blocks(self):
        from repro.core.queuing_ffd import QueuingFFD

        for seed in (1, 2, 3):
            vms, pms = self._instance(seed=seed)
            quant = QuantileFFD(rho=0.01, d=16).place(vms, pms)
            blocks = QueuingFFD(rho=0.01, d=16).place(vms, pms)
            assert quant.n_used_pms <= blocks.n_used_pms

    def test_simulated_cvr_bounded(self):
        from repro.analysis.cvr import evaluate_placement_cvr

        vms, pms = self._instance(n=100, seed=4)
        placement = QuantileFFD(rho=0.01, d=16).place(vms, pms)
        stats = evaluate_placement_cvr(placement, vms, pms,
                                       n_steps=40_000, seed=5)
        assert stats["mean"] <= 0.015

    def test_eq_constraint_holds_per_pm(self):
        vms, pms = self._instance(n=40, seed=6)
        placer = QuantileFFD(rho=0.01, d=16)
        placement = placer.place(vms, pms)
        for pm_idx in placement.used_pms():
            members = [vms[i] for i in placement.vms_on(int(pm_idx))]
            reserve = quantile_reservation(members, 0.01, resolution=0.25)
            base = sum(v.r_base for v in members)
            assert reserve + base <= pms[int(pm_idx)].capacity + 1e-6
            assert len(members) <= 16

    def test_insufficient_capacity(self):
        with pytest.raises(InsufficientCapacityError):
            QuantileFFD(rho=0.0).place(
                [vm(0.5, 0.5, base=60.0, extra=60.0)], [PMSpec(100.0)]
            )

    def test_empty(self):
        assert QuantileFFD().place([], [PMSpec(10.0)]).n_vms == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_the_scalar_loop(self, seed):
        """The row state places exactly as re-convolving each PM's hosted
        set does, with ``R_e = 0`` VMs and PMs full at ``d``."""
        rng = np.random.default_rng(700 + seed)
        vms = [vm(float(rng.uniform(0.005, 0.2)), float(rng.uniform(0.05, 0.6)),
                  base=float(rng.uniform(0.0, 20.0)),
                  extra=0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 30.0)))
               for _ in range(int(rng.integers(1, 50)))]
        pms = [PMSpec(float(c)) for c in rng.uniform(5.0, 120.0, int(rng.integers(1, 30)))]
        placer = QuantileFFD(rho=float(rng.choice([0.0, 0.01, 0.1])),
                             d=int(rng.choice([2, 3, 16])),
                             resolution=float(rng.choice([0.25, 1.0, 2.5])))
        try:
            expected = quantile_ffd_reference(placer, vms, pms).assignment.tolist()
        except InsufficientCapacityError as exc:
            with pytest.raises(InsufficientCapacityError) as got:
                placer.place(vms, pms)
            assert got.value.vm_index == exc.vm_index
        else:
            assert placer.place(vms, pms).assignment.tolist() == expected
