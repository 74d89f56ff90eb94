"""Tests for repro.core.heterogeneous — exact Poisson-binomial reservations."""

import numpy as np
import pytest
from scipy.stats import binom

from repro.core.heterogeneous import (
    HeterogeneousQueuingFFD,
    heterogeneous_blocks,
    heterogeneous_cvr,
    poisson_binomial_pmf,
    stationary_on_probabilities,
)
from repro.core.mapcal import mapcal
from repro.core.queuing_ffd import algorithm2_order
from repro.core.types import PMSpec, VMSpec
from repro.placement.base import InsufficientCapacityError
from tests.helpers import check_capacity_at_base, check_placement_complete


def vm(p_on, p_off, base=10.0, extra=10.0):
    return VMSpec(p_on, p_off, base, extra)


class TestPoissonBinomial:
    def test_equal_probs_reduce_to_binomial(self):
        pmf = poisson_binomial_pmf(np.full(10, 0.3))
        np.testing.assert_allclose(pmf, binom.pmf(np.arange(11), 10, 0.3),
                                   atol=1e-12)

    def test_bruteforce_small(self):
        q = np.array([0.2, 0.5, 0.9])
        pmf = poisson_binomial_pmf(q)
        brute = np.zeros(4)
        for mask in range(8):
            p = 1.0
            ones = 0
            for i in range(3):
                if mask >> i & 1:
                    p *= q[i]
                    ones += 1
                else:
                    p *= 1 - q[i]
            brute[ones] += p
        np.testing.assert_allclose(pmf, brute, atol=1e-15)

    def test_empty(self):
        np.testing.assert_array_equal(poisson_binomial_pmf(np.empty(0)), [1.0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        pmf = poisson_binomial_pmf(rng.random(50))
        assert pmf.sum() == pytest.approx(1.0)
        assert np.all(pmf >= 0)

    def test_degenerate_probs(self):
        pmf = poisson_binomial_pmf(np.array([0.0, 1.0, 1.0]))
        np.testing.assert_allclose(pmf, [0, 0, 1, 0], atol=1e-15)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            poisson_binomial_pmf(np.array([1.5]))
        with pytest.raises(ValueError):
            poisson_binomial_pmf(np.ones((2, 2)))


class TestHeterogeneousBlocks:
    def test_uniform_matches_mapcal(self):
        """For uniform (p_on, p_off) the exact method equals Algorithm 1 —
        the paper's chain has the binomial as stationary marginal."""
        for k in (4, 8, 16):
            vms = [vm(0.01, 0.09)] * k
            assert heterogeneous_blocks(vms, 0.01) == mapcal(k, 0.01, 0.09, 0.01)

    def test_empty_set(self):
        assert heterogeneous_blocks([], 0.01) == 0

    def test_cvr_bound_met_exactly(self):
        vms = [vm(0.01, 0.09), vm(0.05, 0.05), vm(0.02, 0.18)]
        for rho in (0.3, 0.1, 0.01):
            K = heterogeneous_blocks(vms, rho)
            assert heterogeneous_cvr(vms, K) <= rho + 1e-12
            if K > 0:
                assert heterogeneous_cvr(vms, K - 1) > rho - 1e-12

    def test_burstier_vms_need_more_blocks(self):
        calm = [vm(0.01, 0.2)] * 10   # q ~ 0.048
        busy = [vm(0.05, 0.05)] * 10  # q = 0.5
        assert heterogeneous_blocks(busy, 0.01) > heterogeneous_blocks(calm, 0.01)

    def test_cvr_zero_when_blocks_cover_all(self):
        vms = [vm(0.5, 0.5)] * 5
        assert heterogeneous_cvr(vms, 5) == 0.0

    def test_matches_simulation(self):
        """The exact stationary tail matches long-run simulation of a
        genuinely heterogeneous ensemble."""
        from repro.workload.onoff_generator import ensemble_states

        vms = [vm(0.01, 0.09), vm(0.03, 0.07), vm(0.02, 0.18),
               vm(0.05, 0.05), vm(0.01, 0.19)]
        K = 2
        states = ensemble_states(vms, 300_000, start_stationary=True, seed=1)
        busy = states.sum(axis=0)
        empirical = float((busy > K).mean())
        assert empirical == pytest.approx(heterogeneous_cvr(vms, K), abs=0.005)


class TestHeterogeneousPlacer:
    def _fleet(self, n, seed):
        rng = np.random.default_rng(seed)
        return [
            vm(float(rng.uniform(0.005, 0.03)), float(rng.uniform(0.05, 0.15)),
               base=float(rng.uniform(2, 20)), extra=float(rng.uniform(2, 20)))
            for _ in range(n)
        ]

    @staticmethod
    def hosted_sets(placer, vms, placement):
        """Each used PM's hosted VMs in hosting order, with the exact block
        count of that set: the least ``K`` whose ON-count CDF, convolved in
        that order, reaches ``1 - rho``."""
        order = [int(i) for i in algorithm2_order(vms, placer.n_clusters)]
        for pm_idx in placement.used_pms():
            hosted = [vms[i] for i in order if placement.pm_of(i) == pm_idx]
            pmf = poisson_binomial_pmf(stationary_on_probabilities(hosted))
            meets = np.flatnonzero(np.cumsum(pmf) >= 1.0 - placer.rho - 1e-15)
            yield int(pm_idx), hosted, int(meets[0]) if meets.size else len(hosted)

    def test_places_everything_validly(self):
        vms = self._fleet(80, seed=0)
        pms = [PMSpec(float(c)) for c in
               np.random.default_rng(1).uniform(80, 100, 80)]
        placer = HeterogeneousQueuingFFD(rho=0.01, d=16)
        placement = placer.place(vms, pms)
        check_placement_complete(placement)
        check_capacity_at_base(placement, vms, pms)
        for pm_idx, hosted, n_blocks in self.hosted_sets(placer, vms, placement):
            committed = (sum(v.r_base for v in hosted)
                         + max(v.r_extra for v in hosted) * n_blocks)
            assert committed <= pms[pm_idx].capacity + 1e-6
            assert len(hosted) <= 16

    def test_exact_cvr_bound_holds_per_pm(self):
        vms = self._fleet(60, seed=2)
        pms = [PMSpec(100.0)] * 60
        placer = HeterogeneousQueuingFFD(rho=0.01, d=16)
        placement = placer.place(vms, pms)
        for _, hosted, n_blocks in self.hosted_sets(placer, vms, placement):
            assert heterogeneous_cvr(hosted, n_blocks) <= 0.01 + 1e-9

    def test_no_worse_than_conservative_rounding(self):
        """Exact reservations pack at least as tight as the conservative
        rounding rule (which over-reserves by construction)."""
        from repro.core.queuing_ffd import QueuingFFD

        vms = self._fleet(100, seed=3)
        pms = [PMSpec(100.0)] * 100
        exact = HeterogeneousQueuingFFD(rho=0.01, d=16).place(vms, pms)
        conservative = QueuingFFD(rho=0.01, d=16,
                                  rounding_rule="conservative").place(vms, pms)
        assert exact.n_used_pms <= conservative.n_used_pms

    def test_uniform_fleet_matches_standard_queue(self):
        from repro.core.queuing_ffd import QueuingFFD
        from repro.workload.patterns import generate_pattern_instance

        vms, pms = generate_pattern_instance("equal", 60, seed=4)
        het = HeterogeneousQueuingFFD(rho=0.01, d=16).place(vms, pms)
        std = QueuingFFD(rho=0.01, d=16).place(vms, pms)
        assert het.n_used_pms == std.n_used_pms

    def test_insufficient_capacity(self):
        vms = [vm(0.01, 0.09, base=90.0, extra=20.0)]
        with pytest.raises(InsufficientCapacityError):
            HeterogeneousQueuingFFD(rho=0.01).place(vms, [PMSpec(95.0)])

    def test_empty(self):
        placement = HeterogeneousQueuingFFD().place([], [PMSpec(10.0)])
        assert placement.n_vms == 0

    def test_simulated_cvr_bounded(self):
        """End to end: heterogeneous fleet placed exactly, simulated CVR
        respects rho (the thing mean-rounding fails at)."""
        from repro.analysis.cvr import evaluate_placement_cvr

        vms = self._fleet(80, seed=5)
        pms = [PMSpec(100.0)] * 80
        placement = HeterogeneousQueuingFFD(rho=0.01, d=16).place(vms, pms)
        stats = evaluate_placement_cvr(placement, vms, pms,
                                       n_steps=40_000, seed=6)
        assert stats["mean"] <= 0.013
