"""Property-based tests (hypothesis) on core invariants.

These fuzz the probabilistic machinery and the placement algorithms over
their whole parameter space, checking the invariants DESIGN.md calls out:
stochasticity of kernels, stationarity, MapCal monotonicity and bounds,
Eq. (17) monotonicity, and placement validity for every placer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapcal import mapcal, mapcal_table
from repro.core.queuing_ffd import QueuingFFD
from repro.core.reservation import fits_with_reservation
from repro.core.types import PMSpec, VMSpec
from repro.markov.binomial import busy_block_kernel
from repro.markov.chain import DiscreteMarkovChain
from repro.placement.base import InsufficientCapacityError
from repro.placement.ffd import FirstFitDecreasing, ffd_by_base
from repro.placement.rbex import RBExPlacer
from repro.queueing.geom_geom_k import FiniteSourceGeomGeomK
from tests.helpers import (
    check_capacity_at_base,
    check_placement_complete,
    max_vms_on_any_pm,
    place_with_states,
    stationary_distribution_closed_form,
)

probs = st.floats(min_value=0.001, max_value=0.999)
small_k = st.integers(min_value=1, max_value=20)
rhos = st.floats(min_value=0.0, max_value=1.0)


class TestKernelProperties:
    @given(k=small_k, p_on=probs, p_off=probs)
    @settings(max_examples=60, deadline=None)
    def test_kernel_is_row_stochastic(self, k, p_on, p_off):
        P = busy_block_kernel(k, p_on, p_off)
        assert P.shape == (k + 1, k + 1)
        assert np.all(P >= -1e-12)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)

    @given(k=small_k, p_on=probs, p_off=probs)
    @settings(max_examples=40, deadline=None)
    def test_stationary_solves_balance_equations(self, k, p_on, p_off):
        chain = DiscreteMarkovChain(busy_block_kernel(k, p_on, p_off))
        pi = chain.stationary_distribution()
        np.testing.assert_allclose(pi @ chain.transition_matrix, pi, atol=1e-9)
        np.testing.assert_allclose(pi.sum(), 1.0, atol=1e-9)
        assert np.all(pi >= 0.0)

    @given(k=small_k, p_on=probs, p_off=probs)
    @settings(max_examples=40, deadline=None)
    def test_stationary_matches_binomial_marginal(self, k, p_on, p_off):
        m = FiniteSourceGeomGeomK(k, p_on, p_off)
        np.testing.assert_allclose(
            m.stationary_distribution(),
            stationary_distribution_closed_form(m),
            atol=1e-8,
        )


class TestMapcalProperties:
    @given(k=small_k, p_on=probs, p_off=probs, rho=rhos)
    @settings(max_examples=60, deadline=None)
    def test_result_in_range_and_feasible(self, k, p_on, p_off, rho):
        K = mapcal(k, p_on, p_off, rho)
        assert 0 <= K <= k
        m = FiniteSourceGeomGeomK(k, p_on, p_off)
        assert m.overflow_probability(K) <= rho + 1e-9

    @given(k=st.integers(2, 20), p_on=probs, p_off=probs, rho=rhos)
    @settings(max_examples=60, deadline=None)
    def test_minimality(self, k, p_on, p_off, rho):
        K = mapcal(k, p_on, p_off, rho)
        if K > 0:
            m = FiniteSourceGeomGeomK(k, p_on, p_off)
            assert m.overflow_probability(K - 1) > rho - 1e-9

    @given(p_on=probs, p_off=probs, rho=rhos)
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_k(self, p_on, p_off, rho):
        table = mapcal_table(12, p_on, p_off, rho).table
        assert np.all(np.diff(table) >= 0)

    @given(k=small_k, p_on=probs, p_off=probs,
           rho1=st.floats(0.0, 1.0), rho2=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_antitone_in_rho(self, k, p_on, p_off, rho1, rho2):
        lo, hi = min(rho1, rho2), max(rho1, rho2)
        assert mapcal(k, p_on, p_off, lo) >= mapcal(k, p_on, p_off, hi)


class TestReservationProperties:
    @given(
        capacity=st.floats(10.0, 1000.0),
        extra_cap=st.floats(0.0, 500.0),
        base=st.floats(0.0, 100.0),
        extra=st.floats(0.0, 100.0),
        count=st.integers(0, 15),
        base_sum=st.floats(0.0, 500.0),
        max_extra=st.floats(0.0, 100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_admission_monotone_in_capacity(self, capacity, extra_cap, base,
                                            extra, count, base_sum, max_extra):
        mapping = mapcal_table(16, 0.01, 0.09, 0.01)
        vm = VMSpec(0.01, 0.09, base, extra)
        fits_small = fits_with_reservation(
            vm, capacity, current_count=count, current_base_sum=base_sum,
            current_max_extra=max_extra, mapping=mapping)
        fits_big = fits_with_reservation(
            vm, capacity + extra_cap, current_count=count,
            current_base_sum=base_sum, current_max_extra=max_extra,
            mapping=mapping)
        if fits_small:
            assert fits_big


@st.composite
def instances(draw):
    n = draw(st.integers(1, 40))
    vms = []
    for _ in range(n):
        base = draw(st.floats(1.0, 20.0))
        extra = draw(st.floats(0.0, 20.0))
        vms.append(VMSpec(0.01, 0.09, base, extra))
    caps = [draw(st.floats(60.0, 120.0)) for _ in range(n)]
    return vms, [PMSpec(c) for c in caps]


class TestPlacerProperties:
    @given(inst=instances())
    @settings(max_examples=30, deadline=None)
    def test_queuing_ffd_valid(self, inst):
        vms, pms = inst
        placer = QueuingFFD(rho=0.01, d=16)
        placement, states = place_with_states(placer, vms, pms)
        check_placement_complete(placement)
        check_capacity_at_base(placement, vms, pms)
        assert max_vms_on_any_pm(placement) <= 16
        for pm_idx, state in enumerate(states):
            if not state.is_empty:
                assert state.committed <= pms[pm_idx].capacity + 1e-6

    @given(inst=instances())
    @settings(max_examples=30, deadline=None)
    def test_greedy_placers_valid(self, inst):
        vms, pms = inst
        for placer in (FirstFitDecreasing(max_vms_per_pm=16),
                       ffd_by_base(max_vms_per_pm=16)):
            placement = placer.place(vms, pms)
            check_placement_complete(placement)
            check_capacity_at_base(placement, vms, pms)

    @given(inst=instances(), delta=st.floats(0.0, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_rbex_valid_or_explicit_failure(self, inst, delta):
        vms, pms = inst
        placer = RBExPlacer(delta=delta, max_vms_per_pm=16)
        try:
            placement = placer.place(vms, pms)
        except InsufficientCapacityError:
            return  # explicit failure is acceptable for large delta
        check_placement_complete(placement)
        check_capacity_at_base(placement, vms, pms)

    @given(inst=instances())
    @settings(max_examples=20, deadline=None)
    def test_pm_counts_within_trivial_bounds(self, inst):
        """Every strategy uses between 1 and n PMs.  (Stronger orderings like
        QUEUE <= RP hold on the paper's instance distributions — asserted in
        the integration tests — but are not universal: FFD anomalies and a
        single huge-R_e VM can invert them on adversarial inputs.)"""
        vms, pms = inst
        from repro.placement.ffd import ffd_by_peak

        queue = QueuingFFD(rho=0.01, d=16).place(vms, pms)
        rp = ffd_by_peak(max_vms_per_pm=16).place(vms, pms)
        rb = ffd_by_base(max_vms_per_pm=16).place(vms, pms)
        for placement in (queue, rp, rb):
            assert 1 <= placement.n_used_pms <= len(vms)


class TestOrderingProperties:
    @given(inst=instances())
    @settings(max_examples=30, deadline=None)
    def test_order_is_permutation(self, inst):
        vms, _ = inst
        order = QueuingFFD().order_vms(vms)
        assert sorted(order.tolist()) == list(range(len(vms)))
