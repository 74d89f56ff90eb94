"""Property-based tests (hypothesis) for the extension modules.

Invariants: Poisson-binomial correctness and degeneracies, exact
heterogeneous blocks vs MapCal, quantile-vs-block dominance, estimation
consistency under label-preserving transforms, persistence round-trips, and
transient-analysis identities.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heterogeneous import (
    heterogeneous_blocks,
    heterogeneous_cvr,
    poisson_binomial_pmf,
)
from repro.core.mapcal import mapcal
from repro.core.quantile import quantile_cvr
from repro.core.types import VMSpec
from repro.queueing.transient import expected_time_to_violation, violation_probability_curve
from repro.workload.estimation import estimate_switch_probabilities, fit_onoff
from tests.helpers import occupancy_at, quantile_reservation

probs = st.floats(min_value=0.001, max_value=0.999)
q_lists = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0,
                   max_size=25)


@st.composite
def vm_sets(draw, min_size=1, max_size=12):
    n = draw(st.integers(min_size, max_size))
    return [
        VMSpec(
            draw(probs), draw(probs),
            draw(st.floats(0.0, 50.0)), draw(st.floats(0.0, 50.0)),
        )
        for _ in range(n)
    ]


class TestPoissonBinomialProperties:
    @given(q=q_lists)
    @settings(max_examples=60, deadline=None)
    def test_valid_pmf(self, q):
        pmf = poisson_binomial_pmf(np.array(q))
        assert pmf.size == len(q) + 1
        assert np.all(pmf >= -1e-12)
        np.testing.assert_allclose(pmf.sum(), 1.0, atol=1e-9)

    @given(q=q_lists)
    @settings(max_examples=40, deadline=None)
    def test_mean_is_sum_of_probs(self, q):
        pmf = poisson_binomial_pmf(np.array(q))
        mean = float(np.arange(pmf.size) @ pmf)
        np.testing.assert_allclose(mean, sum(q), atol=1e-9)

    @given(q=q_lists, extra=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_adding_a_source_shifts_mass_up(self, q, extra):
        base = poisson_binomial_pmf(np.array(q))
        bigger = poisson_binomial_pmf(np.array(q + [extra]))
        # survival function dominance: P[N' > j] >= P[N > j] for all j
        sf_base = 1.0 - np.cumsum(base)
        sf_big = 1.0 - np.cumsum(bigger)[: base.size]
        assert np.all(sf_big >= sf_base - 1e-9)


class TestHeterogeneousProperties:
    @given(vms=vm_sets(), rho=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_blocks_bound_and_minimality(self, vms, rho):
        K = heterogeneous_blocks(vms, rho)
        assert 0 <= K <= len(vms)
        assert heterogeneous_cvr(vms, K) <= rho + 1e-9
        if K > 0:
            assert heterogeneous_cvr(vms, K - 1) > rho - 1e-9

    @given(k=st.integers(1, 15), p_on=probs, p_off=probs,
           rho=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_uniform_reduces_to_mapcal(self, k, p_on, p_off, rho):
        vms = [VMSpec(p_on, p_off, 1.0, 1.0)] * k
        assert heterogeneous_blocks(vms, rho) == mapcal(k, p_on, p_off, rho)


class TestQuantileProperties:
    @given(vms=vm_sets(), rho=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_reservation_bounds_cvr(self, vms, rho):
        r = quantile_reservation(vms, rho, resolution=0.5)
        assert r >= 0.0
        assert quantile_cvr(vms, r, resolution=0.5) <= rho + 1e-9

    @given(vms=vm_sets())
    @settings(max_examples=30, deadline=None)
    def test_dominated_by_block_reservation(self, vms):
        K = heterogeneous_blocks(vms, 0.01)
        block_reserve = K * max(v.r_extra for v in vms)
        r = quantile_reservation(vms, 0.01, resolution=0.25)
        assert r <= block_reserve + 0.25 * len(vms) + 1e-9

    @given(vms=vm_sets())
    @settings(max_examples=30, deadline=None)
    def test_reservation_never_exceeds_total_spike_mass(self, vms):
        r = quantile_reservation(vms, 0.0, resolution=0.5)
        total = sum(v.r_extra for v in vms)
        assert r <= total + 0.5 * len(vms) + 1e-9


class TestEstimationProperties:
    @given(
        runs=st.lists(st.tuples(st.booleans(), st.integers(1, 20)),
                      min_size=2, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_mle_probabilities_in_range(self, runs):
        states = np.concatenate([
            np.full(length, int(on)) for on, length in runs
        ])
        if states.size < 2:
            return
        p_on, p_off, n_trans, ll = estimate_switch_probabilities(states)
        assert 0.0 < p_on < 1.0
        assert 0.0 < p_off < 1.0
        assert n_trans >= 0
        assert ll <= 0.0

    @given(
        scale=st.floats(0.5, 10.0), shift=st.floats(0.0, 100.0),
        seed=st.integers(0, 10),
    )
    @settings(max_examples=20, deadline=None)
    def test_fit_equivariant_under_affine_demand_transform(self, scale, shift,
                                                           seed):
        """Scaling/shifting the demand axis scales/shifts the fitted levels
        and leaves the switch probabilities untouched."""
        vm = VMSpec(0.05, 0.2, 10.0, 8.0)
        from repro.workload.onoff_generator import demand_trace, ensemble_states

        states = ensemble_states([vm], 5000, start_stationary=True, seed=seed)
        trace = demand_trace([vm], states)[0]
        base_fit = fit_onoff(trace)
        scaled_fit = fit_onoff(trace * scale + shift)
        assert scaled_fit.p_on == base_fit.p_on
        assert scaled_fit.p_off == base_fit.p_off
        np.testing.assert_allclose(scaled_fit.r_base,
                                   base_fit.r_base * scale + shift, atol=1e-6)
        np.testing.assert_allclose(scaled_fit.r_extra,
                                   base_fit.r_extra * scale, atol=1e-6)


class TestTransientProperties:
    @given(k=st.integers(1, 10), p_on=probs, p_off=probs,
           t=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_occupancy_is_distribution(self, k, p_on, p_off, t):
        pi = occupancy_at(k, p_on, p_off, t)
        assert np.all(pi >= -1e-12)
        np.testing.assert_allclose(pi.sum(), 1.0, atol=1e-9)

    @given(k=st.integers(2, 10), p_on=probs, p_off=probs,
           K=st.integers(0, 9))
    @settings(max_examples=40, deadline=None)
    def test_curve_bounded_and_consistent(self, k, p_on, p_off, K):
        K = min(K, k)
        curve = violation_probability_curve(k, p_on, p_off, K, 30)
        assert np.all(curve >= -1e-12) and np.all(curve <= 1.0 + 1e-12)
        # point evaluation agrees with occupancy_at
        pi10 = occupancy_at(k, p_on, p_off, 10)
        expected = pi10[K + 1:].sum() if K < k else 0.0
        np.testing.assert_allclose(curve[10], expected, atol=1e-9)

    @given(k=st.integers(2, 10), p_on=probs, p_off=probs)
    @settings(max_examples=30, deadline=None)
    def test_hitting_time_decreases_with_fewer_blocks(self, k, p_on, p_off):
        times = [expected_time_to_violation(k, p_on, p_off, K)
                 for K in range(0, k)]
        # Relative tolerance: rare-event hitting times reach ~1e15 where the
        # (I - Q) solve's float noise breaks exact monotonicity.
        assert all(a <= b * (1 + 1e-6) + 1e-6 for a, b in zip(times, times[1:]))


class TestPersistenceProperties:
    @given(vms=vm_sets(max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_instance_roundtrip(self, vms, tmp_path_factory):
        from repro.core.types import PMSpec
        from repro.workload.io import load_instance, save_instance

        path = tmp_path_factory.mktemp("io") / "inst.json"
        pms = [PMSpec(100.0)]
        save_instance(path, vms, pms)
        vms2, pms2 = load_instance(path)
        assert vms2 == vms and pms2 == pms
