"""Tests for repro.markov.multilevel."""

import numpy as np
import pytest

from repro.markov.multilevel import MultiLevelChain, spiky_levels
from tests.helpers import onoff_matrix


class TestMultiLevelChain:
    def test_demand_length_checked(self):
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="length"):
            MultiLevelChain(P, [1.0])

    def test_negative_demand_rejected(self):
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            MultiLevelChain(P, [1.0, -2.0])

    def test_simulate_demand_values_from_levels(self):
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        chain = MultiLevelChain(P, [3.0, 7.0])
        trace = chain.simulate_demand(1000, seed=0)
        assert set(np.unique(trace)) <= {3.0, 7.0}
        assert trace.shape == (1001,)


class TestSpikyLevels:
    def test_single_spike_is_onoff(self):
        chain = spiky_levels(10.0, [30.0], p_spike=0.01, p_recover=0.09)
        np.testing.assert_allclose(chain.chain._P, onoff_matrix(0.01, 0.09))
        np.testing.assert_array_equal(chain.demands, [10.0, 30.0])

    def test_weights_normalized(self):
        chain = spiky_levels(0.0, [1.0, 2.0], p_spike=0.1, p_recover=0.5,
                             spike_weights=[3.0, 1.0])
        P = chain.chain._P
        assert P[0, 1] == pytest.approx(0.075)
        assert P[0, 2] == pytest.approx(0.025)

    def test_recovery_goes_straight_to_base(self):
        chain = spiky_levels(0.0, [1.0, 2.0, 3.0], p_spike=0.2, p_recover=0.4)
        P = chain.chain._P
        for j in (1, 2, 3):
            assert P[j, 0] == pytest.approx(0.4)
            assert P[j, j] == pytest.approx(0.6)
            # no spike-to-spike hops
            others = [x for x in (1, 2, 3) if x != j]
            assert all(P[j, o] == 0.0 for o in others)

    def test_stationary_on_fraction_matches_onoff_formula(self):
        chain = spiky_levels(0.0, [5.0, 9.0], p_spike=0.02, p_recover=0.1)
        pi = chain.chain.stationary_distribution()
        assert pi[1:].sum() == pytest.approx(0.02 / 0.12, abs=1e-10)

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            spiky_levels(0.0, [1.0, 2.0], 0.1, 0.5, spike_weights=[1.0])
        with pytest.raises(ValueError):
            spiky_levels(0.0, [1.0], 0.1, 0.5, spike_weights=[-1.0])


class TestModelMismatch:
    def test_onoff_fit_of_multilevel_workload(self):
        """Fitting the paper's two-level model to a three-magnitude spiky
        workload yields a usable approximation — with a characteristic bias:
        the two-means threshold absorbs the smallest spike magnitude into
        the OFF regime, slightly inflating R_b and undercounting p_on."""
        from repro.workload.estimation import fit_onoff

        chain = spiky_levels(10.0, [20.0, 26.0, 34.0],
                             p_spike=0.02, p_recover=0.1)
        trace = chain.simulate_demand(200_000, seed=2)
        fit = fit_onoff(trace)
        # base slightly inflated but in the right regime
        assert 10.0 <= fit.r_base <= 13.0
        # fitted peak lands between the spike magnitudes
        assert 20.0 <= fit.r_base + fit.r_extra <= 34.0
        # spike frequency undercounted (small spikes misclassified) but
        # within the right order of magnitude
        assert 0.005 <= fit.p_on <= 0.03
        # recovery rate is magnitude-independent, so p_off stays accurate
        assert fit.p_off == pytest.approx(0.1, rel=0.15)
