"""Tests for repro.queueing.geom_geom_k — the finite-source queue model."""

import numpy as np
import pytest

from repro.core.types import VMSpec
from repro.queueing.geom_geom_k import FiniteSourceGeomGeomK
from repro.workload.onoff_generator import ensemble_states
from tests.helpers import stationary_distribution_closed_form


@pytest.fixture
def model():
    return FiniteSourceGeomGeomK(k=10, p_on=0.01, p_off=0.09)


class TestConstruction:
    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            FiniteSourceGeomGeomK(0, 0.1, 0.1)

    def test_requires_nonzero_probs(self):
        with pytest.raises(ValueError):
            FiniteSourceGeomGeomK(5, 0.0, 0.1)
        with pytest.raises(ValueError):
            FiniteSourceGeomGeomK(5, 0.1, 0.0)


class TestStationary:
    def test_matches_closed_form_binomial(self, model):
        np.testing.assert_allclose(
            model.stationary_distribution(),
            stationary_distribution_closed_form(model),
            atol=1e-10,
        )

    @pytest.mark.parametrize("k,p_on,p_off", [
        (3, 0.5, 0.5), (7, 0.2, 0.6), (20, 0.01, 0.09), (16, 0.9, 0.05),
    ])
    def test_closed_form_across_parameters(self, k, p_on, p_off):
        m = FiniteSourceGeomGeomK(k, p_on, p_off)
        np.testing.assert_allclose(
            m.stationary_distribution(),
            stationary_distribution_closed_form(m),
            atol=1e-9,
        )

    def test_cached_per_method(self, model):
        a = model.stationary_distribution("linear")
        b = model.stationary_distribution("linear")
        assert a is b  # cache returns the same array object

    def test_matches_ensemble_simulation(self):
        m = FiniteSourceGeomGeomK(6, 0.05, 0.2)
        states = ensemble_states([VMSpec(0.05, 0.2, 1.0, 1.0)] * 6, 100_000,
                                 start_stationary=True, seed=0)
        busy = states.sum(axis=0)
        empirical = np.bincount(busy, minlength=7) / busy.size
        np.testing.assert_allclose(empirical, m.stationary_distribution(), atol=0.01)


class TestOverflow:
    def test_overflow_zero_at_k(self, model):
        assert model.overflow_probability(10) == 0.0
        assert model.overflow_probability(15) == 0.0

    def test_overflow_decreasing_in_windows(self, model):
        values = [model.overflow_probability(K) for K in range(11)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_overflow_at_zero_is_on_probability_complement(self, model):
        # P[demand > 0] = 1 - pi_0
        pi = model.stationary_distribution()
        assert model.overflow_probability(0) == pytest.approx(1 - pi[0])

    def test_min_windows_satisfies_bound(self, model):
        for rho in (0.3, 0.1, 0.01, 0.001):
            K = model.min_windows_for_overflow(rho)
            assert model.overflow_probability(K) <= rho + 1e-12
            if K > 0:
                assert model.overflow_probability(K - 1) > rho

    def test_min_windows_monotone_in_rho(self, model):
        ks = [model.min_windows_for_overflow(r) for r in (0.5, 0.1, 0.01, 1e-4)]
        assert ks == sorted(ks)

    def test_rho_one_needs_zero_windows(self, model):
        assert model.min_windows_for_overflow(1.0) == 0

    def test_rho_zero_needs_k_windows(self, model):
        assert model.min_windows_for_overflow(0.0) == 10

    def test_negative_windows_rejected(self, model):
        with pytest.raises(ValueError):
            model.overflow_probability(-1)
