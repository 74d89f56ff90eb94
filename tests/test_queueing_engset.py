"""Tests for the Engset helper (tests/helpers.py) and its link to the discrete model."""

import numpy as np
import pytest
from scipy.special import comb

from repro.queueing.geom_geom_k import FiniteSourceGeomGeomK
from tests.helpers import engset_blocking_probability, engset_distribution


class TestEngsetDistribution:
    def test_matches_direct_formula_small(self):
        k, K, alpha = 8, 5, 0.25
        j = np.arange(K + 1)
        terms = comb(k, j) * alpha**j
        expected = terms / terms.sum()
        np.testing.assert_allclose(engset_distribution(k, K, alpha), expected,
                                   atol=1e-12)

    def test_sums_to_one(self):
        pi = engset_distribution(50, 20, 0.1)
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi >= 0)

    def test_large_k_no_overflow(self):
        pi = engset_distribution(500, 100, 0.05)
        assert np.isfinite(pi).all()
        assert pi.sum() == pytest.approx(1.0)

    def test_full_servers_is_truncated_binomial(self):
        # K = k: Engset == Binomial(k, alpha/(1+alpha)).
        k, alpha = 12, 0.2
        pi = engset_distribution(k, k, alpha)
        p = alpha / (1 + alpha)
        j = np.arange(k + 1)
        expected = comb(k, j) * p**j * (1 - p) ** (k - j)
        np.testing.assert_allclose(pi, expected, atol=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            engset_distribution(0, 0, 1.0)
        with pytest.raises(ValueError):
            engset_distribution(5, 6, 1.0)
        with pytest.raises(ValueError):
            engset_distribution(5, 3, -1.0)


class TestEngsetBlocking:
    def test_blocking_is_last_entry(self):
        pi = engset_distribution(10, 4, 0.3)
        assert engset_blocking_probability(10, 4, 0.3) == pytest.approx(pi[-1])

    def test_blocking_decreasing_in_servers(self):
        vals = [engset_blocking_probability(10, K, 0.3) for K in range(1, 11)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestDiscreteToEngsetLimit:
    def test_stationary_binomial_matches_engset_full(self):
        # Unrestricted discrete marginal is Binomial(k, q); Engset with K = k
        # is the same binomial with p = alpha/(1+alpha) = q.
        k = 10
        p_on, p_off = 0.02, 0.08
        m = FiniteSourceGeomGeomK(k, p_on, p_off)
        np.testing.assert_allclose(
            m.stationary_distribution(),
            engset_distribution(k, k, p_on / p_off),
            atol=1e-10,
        )
