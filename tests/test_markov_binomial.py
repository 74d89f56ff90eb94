"""Tests for repro.markov.binomial — the Eq. 12 transition kernel."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from repro.markov.binomial import (
    binomial_pmf_table,
    busy_block_kernel,
    kernel_from_tables,
)
from tests.helpers import busy_block_kernel_bruteforce


class TestBinomialPmfTable:
    def test_matches_scipy(self):
        table = binomial_pmf_table(12, 0.3)
        for n in range(13):
            np.testing.assert_allclose(
                table[n, : n + 1], binom.pmf(np.arange(n + 1), n, 0.3), atol=1e-12
            )

    def test_upper_triangle_zero(self):
        table = binomial_pmf_table(5, 0.4)
        for n in range(6):
            assert np.all(table[n, n + 1:] == 0.0)

    def test_rows_sum_to_one(self):
        table = binomial_pmf_table(30, 0.07)
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)

    def test_degenerate_p_zero(self):
        table = binomial_pmf_table(4, 0.0)
        np.testing.assert_array_equal(table[:, 0], 1.0)
        assert table[:, 1:].sum() == 0.0

    def test_degenerate_p_one(self):
        table = binomial_pmf_table(4, 1.0)
        for n in range(5):
            assert table[n, n] == 1.0

    def test_n_zero(self):
        table = binomial_pmf_table(0, 0.5)
        assert table.shape == (1, 1)
        assert table[0, 0] == 1.0

    def test_extreme_p_no_underflow(self):
        table = binomial_pmf_table(60, 0.999)
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-9)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            binomial_pmf_table(-1, 0.5)
        with pytest.raises(ValueError):
            binomial_pmf_table(3, 1.5)


class TestBusyBlockKernel:
    @pytest.mark.parametrize("k,p_on,p_off", [
        (1, 0.01, 0.09),
        (4, 0.01, 0.09),
        (6, 0.3, 0.5),
        (8, 0.99, 0.01),
        (5, 0.5, 0.5),
    ])
    def test_matches_bruteforce(self, k, p_on, p_off):
        fast = busy_block_kernel(k, p_on, p_off)
        slow = busy_block_kernel_bruteforce(k, p_on, p_off)
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_rows_stochastic(self):
        P = busy_block_kernel(16, 0.01, 0.09)
        assert np.all(P >= 0.0)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-10)

    def test_shape(self):
        assert busy_block_kernel(7, 0.1, 0.2).shape == (8, 8)

    def test_k_zero_is_identity(self):
        P = busy_block_kernel(0, 0.1, 0.2)
        np.testing.assert_array_equal(P, [[1.0]])

    def test_k_one_is_onoff_chain(self):
        P = busy_block_kernel(1, 0.03, 0.07)
        expected = np.array([[0.97, 0.03], [0.07, 0.93]])
        np.testing.assert_allclose(P, expected, atol=1e-12)

    def test_all_positive_for_interior_probs(self):
        # Paper's Proposition 1 relies on p_ij > 0.
        P = busy_block_kernel(10, 0.01, 0.09)
        assert np.all(P > 0.0)

    def test_two_step_consistency_with_independent_vms(self):
        # Two independent ON-OFF VMs: P[theta=2 | theta=0] after one step is
        # p_on^2 exactly.
        P = busy_block_kernel(2, 0.2, 0.4)
        assert P[0, 2] == pytest.approx(0.2**2)
        assert P[2, 0] == pytest.approx(0.4**2)
        # From state 1: one VM ON. P(next 2) = stay ON * other switches ON.
        assert P[1, 2] == pytest.approx(0.6 * 0.2)


# p anywhere in (0, 1], p within 1e-9 of 1, and the edges; at p = 1 - 1e-12
# (1 - p)^n underflows for n >= 27 and those rows take the scipy fallback
PROBABILITIES = (st.floats(0.0, 1.0, exclude_min=True)
                 | st.floats(1.0 - 1e-9, 1.0)
                 | st.sampled_from([1.0, 1e-6, 1.0 - 1e-12, 1.0 - 1e-15]))


class TestSharedTables:
    """One pair of tables at ``n_max = d`` serves every ``k <= d``."""

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 39), p_on=PROBABILITIES, p_off=PROBABILITIES)
    @example(d=39, p_on=1.0 - 1e-12, p_off=1.0 - 1e-12)
    @example(d=39, p_on=1.0, p_off=1e-6)
    def test_every_k_gets_its_kernel_bit_for_bit(self, d, p_on, p_off):
        off, on = binomial_pmf_table(d, p_off), binomial_pmf_table(d, p_on)
        for n in range(d + 1):
            assert (off[n, : n + 1].tobytes()
                    == binomial_pmf_table(n, p_off)[n].tobytes())
        for k in range(d + 1):
            assert (kernel_from_tables(k, off, on).tobytes()
                    == busy_block_kernel(k, p_on, p_off).tobytes())

    def test_rows_near_p_one_take_the_scipy_fallback(self):
        p = 1.0 - 1e-12
        assert (1.0 - p) ** 39 == 0.0  # the recurrence's seed underflows
        row = binomial_pmf_table(39, p)[39]
        np.testing.assert_array_equal(row, binom.pmf(np.arange(40), 39, p))
