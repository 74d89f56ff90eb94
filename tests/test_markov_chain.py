"""Tests for repro.markov.chain — the generic DTMC machinery."""

import numpy as np
import pytest

from repro.markov.binomial import busy_block_kernel
from repro.markov.chain import DiscreteMarkovChain
from tests.helpers import occupancy_from_trajectory


def two_state(p=0.3, q=0.6):
    return DiscreteMarkovChain(np.array([[1 - p, p], [q, 1 - q]]))


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DiscreteMarkovChain(np.ones((2, 3)) / 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            DiscreteMarkovChain(np.empty((0, 0)))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteMarkovChain(np.array([[1.5, -0.5], [0.5, 0.5]]))

    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteMarkovChain(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_matrix_is_readonly_copy(self):
        M = np.array([[0.5, 0.5], [0.5, 0.5]])
        chain = DiscreteMarkovChain(M)
        M[0, 0] = 99.0  # caller mutation must not leak in
        assert chain._P[0, 0] == 0.5
        with pytest.raises(ValueError):
            chain._P[0, 0] = 0.1

    def test_validate_false_skips_checks(self):
        # Deliberately sub-stochastic; constructor must accept it.
        chain = DiscreteMarkovChain(np.array([[0.5, 0.1], [0.2, 0.2]]),
                                    validate=False)
        assert chain.n_states == 2


class TestStructure:
    def test_busy_block_chain_is_ergodic(self):
        # every entry positive: irreducible and aperiodic, so the stationary
        # law MapCal solves for is unique and the limit of P^t
        assert np.all(busy_block_kernel(8, 0.01, 0.09) > 0.0)


class TestStationary:
    def test_two_state_closed_form(self):
        p, q = 0.3, 0.6
        pi = two_state(p, q).stationary_distribution()
        np.testing.assert_allclose(pi, [q / (p + q), p / (p + q)], atol=1e-12)

    @pytest.mark.parametrize("method", ["linear", "power", "eig"])
    def test_methods_agree(self, method):
        chain = DiscreteMarkovChain(busy_block_kernel(10, 0.05, 0.15))
        ref = chain.stationary_distribution("linear")
        out = chain.stationary_distribution(method)
        np.testing.assert_allclose(out, ref, atol=1e-8)

    def test_stationary_is_fixed_point(self):
        chain = DiscreteMarkovChain(busy_block_kernel(12, 0.01, 0.09))
        pi = chain.stationary_distribution()
        np.testing.assert_allclose(pi @ chain._P, pi, atol=1e-12)

    def test_sums_to_one_nonnegative(self):
        chain = DiscreteMarkovChain(busy_block_kernel(15, 0.02, 0.2))
        pi = chain.stationary_distribution()
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi >= 0.0)

    def test_power_iteration_convergence_failure_raises(self):
        # A period-2 chain has no limiting distribution from a point mass.
        chain = DiscreteMarkovChain(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(RuntimeError, match="converge"):
            chain.stationary_distribution("power", max_iterations=50)


class TestDynamics:
    def test_simulate_length_and_range(self):
        chain = two_state()
        traj = chain.simulate(100, seed=0)
        assert traj.shape == (101,)
        assert set(np.unique(traj)) <= {0, 1}
        assert traj[0] == 0

    def test_simulate_reproducible(self):
        chain = two_state()
        np.testing.assert_array_equal(chain.simulate(50, seed=3),
                                      chain.simulate(50, seed=3))

    def test_simulate_initial_state_validated(self):
        with pytest.raises(ValueError, match="initial_state"):
            two_state().simulate(10, initial_state=5)

    def test_occupancy_matches_stationary_on_long_run(self):
        chain = two_state(0.2, 0.3)
        traj = chain.simulate(200_000, seed=1)
        occ = occupancy_from_trajectory(traj, chain.n_states)
        np.testing.assert_allclose(occ, chain.stationary_distribution(), atol=0.01)

    def test_occupancy_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            occupancy_from_trajectory(np.array([], dtype=int), 2)
