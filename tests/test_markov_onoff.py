"""Tests for repro.markov.onoff — the per-VM ON-OFF chain."""

import numpy as np
import pytest

from repro.core.types import VMSpec
from repro.markov.chain import DiscreteMarkovChain
from repro.markov.onoff import OFF, ON, OnOffChain
from repro.workload.onoff_generator import ensemble_states
from tests.helpers import burst_lengths, onoff_matrix


@pytest.fixture
def chain():
    return OnOffChain(p_on=0.01, p_off=0.09)


class TestConstruction:
    def test_rejects_zero_probabilities(self):
        with pytest.raises(ValueError):
            OnOffChain(0.0, 0.5)
        with pytest.raises(ValueError):
            OnOffChain(0.5, 0.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            OnOffChain(1.5, 0.5)


class TestAnalytics:
    def test_stationary_probabilities(self, chain):
        P = onoff_matrix(chain.p_on, chain.p_off)
        pi = DiscreteMarkovChain(P).stationary_distribution()
        assert pi[ON] == pytest.approx(0.1)

    def test_transition_matrix(self, chain):
        P = DiscreteMarkovChain(onoff_matrix(chain.p_on, chain.p_off))._P
        np.testing.assert_allclose(P, [[0.99, 0.01], [0.09, 0.91]])

    def test_as_chain_stationary_matches(self, chain):
        P = onoff_matrix(chain.p_on, chain.p_off)
        pi = DiscreteMarkovChain(P).stationary_distribution()
        q = chain.p_on / (chain.p_on + chain.p_off)
        np.testing.assert_allclose(pi, [1.0 - q, q], atol=1e-12)


class TestSimulation:
    def test_trajectory_shape_and_values(self, chain):
        traj = chain.simulate(500, seed=0)
        assert traj.shape == (501,)
        assert set(np.unique(traj)) <= {OFF, ON}

    def test_initial_state_respected(self, chain):
        assert chain.simulate(0, initial_state=ON, seed=0)[0] == ON
        with pytest.raises(ValueError):
            chain.simulate(5, initial_state=2)

    def test_long_run_on_fraction(self, chain):
        traj = chain.simulate(300_000, seed=42)
        assert traj.mean() == pytest.approx(0.1, abs=0.01)

    def test_mean_burst_length_empirical(self, chain):
        traj = chain.simulate(300_000, seed=7)
        bursts = burst_lengths(traj)
        assert bursts.mean() == pytest.approx(1 / 0.09, rel=0.1)

    def test_negative_steps_rejected(self, chain):
        with pytest.raises(ValueError):
            chain.simulate(-1)


class TestEnsemble:
    """The fleet simulator (:func:`ensemble_states`) on one common chain."""

    @staticmethod
    def ensemble(chain, n_vms, n_steps, **kwargs):
        vms = [VMSpec(chain.p_on, chain.p_off, 1.0, 1.0)] * n_vms
        return ensemble_states(vms, n_steps, **kwargs)

    def test_shape(self, chain):
        states = self.ensemble(chain, 10, 50, seed=0)
        assert states.shape == (10, 51)

    def test_all_start_off_by_default(self, chain):
        states = self.ensemble(chain, 10, 5, seed=0)
        assert not states[:, 0].any()

    def test_stationary_start_fraction(self, chain):
        states = self.ensemble(chain, 50_000, 0, start_stationary=True, seed=1)
        assert states[:, 0].mean() == pytest.approx(0.1, abs=0.01)

    def test_ensemble_long_run_occupancy(self, chain):
        states = self.ensemble(chain, 200, 5000, start_stationary=True, seed=2)
        assert states.mean() == pytest.approx(0.1, abs=0.01)

    def test_zero_vms(self, chain):
        states = self.ensemble(chain, 0, 10, seed=0)
        assert states.shape == (0, 11)

    def test_invalid_args(self, chain):
        with pytest.raises(ValueError):
            self.ensemble(chain, 5, -1)
