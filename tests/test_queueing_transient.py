"""Tests for repro.queueing.transient."""

import numpy as np
import pytest

from repro.core.types import VMSpec
from repro.queueing.geom_geom_k import FiniteSourceGeomGeomK
from repro.queueing.transient import (
    expected_time_to_violation,
    expected_violation_episode_length,
    violation_probability_curve,
)
from repro.workload.onoff_generator import ensemble_states
from tests.helpers import burst_lengths, occupancy_at

K_VMS, P_ON, P_OFF = 8, 0.05, 0.2


def simulate_vms(n_vms, n_steps, **kwargs):
    """``n_vms`` independent copies of the (P_ON, P_OFF) chain."""
    return ensemble_states([VMSpec(P_ON, P_OFF, 1.0, 1.0)] * n_vms, n_steps,
                           **kwargs)


class TestOccupancyAt:
    def test_t_zero_is_point_mass(self):
        pi = occupancy_at(K_VMS, P_ON, P_OFF, 0)
        assert pi[0] == 1.0
        assert pi.sum() == pytest.approx(1.0)

    def test_t_one_matches_kernel_row(self):
        from repro.markov.binomial import busy_block_kernel

        pi = occupancy_at(K_VMS, P_ON, P_OFF, 1)
        P = busy_block_kernel(K_VMS, P_ON, P_OFF)
        np.testing.assert_allclose(pi, P[0], atol=1e-12)

    def test_converges_to_stationary(self):
        pi = occupancy_at(K_VMS, P_ON, P_OFF, 2000)
        model = FiniteSourceGeomGeomK(K_VMS, P_ON, P_OFF)
        np.testing.assert_allclose(pi, model.stationary_distribution(), atol=1e-8)

    def test_large_t_uses_matrix_power_consistently(self):
        # cross the t=64 implementation boundary
        a = occupancy_at(K_VMS, P_ON, P_OFF, 64)
        b = occupancy_at(K_VMS, P_ON, P_OFF, 65)
        from repro.markov.binomial import busy_block_kernel

        P = busy_block_kernel(K_VMS, P_ON, P_OFF)
        np.testing.assert_allclose(a @ P, b, atol=1e-12)

    def test_custom_initial_state(self):
        pi = occupancy_at(K_VMS, P_ON, P_OFF, 0, initial_state=3)
        assert pi[3] == 1.0

    def test_invalid_initial_state(self):
        with pytest.raises(ValueError):
            occupancy_at(K_VMS, P_ON, P_OFF, 1, initial_state=K_VMS + 1)


class TestViolationCurve:
    def test_starts_at_zero_from_all_off(self):
        curve = violation_probability_curve(K_VMS, P_ON, P_OFF, 3, 50)
        assert curve[0] == 0.0
        assert curve.shape == (51,)

    def test_monotone_ramp_to_stationary(self):
        model = FiniteSourceGeomGeomK(K_VMS, P_ON, P_OFF)
        K = 3
        curve = violation_probability_curve(K_VMS, P_ON, P_OFF, K, 3000)
        assert curve[-1] == pytest.approx(model.overflow_probability(K), abs=1e-6)
        # from all-OFF the curve rises toward the limit (allow tiny ripples)
        assert curve[10] < curve[-1] + 1e-9
        assert np.all(np.diff(curve[:50]) > -1e-6)

    def test_k_blocks_never_violates(self):
        curve = violation_probability_curve(K_VMS, P_ON, P_OFF, K_VMS, 20)
        np.testing.assert_array_equal(curve, 0.0)

    def test_matches_simulation(self):
        K = 2
        n_runs, horizon = 4000, 30
        count = np.zeros(horizon + 1)
        for i in range(4):
            states = simulate_vms(K_VMS * 1000, horizon, seed=i)
            # each group of K_VMS consecutive rows is one PM-population
            busy = states.reshape(1000, K_VMS, horizon + 1).sum(axis=1)
            count += (busy > K).mean(axis=0)
        empirical = count / 4
        curve = violation_probability_curve(K_VMS, P_ON, P_OFF, K, horizon)
        np.testing.assert_allclose(empirical, curve, atol=0.025)


class TestTimeToViolation:
    def test_infinite_when_impossible(self):
        assert expected_time_to_violation(K_VMS, P_ON, P_OFF, K_VMS) == float("inf")

    def test_zero_when_already_violating(self):
        assert expected_time_to_violation(K_VMS, P_ON, P_OFF, 2,
                                          initial_state=3) == 0.0

    def test_positive_and_decreasing_in_start(self):
        t0 = expected_time_to_violation(K_VMS, P_ON, P_OFF, 3, initial_state=0)
        t3 = expected_time_to_violation(K_VMS, P_ON, P_OFF, 3, initial_state=3)
        assert t0 > t3 > 0

    def test_increasing_in_blocks(self):
        times = [expected_time_to_violation(K_VMS, P_ON, P_OFF, K)
                 for K in range(1, K_VMS)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_matches_simulation(self):
        K = 2
        hits = []
        rng_seed = 0
        for i in range(300):
            states = simulate_vms(K_VMS, 3000, seed=1000 + i)
            busy = states.sum(axis=0)
            over = np.flatnonzero(busy > K)
            hits.append(over[0] if over.size else 3001)
        expected = expected_time_to_violation(K_VMS, P_ON, P_OFF, K)
        assert np.mean(hits) == pytest.approx(expected, rel=0.15)


class TestEpisodeLength:
    def test_zero_when_impossible(self):
        assert expected_violation_episode_length(K_VMS, P_ON, P_OFF, K_VMS) == 0.0

    def test_positive_when_possible(self):
        length = expected_violation_episode_length(K_VMS, P_ON, P_OFF, 2)
        assert length >= 1.0  # an episode lasts at least one interval

    def test_longer_spikes_give_longer_episodes(self):
        short = expected_violation_episode_length(K_VMS, 0.05, 0.5, 2)
        long = expected_violation_episode_length(K_VMS, 0.05, 0.05, 2)
        assert long > short

    def test_renewal_reward_consistency(self):
        """CVR = episode length x entry rate (the formula's own identity),
        cross-checked against simulation."""
        K = 2
        states = simulate_vms(K_VMS, 400_000, start_stationary=True, seed=5)
        busy = states.sum(axis=0)
        violating = busy > K
        episodes = burst_lengths(violating.astype(int))
        expected = expected_violation_episode_length(K_VMS, P_ON, P_OFF, K)
        assert episodes.mean() == pytest.approx(expected, rel=0.1)
