"""Tests for repro.workload.stats — burstiness statistics — and the burst
lengths of simulated ON-OFF traces (``tests.helpers``)."""

import numpy as np
import pytest

from repro.markov.onoff import OnOffChain
from repro.workload.stats import index_of_dispersion, peak_to_mean_ratio
from tests.helpers import burst_lengths, mean_burst_length


class TestIndexOfDispersion:
    def test_constant_trace_is_zero(self):
        assert index_of_dispersion(np.full(100, 5.0)) == 0.0

    def test_all_zero(self):
        assert index_of_dispersion(np.zeros(10)) == 0.0

    def test_poisson_is_near_one(self):
        counts = np.random.default_rng(0).poisson(20.0, 100_000)
        assert index_of_dispersion(counts) == pytest.approx(1.0, abs=0.05)

    def test_bursty_exceeds_one(self):
        trace = np.concatenate([np.full(900, 1.0), np.full(100, 100.0)])
        assert index_of_dispersion(trace) > 1.0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            index_of_dispersion(np.ones((2, 2)))


class TestPeakToMean:
    def test_constant(self):
        assert peak_to_mean_ratio(np.full(5, 3.0)) == 1.0

    def test_spiky(self):
        assert peak_to_mean_ratio(np.array([1.0, 1.0, 10.0])) == pytest.approx(10 / 4)

    def test_all_zero(self):
        assert peak_to_mean_ratio(np.zeros(4)) == 0.0


class TestBurstLengths:
    def test_simple_runs(self):
        s = np.array([0, 1, 1, 0, 1, 0, 1, 1, 1])
        np.testing.assert_array_equal(burst_lengths(s), [2, 1, 3])

    def test_no_bursts(self):
        assert burst_lengths(np.zeros(5, dtype=int)).size == 0

    def test_all_on(self):
        np.testing.assert_array_equal(burst_lengths(np.ones(7, dtype=int)), [7])

    def test_boundary_runs_counted(self):
        np.testing.assert_array_equal(
            burst_lengths(np.array([1, 1, 0, 0, 1])), [2, 1]
        )

    def test_empty(self):
        assert burst_lengths(np.empty(0)).size == 0

    def test_mean_burst_length_geometric(self):
        chain = OnOffChain(0.02, 0.1)
        traj = chain.simulate(500_000, seed=3)
        assert mean_burst_length(traj) == pytest.approx(10.0, rel=0.05)

    def test_mean_burst_length_no_bursts(self):
        assert mean_burst_length(np.zeros(10)) == 0.0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            burst_lengths(np.ones((2, 2)))
