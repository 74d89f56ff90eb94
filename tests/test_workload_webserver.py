"""Tests for repro.workload.webserver — the Fig. 8 request generator."""

import numpy as np
import pytest

from repro.markov.onoff import OnOffChain
from repro.workload.webserver import UserPool, WebServerWorkload


class TestUserPool:
    def test_effective_mean_think_time(self):
        pool = UserPool(10)
        # E[max(X, 0.1)] = 0.1 + exp(-0.1) for Exp(1)
        assert pool.effective_mean_think_time == pytest.approx(
            0.1 + np.exp(-0.1), abs=1e-12
        )

    def test_no_floor_reduces_to_plain_mean(self):
        pool = UserPool(10, think_time_floor=0.0)
        assert pool.effective_mean_think_time == pytest.approx(1.0)

    def test_request_rate_scales_with_users(self):
        r1 = UserPool(100).request_rate
        r2 = UserPool(200).request_rate
        assert r2 == pytest.approx(2 * r1)

    def test_zero_users(self):
        assert UserPool(0).request_rate == 0.0

    def test_requests_in_interval_matches_rate(self):
        pool = UserPool(20)
        counts = pool.requests_in_interval(interval=5.0, n_intervals=40, seed=1)
        expected = pool.request_rate * 5.0
        assert counts.mean() == pytest.approx(expected, rel=0.1)

    def test_requests_shape(self):
        counts = UserPool(3).requests_in_interval(1.0, 7, seed=0)
        assert counts.shape == (7,)
        assert counts.dtype == np.int64

    def test_validation(self):
        with pytest.raises(ValueError):
            UserPool(-1)
        with pytest.raises(ValueError):
            UserPool(1, think_time_mean=0.0)
        with pytest.raises(ValueError):
            UserPool(1, think_time_floor=-0.5)


class TestWebServerWorkload:
    @pytest.fixture
    def workload(self):
        return WebServerWorkload(OnOffChain(0.05, 0.2), normal_users=400,
                                 peak_users=1200, interval=30.0)

    def test_generate_shapes(self, workload):
        states, counts = workload.generate(50, seed=0)
        assert states.shape == (50,)
        assert counts.shape == (50,)

    def test_levels_follow_state(self, workload):
        states, counts = workload.generate(3000, seed=1)
        off_mean = counts[states == 0].mean()
        on_mean = counts[states == 1].mean()
        assert on_mean > 2.5 * off_mean  # 1200 vs 400 users
        expected_off = UserPool(400).request_rate * 30.0
        assert off_mean == pytest.approx(expected_off, rel=0.05)

    def test_exact_mode_agrees_with_poisson_mode(self):
        wl = WebServerWorkload(OnOffChain(0.05, 0.2), normal_users=30,
                               peak_users=90, interval=5.0)
        _, fast = wl.generate(200, seed=3, exact=False)
        _, slow = wl.generate(200, seed=3, exact=True)
        assert slow.mean() == pytest.approx(fast.mean(), rel=0.15)

    def test_peak_below_normal_rejected(self):
        with pytest.raises(ValueError, match="peak_users"):
            WebServerWorkload(OnOffChain(0.01, 0.09), 100, 50)

    def test_reproducible(self, workload):
        a = workload.generate(100, seed=9)
        b = workload.generate(100, seed=9)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_burstiness_visible(self, workload):
        from repro.workload.stats import index_of_dispersion

        _, counts = workload.generate(5000, seed=2)
        assert index_of_dispersion(counts) > 10.0
