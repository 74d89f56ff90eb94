"""Tests for repro.markov.hmm — Baum-Welch ON-OFF fitting."""

import numpy as np
import pytest

from repro.core.types import VMSpec
from repro.markov.hmm import fit_hmm_onoff
from repro.workload.estimation import fit_onoff
from repro.workload.onoff_generator import demand_trace, ensemble_states


def noisy_trace(vm, n_steps, seed, noise):
    states = ensemble_states([vm], n_steps, start_stationary=True, seed=seed)
    trace = demand_trace([vm], states)[0]
    rng = np.random.default_rng(seed + 1)
    return trace + rng.normal(0.0, noise, trace.size), states[0]


class TestFitHmm:
    def test_recovers_clean_parameters(self):
        vm = VMSpec(0.02, 0.1, 10.0, 8.0)
        trace, _ = noisy_trace(vm, 60_000, seed=0, noise=0.3)
        fit = fit_hmm_onoff(trace)
        assert fit.r_base == pytest.approx(10.0, abs=0.3)
        assert fit.r_extra == pytest.approx(8.0, abs=0.6)
        assert fit.p_on == pytest.approx(0.02, rel=0.2)
        assert fit.p_off == pytest.approx(0.1, rel=0.2)
        assert fit.on_fraction == pytest.approx(0.02 / 0.12, abs=0.02)

    def test_convergence_diagnostics(self):
        vm = VMSpec(0.05, 0.2, 5.0, 5.0)
        trace, _ = noisy_trace(vm, 10_000, seed=1, noise=0.2)
        fit, diag = fit_hmm_onoff(trace, return_diagnostics=True)
        assert diag.n_iterations >= 2
        # EM log-likelihood is non-decreasing.
        path = np.array(diag.log_likelihood_path)
        assert np.all(np.diff(path) >= -1e-6 * np.abs(path[:-1]))

    def test_beats_threshold_under_heavy_noise(self):
        """With noise comparable to the level gap, EM recovers the switch
        probabilities better than the threshold estimator."""
        vm = VMSpec(0.02, 0.1, 10.0, 6.0)
        trace, _ = noisy_trace(vm, 80_000, seed=2, noise=2.0)
        hmm_fit = fit_hmm_onoff(trace)
        thr_fit = fit_onoff(trace)

        def err(fit):
            return (abs(fit.p_on - 0.02) / 0.02
                    + abs(fit.p_off - 0.1) / 0.1)

        assert err(hmm_fit) < err(thr_fit)

    def test_to_vmspec_usable(self):
        vm = VMSpec(0.02, 0.1, 10.0, 8.0)
        trace, _ = noisy_trace(vm, 20_000, seed=3, noise=0.5)
        spec = fit_hmm_onoff(trace).to_vmspec()
        assert isinstance(spec, VMSpec)
        assert spec.r_peak > spec.r_base

    def test_constant_trace_degenerates_gracefully(self):
        fit = fit_hmm_onoff(np.full(200, 5.0))
        assert fit.r_base == pytest.approx(5.0, abs=0.1)
        assert fit.r_extra == pytest.approx(0.0, abs=0.1)
        fit.to_vmspec()

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_hmm_onoff(np.array([1.0]))
        with pytest.raises(ValueError):
            fit_hmm_onoff(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            fit_hmm_onoff(np.arange(10.0), tol=0.0)

    def test_deterministic(self):
        vm = VMSpec(0.05, 0.15, 4.0, 6.0)
        trace, _ = noisy_trace(vm, 5_000, seed=4, noise=0.4)
        a = fit_hmm_onoff(trace)
        b = fit_hmm_onoff(trace)
        assert a == b

    def test_posterior_onfraction_matches_truth(self):
        vm = VMSpec(0.02, 0.08, 10.0, 10.0)
        trace, states = noisy_trace(vm, 40_000, seed=5, noise=1.0)
        fit = fit_hmm_onoff(trace)
        assert fit.on_fraction == pytest.approx(float(states.mean()), abs=0.02)


class TestDegenerateWindowGuard:
    def test_near_constant_trace_falls_back_without_nan(self):
        trace = np.full(200, 5.0)
        trace[0] = 5.0 + 1e-9  # non-zero but vanishing variance
        fit, diag = fit_hmm_onoff(trace, return_diagnostics=True)
        assert not diag.converged
        assert diag.n_iterations == 0
        assert np.isfinite(fit.p_on) and np.isfinite(fit.p_off)
        assert fit.r_base == pytest.approx(5.0, abs=0.1)
        fit.to_vmspec()

    def test_constant_trace_diagnostics_mark_fallback(self):
        fit, diag = fit_hmm_onoff(np.full(300, 2.0), return_diagnostics=True)
        assert not diag.converged
        assert len(diag.log_likelihood_path) == 1
        assert fit.r_extra == pytest.approx(0.0, abs=0.1)

    def test_degenerate_counter_increments(self):
        from repro.telemetry import Telemetry, RingBufferSink, tracing

        tel = Telemetry(RingBufferSink())
        with tracing(tel):
            fit_hmm_onoff(np.full(120, 1.0))
            fit_hmm_onoff(np.full(120, 3.0))
        counters = tel.metrics.to_dict()
        assert counters["hmm_degenerate_window_total"]["value"] >= 2

    def test_scale_invariance_of_guard(self):
        # a large-magnitude constant trace is just as degenerate
        fit = fit_hmm_onoff(np.full(150, 1e8))
        assert np.isfinite(fit.p_on)
        assert fit.r_base == pytest.approx(1e8, rel=1e-3)
