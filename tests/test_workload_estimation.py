"""Tests for repro.workload.estimation — fitting the four-tuple from traces.

The row-batched :func:`fit_fleet` must equal the per-row reference
:func:`repro.perf.reference.fit_onoff_reference` bit for bit on every field
of every row (:class:`TestBatchedParity`); the reference's own steps are
tested here too.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.types import VMSpec
from repro.perf.reference import (
    classify_states,
    estimate_switch_probabilities,
    fit_onoff_reference,
    two_means_split,
)
from repro.workload.estimation import CLIP, fit_fleet, fit_onoff
from repro.workload.onoff_generator import demand_trace, ensemble_states
from repro.workload.patterns import generate_pattern_instance


def synthetic_trace(vm: VMSpec, n_steps: int, seed: int, noise: float = 0.0):
    states = ensemble_states([vm], n_steps, start_stationary=True, seed=seed)
    trace = demand_trace([vm], states)[0]
    if noise:
        rng = np.random.default_rng(seed + 1)
        trace = trace + rng.normal(0.0, noise, trace.size)
    return trace, states[0]


class TestTwoMeansSplit:
    def test_bimodal_threshold_between_levels(self):
        trace = np.concatenate([np.full(90, 10.0), np.full(10, 20.0)])
        thr = two_means_split(trace)
        assert 10.0 < thr < 20.0

    def test_constant_trace(self):
        assert two_means_split(np.full(10, 5.0)) == 5.0

    def test_noisy_bimodal(self):
        rng = np.random.default_rng(0)
        trace = np.concatenate([
            rng.normal(10, 0.5, 900), rng.normal(20, 0.5, 100)
        ])
        thr = two_means_split(trace)
        assert 12.0 < thr < 18.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            two_means_split(np.empty(0))
        with pytest.raises(ValueError):
            two_means_split(np.array([1.0, np.nan]))


class TestClassifyStates:
    def test_threshold_semantics(self):
        states = classify_states(np.array([1.0, 2.0, 3.0]), 2.0)
        np.testing.assert_array_equal(states, [0, 0, 1])


class TestEstimateSwitchProbabilities:
    def test_exact_counting(self):
        # prev=[0,0,1,1], curr=[0,1,1,0]: off->on = 1 of 2 off-steps,
        # on->off = 1 of 2 on-steps.
        states = np.array([0, 0, 1, 1, 0])
        p_on, p_off, n_trans, ll = estimate_switch_probabilities(states)
        assert p_on == pytest.approx(0.5)
        assert p_off == pytest.approx(0.5)
        assert n_trans == 2
        assert ll < 0

    def test_no_transitions_clipped(self):
        p_on, p_off, n_trans, _ = estimate_switch_probabilities(
            np.zeros(100, dtype=int)
        )
        assert p_on == CLIP == 1e-4
        assert n_trans == 0

    def test_recovers_true_parameters(self):
        from repro.markov.onoff import OnOffChain

        traj = OnOffChain(0.02, 0.1).simulate(400_000, seed=1)
        p_on, p_off, _, _ = estimate_switch_probabilities(traj)
        assert p_on == pytest.approx(0.02, rel=0.1)
        assert p_off == pytest.approx(0.1, rel=0.1)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            estimate_switch_probabilities(np.array([1]))


class TestFitOnOff:
    def test_recovers_clean_synthetic_vm(self):
        vm = VMSpec(0.02, 0.1, r_base=10.0, r_extra=8.0)
        trace, _ = synthetic_trace(vm, 200_000, seed=2)
        fit = fit_onoff(trace)
        assert fit.p_on == pytest.approx(0.02, rel=0.15)
        assert fit.p_off == pytest.approx(0.1, rel=0.15)
        assert fit.r_base == pytest.approx(10.0, abs=0.01)
        assert fit.r_extra == pytest.approx(8.0, abs=0.01)
        assert fit.on_fraction == pytest.approx(0.02 / 0.12, abs=0.01)

    def test_recovers_noisy_synthetic_vm(self):
        vm = VMSpec(0.02, 0.1, r_base=10.0, r_extra=8.0)
        trace, _ = synthetic_trace(vm, 100_000, seed=3, noise=0.5)
        fit = fit_onoff(trace)
        assert fit.r_base == pytest.approx(10.0, abs=0.5)
        assert fit.r_extra == pytest.approx(8.0, abs=1.0)
        assert fit.p_on == pytest.approx(0.02, rel=0.3)

    def test_to_vmspec_roundtrip(self):
        vm = VMSpec(0.02, 0.1, 10.0, 8.0)
        trace, _ = synthetic_trace(vm, 50_000, seed=4)
        spec = fit_onoff(trace).to_vmspec()
        assert isinstance(spec, VMSpec)
        assert spec.r_peak == pytest.approx(18.0, abs=0.5)

    def test_percentile_margin_is_conservative(self):
        vm = VMSpec(0.02, 0.1, 10.0, 8.0)
        trace, _ = synthetic_trace(vm, 50_000, seed=5, noise=0.5)
        mean_fit = fit_onoff(trace)
        cons_fit = fit_onoff(trace, percentile_margin=0.95)
        assert cons_fit.r_base >= mean_fit.r_base
        assert cons_fit.r_base + cons_fit.r_extra >= (
            mean_fit.r_base + mean_fit.r_extra
        )

    def test_constant_trace_degenerates_gracefully(self):
        fit = fit_onoff(np.full(100, 7.0))
        assert fit.r_base == pytest.approx(7.0)
        assert fit.r_extra == 0.0
        assert fit.on_fraction == 0.0
        fit.to_vmspec()  # must still be constructible

    def test_log_likelihood_prefers_truth(self):
        """The fitted parameters have higher likelihood than perturbed ones."""
        vm = VMSpec(0.02, 0.1, 10.0, 8.0)
        trace, states = synthetic_trace(vm, 100_000, seed=6)
        fit = fit_onoff(trace)
        # Compute likelihood of a clearly wrong parameterization.
        s = states.astype(bool)
        prev, curr = s[:-1], s[1:]
        wrong_p_on, wrong_p_off = 0.3, 0.3
        ll_wrong = (
            (~prev & curr).sum() * np.log(wrong_p_on)
            + (~prev & ~curr).sum() * np.log(1 - wrong_p_on)
            + (prev & ~curr).sum() * np.log(wrong_p_off)
            + (prev & curr).sum() * np.log(1 - wrong_p_off)
        )
        assert fit.log_likelihood > ll_wrong

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fit_onoff(np.array([1.0]))
        with pytest.raises(ValueError):
            fit_onoff(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            fit_onoff(np.arange(10.0), percentile_margin=1.5)


class TestFitFleet:
    def test_fits_every_row(self):
        vms = [VMSpec(0.02, 0.1, 10.0, 8.0), VMSpec(0.05, 0.2, 4.0, 12.0)]
        states = ensemble_states(vms, 100_000, start_stationary=True, seed=7)
        traces = demand_trace(vms, states)
        fits = fit_fleet(traces)
        assert len(fits) == 2
        assert fits[0].r_base == pytest.approx(10.0, abs=0.1)
        assert fits[1].r_extra == pytest.approx(12.0, abs=0.1)
        assert fits[1].p_off == pytest.approx(0.2, rel=0.15)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            fit_fleet(np.arange(10.0))

    def test_end_to_end_consolidation_from_traces(self):
        """The estimation closes the loop: traces -> specs -> placement."""
        from repro.core.queuing_ffd import QueuingFFD

        vms, pms = generate_pattern_instance("equal", 30, seed=8)
        states = ensemble_states(vms, 50_000, start_stationary=True, seed=9)
        traces = demand_trace(vms, states)
        fitted = [f.to_vmspec() for f in fit_fleet(traces)]
        placement = QueuingFFD(rho=0.01, d=16).place(fitted, pms)
        assert placement.all_placed
        # Fitted specs are close to truth, so PM counts should agree closely.
        truth = QueuingFFD(rho=0.01, d=16).place(vms, pms)
        assert abs(placement.n_used_pms - truth.n_used_pms) <= 2


# ---------------------------------------------------------------------- #
# fit_fleet == fit_onoff_reference, bit for bit
# ---------------------------------------------------------------------- #
MARGINS = st.sampled_from([None, 0.9, 0.95])
LENGTHS = st.one_of(st.integers(2, 300), st.sampled_from([8, 128, 129, 1000, 8193]))
KINDS = ("constant", "two-level", "noisy", "rounded", "gaussian")


def _fields(fit):
    """Every field's type and float64 bit pattern."""
    values = dataclasses.astuple(fit)
    return ([type(v) for v in values],
            np.array(values, dtype=np.float64).tobytes())


def assert_parity(m: np.ndarray, margin) -> None:
    fits = fit_fleet(m, percentile_margin=margin)
    assert len(fits) == m.shape[0]
    for i, fit in enumerate(fits):
        want = fit_onoff_reference(m[i], percentile_margin=margin)
        assert _fields(fit) == _fields(want), (i, fit, want)


def _row(kind: str, T: int, rng: np.random.Generator) -> np.ndarray:
    base, extra = rng.uniform(0.0, 30.0, 2)
    on = rng.random(T) < rng.uniform(0.01, 0.9)
    if kind == "constant":
        return np.full(T, base)
    if kind == "gaussian":
        return rng.normal(base, extra + 0.1, T)
    row = base + extra * on
    if kind == "two-level":
        return row
    noisy = row + rng.normal(0.0, rng.uniform(0.05, 3.0), T)
    return np.round(noisy, 1) if kind == "rounded" else noisy


@st.composite
def fleets(draw):
    T = draw(LENGTHS)
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.stack([_row(kind, T, rng) for kind in kinds])


#: values that tie, sit one ulp apart, or are signed zeros
AWKWARD = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1.0, 1.0 + 2**-52,
                           1.0 - 2**-53, 1e-300, 5e-324, -7.5, 1e12])


class TestBatchedParity:
    @given(m=fleets(), margin=MARGINS)
    @settings(max_examples=80, deadline=None)
    def test_generated_fleets(self, m, margin):
        assert_parity(m, margin)

    @given(m=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(2, 40)),
                    elements=st.one_of(AWKWARD, st.floats(-1e6, 1e6),
                                       st.floats(allow_nan=False,
                                                 allow_infinity=False))),
           margin=MARGINS)
    @settings(max_examples=150, deadline=None)
    def test_drawn_values(self, m, margin):
        # sums of values near the float64 limit overflow alike on both sides
        with np.errstate(over="ignore", invalid="ignore"):
            assert_parity(m, margin)

    @pytest.mark.parametrize("margin", [None, 0.9, 0.95])
    def test_perfbench_shaped_fleet(self, margin):
        """ "large" traces as perfbench builds them, 400 VMs x 1,000 samples."""
        vms, _ = generate_pattern_instance("large", 400, seed=3)
        states = ensemble_states(vms, 999, start_stationary=True, seed=4)
        assert_parity(demand_trace(vms, states), margin)

    def test_empty_fleet(self):
        assert fit_fleet(np.empty((0, 10))) == []


class TestErrorSurface:
    """fit_fleet and fit_onoff refuse what the per-row fit refused, with its
    message."""

    @staticmethod
    def _message(fn, *args, **kwargs) -> str:
        with pytest.raises(ValueError) as info:
            fn(*args, **kwargs)
        return str(info.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, bad):
        row = np.arange(10.0)
        row[3] = bad
        want = self._message(fit_onoff_reference, row)
        assert want == "trace must be finite"
        assert self._message(fit_onoff, row) == want
        m = np.stack([np.arange(10.0), row])
        assert self._message(fit_fleet, m) == want

    def test_one_dimensional_fleet(self):
        msg = self._message(fit_fleet, np.arange(10.0))
        assert re.fullmatch(r"traces must be 2-D \(n_vms, T\), got shape \(10,\)",
                            msg)

    @pytest.mark.parametrize("T", [0, 1])
    def test_too_short(self, T):
        want = self._message(fit_onoff_reference, np.ones(T))
        assert want == "need a 1-D trace of length >= 2"
        assert self._message(fit_onoff, np.ones(T)) == want
        assert self._message(fit_fleet, np.ones((3, T))) == want

    @pytest.mark.parametrize("margin", [1.5, -0.1, float("nan")])
    def test_margin_out_of_range(self, margin):
        row = np.arange(10.0)
        want = self._message(fit_onoff_reference, row, percentile_margin=margin)
        assert want.startswith("percentile_margin must be in [0.0, 1.0]")
        assert self._message(fit_onoff, row, percentile_margin=margin) == want
        assert self._message(fit_fleet, row[None, :],
                             percentile_margin=margin) == want
