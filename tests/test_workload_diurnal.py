"""Tests for repro.workload.diurnal — time-varying spike rates."""

import numpy as np
import pytest

from repro.core.types import VMSpec
from repro.workload.diurnal import (
    STANDARD_DAY,
    DiurnalSchedule,
    effective_q,
    ensemble_states_diurnal,
    phase_cvr,
)


class TestDiurnalSchedule:
    def test_multiplier_cycles(self):
        s = DiurnalSchedule(multipliers=(1.0, 2.0), phase_length=3)
        assert s.multiplier_series(8).tolist() == [1, 1, 1, 2, 2, 2, 1, 1]

    def test_series_matches_pointwise(self):
        s = DiurnalSchedule(multipliers=(0.5, 1.5, 3.0), phase_length=2)
        series = s.multiplier_series(10)
        # interval t runs phase (t // 2) % 3
        np.testing.assert_array_equal(
            series, [0.5, 0.5, 1.5, 1.5, 3.0, 3.0, 0.5, 0.5, 1.5, 1.5]
        )

    def test_mean_and_peak(self):
        s = DiurnalSchedule(multipliers=(0.5, 1.5))
        assert s.mean_multiplier == 1.0
        assert s.peak_multiplier == 1.5

    def test_standard_day_sane(self):
        assert len(STANDARD_DAY.multipliers) * STANDARD_DAY.phase_length \
            == 24 * 120
        assert STANDARD_DAY.peak_multiplier == 3.0
        assert 1.0 <= STANDARD_DAY.mean_multiplier <= 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalSchedule(multipliers=())
        with pytest.raises(ValueError):
            DiurnalSchedule(multipliers=(1.0,), phase_length=0)
        with pytest.raises(ValueError):
            DiurnalSchedule(multipliers=(-1.0,))


class TestEffectiveQ:
    def test_mean_and_peak_ordering(self):
        vm = VMSpec(0.01, 0.09, 1.0, 1.0)
        q = effective_q(vm, DiurnalSchedule(multipliers=(0.5, 2.0)))
        assert q["mean"] < q["peak"]
        # peak multiplier 2: q = 0.02/(0.02+0.09)
        assert q["peak"] == pytest.approx(0.02 / 0.11)

    def test_multiplier_one_recovers_stationary_q(self):
        vm = VMSpec(0.01, 0.09, 1.0, 1.0)
        q = effective_q(vm, DiurnalSchedule(multipliers=(1.0,)))
        assert q["mean"] == q["peak"] == pytest.approx(0.1)

    def test_huge_multiplier_clipped(self):
        vm = VMSpec(0.5, 0.5, 1.0, 1.0)
        q = effective_q(vm, DiurnalSchedule(multipliers=(10.0,)))
        assert q["peak"] == pytest.approx(1.0 / 1.5)  # p_on clipped to 1


class TestEnsembleDiurnal:
    def test_shape_and_start(self):
        vms = [VMSpec(0.01, 0.09, 1.0, 1.0)] * 5
        states = ensemble_states_diurnal(vms, STANDARD_DAY, 100, seed=0)
        assert states.shape == (5, 101)
        assert not states[:, 0].any()

    def test_constant_schedule_matches_homogeneous(self):
        from repro.workload.onoff_generator import ensemble_states

        vms = [VMSpec(0.02, 0.1, 1.0, 1.0)] * 4
        flat = DiurnalSchedule(multipliers=(1.0,))
        a = ensemble_states_diurnal(vms, flat, 200, seed=3)
        b = ensemble_states(vms, 200, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_busy_phase_has_more_on_time(self):
        vms = [VMSpec(0.01, 0.09, 1.0, 1.0)] * 400
        schedule = DiurnalSchedule(multipliers=(0.2, 3.0), phase_length=500)
        states = ensemble_states_diurnal(vms, schedule, 10_000, seed=1)
        mults = schedule.multiplier_series(10_000)
        quiet = states[:, 1:][:, mults == 0.2].mean()
        busy = states[:, 1:][:, mults == 3.0].mean()
        assert busy > 2 * quiet

    def test_reproducible(self):
        vms = [VMSpec(0.01, 0.09, 1.0, 1.0)] * 3
        a = ensemble_states_diurnal(vms, STANDARD_DAY, 50, seed=2)
        b = ensemble_states_diurnal(vms, STANDARD_DAY, 50, seed=2)
        np.testing.assert_array_equal(a, b)


class TestPhaseCvr:
    def test_groups_by_multiplier(self):
        schedule = DiurnalSchedule(multipliers=(1.0, 2.0), phase_length=2)
        # 1 PM, 8 intervals; violate only in the 2.0-phases
        loads = np.array([[5, 5, 15, 15, 5, 5, 15, 15.0]])
        caps = np.array([10.0])
        by_phase = phase_cvr(loads, caps, schedule)
        assert by_phase[1.0] == 0.0
        assert by_phase[2.0] == 1.0

    def test_average_consistent(self):
        schedule = DiurnalSchedule(multipliers=(1.0, 2.0), phase_length=1)
        rng = np.random.default_rng(0)
        loads = rng.uniform(0, 20, (3, 100))
        caps = np.full(3, 10.0)
        by_phase = phase_cvr(loads, caps, schedule)
        overall = (loads > caps[:, None] + 1e-9).mean()
        assert np.mean(list(by_phase.values())) == pytest.approx(overall,
                                                                 abs=0.05)


class TestSizingGuidance:
    def test_average_sizing_violates_in_busy_hours_peak_sizing_does_not(self):
        """The headline diurnal result at unit-test scale."""
        from repro.core.mapcal import mapcal

        base = VMSpec(0.01, 0.09, 0.0, 1.0)
        k = 12
        schedule = DiurnalSchedule(multipliers=(0.2, 3.0), phase_length=1000)
        vms = [base] * k
        states = ensemble_states_diurnal(vms, schedule, 200_000, seed=5)
        busy_cols = schedule.multiplier_series(200_000) == 3.0
        demand = states[:, 1:].sum(axis=0)

        q_stats = effective_q(base, schedule)
        for label, q in q_stats.items():
            p_on_equiv = q * 0.09 / (1 - q)
            K = mapcal(k, p_on_equiv, 0.09, 0.01)
            busy_viol = float((demand[busy_cols] > K).mean())
            if label == "peak":
                assert busy_viol <= 0.015
            else:
                assert busy_viol > 0.015  # average sizing under-reserves
