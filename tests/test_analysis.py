"""Tests for repro.analysis — CVR, consolidation metrics, reporting."""

import numpy as np
import pytest

from repro.analysis.consolidation import pm_reduction_percent
from repro.analysis.cvr import cvr_from_loads, cvr_per_pm, evaluate_placement_cvr
from repro.analysis.report import ExperimentResult, render_result
from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import Placement, PMSpec, VMSpec
from repro.workload.patterns import generate_pattern_instance


class TestCvrFromLoads:
    def test_fraction_of_violating_intervals(self):
        loads = np.array([[5.0, 15.0, 25.0, 5.0]])
        caps = np.array([10.0])
        np.testing.assert_allclose(cvr_from_loads(loads, caps), [0.5])

    def test_boundary_not_a_violation(self):
        loads = np.array([[10.0, 10.0]])
        caps = np.array([10.0])
        np.testing.assert_allclose(cvr_from_loads(loads, caps), [0.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cvr_from_loads(np.zeros(3), np.ones(1))
        with pytest.raises(ValueError):
            cvr_from_loads(np.zeros((2, 3)), np.ones(3))


class TestCvrPerPm:
    def test_deterministic_states(self):
        vms = [VMSpec(0.01, 0.09, 8.0, 4.0)]
        pms = [PMSpec(10.0)]
        placement = Placement(1, 1, assignment=np.array([0]))
        states = np.array([[False, True, True, False]])
        cvr = cvr_per_pm(placement, vms, pms, states)
        np.testing.assert_allclose(cvr, [0.5])


class TestEvaluatePlacementCvr:
    def test_queue_placement_bounded(self):
        vms, pms = generate_pattern_instance("equal", 60, seed=0)
        placement = QueuingFFD(rho=0.01, d=16).place(vms, pms)
        stats = evaluate_placement_cvr(placement, vms, pms, n_steps=30_000, seed=1)
        assert stats["mean"] <= 0.01 + 0.005
        assert stats["n_used"] == placement.n_used_pms
        assert len(stats["per_pm"]) == placement.n_used_pms

    def test_summary_consistency(self):
        vms, pms = generate_pattern_instance("equal", 40, seed=2)
        placement = QueuingFFD().place(vms, pms)
        stats = evaluate_placement_cvr(placement, vms, pms, n_steps=5000, seed=3)
        per_pm = stats["per_pm"]
        assert stats["mean"] == pytest.approx(float(np.mean(per_pm)))
        assert stats["max"] == pytest.approx(float(np.max(per_pm)))


class TestConsolidationMetrics:
    def _placement(self, assignment, n_pms):
        return Placement(len(assignment), n_pms, assignment=np.array(assignment))

    def test_pms_used(self):
        assert self._placement([0, 0, 1], 4).n_used_pms == 2

    def test_pm_reduction_percent(self):
        candidate = self._placement([0, 0, 0], 4)
        baseline = self._placement([0, 1, 2], 4)
        assert pm_reduction_percent(candidate, baseline) == pytest.approx(200 / 3)

    def test_pm_reduction_negative_when_worse(self):
        candidate = self._placement([0, 1], 4)
        baseline = self._placement([0, 0], 4)
        assert pm_reduction_percent(candidate, baseline) == -100.0

    def test_zero_baseline_raises(self):
        with pytest.raises(ValueError):
            pm_reduction_percent(self._placement([0], 2), Placement(0, 2))


class TestExperimentResult:
    def test_add_row_arity_checked(self):
        r = ExperimentResult("x", "d", headers=["a", "b"])
        r.add_row(1, 2)
        with pytest.raises(ValueError):
            r.add_row(1)

    def test_column_extraction(self):
        r = ExperimentResult("x", "d", headers=["a", "b"])
        r.add_row(1, 10)
        r.add_row(2, 20)
        assert r.column("b") == [10, 20]
        with pytest.raises(KeyError):
            r.column("c")

    def test_render_contains_everything(self):
        r = ExperimentResult("fig0", "demo", params={"rho": 0.01},
                             headers=["a"], rows=[[1.5]])
        r.notes.append("shape ok")
        text = render_result(r)
        assert "fig0" in text and "rho=0.01" in text
        assert "1.500" in text and "note: shape ok" in text
