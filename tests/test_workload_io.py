"""Tests for repro.workload.io — instance/trace/placement persistence."""

import json

import numpy as np
import pytest

from repro.core.types import Placement, VMSpec
from repro.workload.io import (
    load_instance,
    load_traces,
    save_instance,
    save_placement,
    save_traces,
)
from repro.workload.patterns import generate_pattern_instance
from tests.helpers import load_placement


class TestInstanceRoundtrip:
    def test_roundtrip_preserves_everything(self, tmp_path):
        vms, pms = generate_pattern_instance("equal", 20, seed=0)
        path = tmp_path / "instance.json"
        save_instance(path, vms, pms)
        vms2, pms2 = load_instance(path)
        assert vms2 == vms
        assert pms2 == pms

    def test_empty_instance(self, tmp_path):
        path = tmp_path / "empty.json"
        save_instance(path, [], [])
        vms, pms = load_instance(path)
        assert vms == [] and pms == []

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99, "vms": [], "pms": []}))
        with pytest.raises(ValueError, match="version"):
            load_instance(path)

    def test_malformed_entries_rejected(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "vms": [{"p_on": 0.1}],  # missing fields
            "pms": [],
        }))
        with pytest.raises(ValueError, match="malformed"):
            load_instance(path)

    def test_invalid_values_rejected_by_spec_validation(self, tmp_path):
        path = tmp_path / "bad3.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "vms": [{"p_on": 2.0, "p_off": 0.1, "r_base": 1.0, "r_extra": 1.0}],
            "pms": [],
        }))
        with pytest.raises(ValueError):
            load_instance(path)


class TestTraceRoundtrip:
    def test_roundtrip(self, tmp_path):
        traces = np.random.default_rng(0).uniform(0, 50, (5, 100))
        path = tmp_path / "traces.csv"
        save_traces(path, traces)
        loaded = load_traces(path)
        np.testing.assert_allclose(loaded, traces, rtol=1e-9)

    def test_single_vm_keeps_2d(self, tmp_path):
        traces = np.arange(10.0).reshape(1, 10)
        path = tmp_path / "one.csv"
        save_traces(path, traces)
        assert load_traces(path).shape == (1, 10)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            save_traces(tmp_path / "x.csv", np.arange(5.0))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="not a repro trace file"):
            load_traces(path)

    def test_estimation_pipeline_from_file(self, tmp_path):
        """Traces written to disk feed the estimator unchanged."""
        from repro.workload.estimation import fit_fleet
        from repro.workload.onoff_generator import demand_trace, ensemble_states

        vms = [VMSpec(0.02, 0.1, 10.0, 8.0)]
        states = ensemble_states(vms, 50_000, start_stationary=True, seed=1)
        traces = demand_trace(vms, states)
        path = tmp_path / "monitoring.csv"
        save_traces(path, traces)
        fits = fit_fleet(load_traces(path))
        assert fits[0].r_base == pytest.approx(10.0, abs=0.1)


class TestPlacementRoundtrip:
    def test_roundtrip(self, tmp_path):
        placement = Placement(4, 3, assignment=np.array([0, 2, -1, 1]))
        path = tmp_path / "placement.json"
        save_placement(path, placement)
        loaded = load_placement(path)
        assert loaded.n_vms == 4 and loaded.n_pms == 3
        np.testing.assert_array_equal(loaded.assignment, placement.assignment)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 0}))
        with pytest.raises(ValueError):
            load_placement(path)

    def test_invalid_assignment_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({
            "format_version": 1, "n_vms": 2, "n_pms": 1,
            "assignment": [0, 5],
        }))
        with pytest.raises(ValueError):
            load_placement(path)
