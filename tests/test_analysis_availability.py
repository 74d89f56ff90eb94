"""Tests for repro.analysis.availability — nines, MTTR, blast radius."""

import math

import numpy as np
import pytest

from repro.analysis.availability import (
    MAX_NINES,
    availability_report,
    blast_radius_stats,
    mean_time_to_repair,
    nines,
)
from repro.simulation.failures import FailureRecord
from repro.simulation.monitor import RunRecord


def make_record(n_intervals=100, down=None, degraded=None):
    down = np.asarray(down if down is not None else [], dtype=np.int64)
    degraded = (np.asarray(degraded, dtype=np.int64) if degraded is not None
                else np.zeros_like(down))
    return RunRecord(
        n_intervals=n_intervals,
        migration_rows=np.empty((0, 4), dtype=np.int64),
        pms_used_series=np.ones(n_intervals, dtype=np.int64),
        migrations_per_interval=np.zeros(n_intervals, dtype=np.int64),
        violation_counts=np.zeros(1, dtype=np.int64),
        presence_counts=np.ones(1, dtype=np.int64),
        vm_down_counts=down,
        vm_degraded_counts=degraded,
    )


class TestNines:
    def test_standard_values(self):
        assert nines(0.99) == pytest.approx(2.0)
        assert nines(0.999) == pytest.approx(3.0)

    def test_perfect_availability_capped(self):
        assert nines(1.0) == MAX_NINES

    def test_zero_availability(self):
        assert nines(0.0) == pytest.approx(0.0)

    def test_validates_range(self):
        with pytest.raises(ValueError):
            nines(1.5)
        with pytest.raises(ValueError):
            nines(-0.1)


class TestMTTR:
    def test_mean(self):
        assert mean_time_to_repair([2, 4, 6]) == pytest.approx(4.0)

    def test_empty_is_nan(self):
        assert math.isnan(mean_time_to_repair([]))


class TestBlastRadius:
    def test_empty(self):
        stats = blast_radius_stats([])
        assert stats["events"] == 0.0
        assert stats["max"] == 0.0

    def test_distribution(self):
        stats = blast_radius_stats([1, 3, 8])
        assert stats["events"] == 3.0
        assert stats["mean"] == pytest.approx(4.0)
        assert stats["max"] == 8.0
        assert stats["total_vms_hit"] == 12.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            blast_radius_stats([-1])


class TestAvailabilityReport:
    def test_without_vm_tracking(self):
        report = availability_report(make_record())
        assert report["mean_availability"] == 1.0
        assert report["mean_nines"] == MAX_NINES

    def test_per_vm_availability(self):
        # VM 0 down 10 of 100 intervals, VM 1 always up.
        report = availability_report(make_record(down=[10, 0]))
        assert report["mean_availability"] == pytest.approx(0.95)
        assert report["min_availability"] == pytest.approx(0.90)
        assert report["worst_nines"] == pytest.approx(1.0)

    def test_degraded_counts_as_available(self):
        report = availability_report(
            make_record(down=[0, 0], degraded=[50, 0]))
        assert report["mean_availability"] == 1.0
        assert report["degraded_fraction"] == pytest.approx(0.25)

    def test_failure_record_section(self):
        failures = FailureRecord(failures=3, domain_failures=1,
                                 blast_radii=[2, 5], repair_durations=[4, 8])
        report = availability_report(make_record(down=[1]), failures)
        assert report["failures"] == 3.0
        assert report["domain_failures"] == 1.0
        assert report["mttr_intervals"] == pytest.approx(6.0)
        assert report["blast_max"] == 5.0
        assert report["blast_total_vms_hit"] == 7.0
