"""Metrics registry: counters, gauges, histogram percentiles, exporters."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.telemetry import Histogram, MetricsRegistry


class TestCounterGauge:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("migrations_total", "help text")
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("pms_used")
        g.set(12)
        g.set(10)
        assert g.value == 10
        g.set(11)
        assert g.value == 11

    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_type_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_bad_names_rejected(self):
        reg = MetricsRegistry()
        for bad in ("", "1abc", "has space", "has-dash"):
            with pytest.raises(ValueError):
                reg.counter(bad)


class TestHistogram:
    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=[1.0, 1.0, 2.0])

    def test_percentile_matches_numpy_within_bucket_width(self):
        # Fixed-bucket estimation: error is bounded by the width of the
        # bucket containing the true percentile.
        rng = np.random.default_rng(42)
        values = rng.gamma(shape=2.0, scale=0.02, size=5000)
        bounds = [0.001 * 2**i for i in range(14)]  # 1ms .. ~8s
        h = Histogram("latency", buckets=bounds)
        for v in values:
            h.observe(float(v))
        edges = np.array([0.0, *bounds, np.inf])
        for q in (0.5, 0.9, 0.99):
            true = float(np.quantile(values, q))
            est = h.percentile(q)
            width = float(np.diff(edges)[np.searchsorted(edges, true) - 1])
            assert abs(est - true) <= width, (q, est, true, width)

    def test_percentile_clamped_by_observed_extremes(self):
        h = Histogram("h", buckets=[10.0, 100.0])
        h.observe(42.0)
        assert h.percentile(0.0) == 42.0
        assert h.percentile(1.0) == 42.0

    def test_mean_and_sum_exact(self):
        h = Histogram("h", buckets=[1.0, 2.0])
        for v in (0.5, 1.5, 3.0):
            h.observe(v)
        assert h.sum == pytest.approx(5.0)
        assert h.mean == pytest.approx(5.0 / 3)

    def test_empty_percentile_is_nan(self):
        h = Histogram("h", buckets=[1.0, 2.0])
        for q in (0.0, 0.5, 0.99, 1.0):
            assert math.isnan(h.percentile(q))

    def test_nan_only_observations_yield_nan_not_inf(self):
        # NaN comparisons are all False, so observations never establish a
        # finite min/max; the percentile must admit it knows nothing
        # instead of reporting the +/-inf sentinels.
        h = Histogram("h", buckets=[1.0, 2.0])
        h.observe(float("nan"))
        assert h.count == 1
        assert math.isnan(h.percentile(0.5))

    def test_to_dict_is_json_safe_with_nan_observations(self):
        h = Histogram("h", buckets=[1.0, 2.0])
        h.observe(float("nan"))
        d = h.to_dict()
        # json.dumps would emit bare NaN (invalid JSON) for these
        assert d["sum"] is None
        assert d["min"] is None and d["max"] is None
        assert d["mean"] is None
        assert d["p50"] is None and d["p90"] is None and d["p99"] is None
        json.loads(json.dumps(d))  # round-trips as strict JSON

    def test_to_dict_unchanged_for_finite_observations(self):
        h = Histogram("h", buckets=[1.0, 2.0])
        h.observe(0.5)
        d = h.to_dict()
        assert d["sum"] == pytest.approx(0.5)
        assert d["p50"] == pytest.approx(0.5)


class TestExporters:
    def _populated(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("migrations_total", "completed migrations").inc(7)
        reg.gauge("pms_used", "powered-on PMs").set(12)
        h = reg.histogram("span_seconds", "span durations",
                          buckets=[0.1, 1.0])
        h.observe(0.05)
        h.observe(0.5)
        return reg

    def test_json_round_trips(self):
        snapshot = json.loads(self._populated().to_json())
        assert snapshot["migrations_total"] == {"type": "counter", "value": 7}
        assert snapshot["pms_used"] == {"type": "gauge", "value": 12}
        hist = snapshot["span_seconds"]
        assert hist["type"] == "histogram"
        assert hist["count"] == 2
        assert hist["p50"] is not None
