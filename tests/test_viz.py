"""Tests for repro.viz.ascii_charts."""

import numpy as np
import pytest

from repro.viz.ascii_charts import (
    bar_chart,
    line_chart,
    sanitize_series,
    sparkline,
)


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3])) == 3

    def test_monotone_input_monotone_levels(self):
        s = sparkline(np.arange(8.0))
        assert list(s) == sorted(s)
        assert s[0] == "▁" and s[-1] == "█"

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            sparkline([1.0, float("nan")])


class TestBarChart:
    def test_contains_labels_and_values(self):
        out = bar_chart({"QUEUE": 19.0, "RP": 26.0})
        assert "QUEUE" in out and "RP" in out
        assert "19.0" in out and "26.0" in out

    def test_largest_value_gets_longest_bar(self):
        out = bar_chart({"a": 1.0, "b": 10.0}, width=20)
        lines = out.splitlines()
        assert lines[1].count("█") > lines[0].count("█")

    def test_title(self):
        out = bar_chart({"x": 1.0}, title="T")
        assert out.splitlines()[0] == "T"

    def test_zero_and_negative_values(self):
        out = bar_chart({"zero": 0.0, "neg": -3.0, "pos": 2.0})
        assert "█" in out  # only the positive value draws

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({})


class TestLineChart:
    def test_dimensions(self):
        out = line_chart({"a": [0, 1, 2]}, height=5, width=30)
        # 5 grid rows + axis line + legend
        assert len(out.splitlines()) == 7

    def test_unique_markers_for_colliding_labels(self):
        out = line_chart({"RB": [0, 1], "RB-EX": [1, 0]}, height=4, width=10)
        legend = out.splitlines()[-1]
        assert "R = RB" in legend
        assert "B = RB-EX" in legend

    def test_extremes_annotated(self):
        out = line_chart({"a": [2.0, 8.0]}, height=4, width=10)
        assert "8.00" in out and "2.00" in out

    def test_constant_series_ok(self):
        out = line_chart({"a": [3.0, 3.0, 3.0]}, height=3, width=9)
        assert "a" in out.splitlines()[-1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            line_chart({})


class TestEdgeCases:
    """Degenerate inputs the dashboard feeds through sanitize_series."""

    def test_empty_series_rejected_everywhere(self):
        with pytest.raises(ValueError):
            sparkline([])
        with pytest.raises(ValueError):
            line_chart({"a": []})

    def test_single_point_sparkline(self):
        assert sparkline([3.0]) == "▁"

    def test_single_point_line_chart(self):
        out = line_chart({"a": [5.0]}, height=3, width=5)
        assert "a" in out.splitlines()[-1]

    def test_constant_series_all_charts(self):
        assert sparkline([2.0] * 4) == "▁▁▁▁"
        assert "a" in line_chart({"a": [2.0] * 4}, height=2, width=4)

    def test_nan_and_inf_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                sparkline([1.0, bad])
            with pytest.raises(ValueError):
                line_chart({"a": [1.0, bad]})

    def test_width_one_renders(self):
        out = bar_chart({"a": 3.0}, width=1)
        assert "█" in out
        # line_chart needs at least 2 columns by contract
        with pytest.raises(ValueError):
            line_chart({"a": [1.0, 2.0]}, width=1)

    def test_sanitize_series_drops_nonfinite(self):
        clean = sanitize_series([1.0, float("nan"), 2.0, float("inf"), 3.0])
        assert clean == [1.0, 2.0, 3.0]
        assert sanitize_series([]) == []
        assert sanitize_series([float("nan")]) == []

    def test_sanitized_feed_renders(self):
        values = [1.0, float("nan"), 5.0, 2.0]
        assert len(sparkline(sanitize_series(values))) == 3
