"""Bounded-memory series primitives (repro.observability.series)."""

from __future__ import annotations

import pytest

from repro.observability.series import RollingWindow, TieredSeries


class TestRollingWindow:
    def test_running_sum_matches_brute_force(self):
        w = RollingWindow(5)
        for i in range(20):
            w.push(i)
            assert w.sum == pytest.approx(sum(range(max(0, i - 4), i + 1)))
        assert w.sum == 15.0 + 16.0 + 17.0 + 18.0 + 19.0

    def test_bounded_length(self):
        w = RollingWindow(3)
        for i in range(10):
            w.push(i)
        assert len(w) == 3

    def test_sum_last_partial(self):
        w = RollingWindow(10)
        for i in range(1, 5):
            w.push(i)  # 1..4
        assert w.sum_last(2) == pytest.approx(7.0)
        assert w.sum_last(100) == pytest.approx(10.0)
        assert w.count_last(100) == 4

    def test_mean_and_last_empty_safe(self):
        w = RollingWindow(4)
        assert w.mean == 0.0 and w.last == 0.0
        w.push(2.0)
        assert w.mean == 2.0 and w.last == 2.0

    def test_size_validated(self):
        with pytest.raises(ValueError):
            RollingWindow(0)


class TestTieredSeries:
    def test_short_series_kept_raw(self):
        ts = TieredSeries(raw=10)
        for i in range(10):
            ts.push(i, float(i))
        times, values = ts.series()
        assert times == list(range(10))
        assert values == [float(i) for i in range(10)]

    def test_memory_bounded_for_long_runs(self):
        ts = TieredSeries(raw=16, factor=4, tiers=2)
        for i in range(100_000):
            ts.push(i, float(i % 7))
        assert len(ts) <= 3 * 16 + 4  # (tiers+1) * raw, small slack
        assert ts.n_pushed == 100_000

    def test_downsampled_values_are_chunk_means(self):
        ts = TieredSeries(raw=4, factor=2, tiers=1)
        for i in range(6):
            ts.push(i, float(i))  # overflow by 2 -> one averaged point
        times, values = ts.series()
        # oldest two (0,1) collapsed into their mean at the chunk's start
        assert times[0] == 0
        assert values[0] == pytest.approx(0.5)
        assert values[-4:] == [2.0, 3.0, 4.0, 5.0]

    def test_monotone_series_stays_monotone_through_tiers(self):
        ts = TieredSeries(raw=8, factor=2, tiers=2)
        for i in range(500):
            ts.push(i, float(i))
        times, values = ts.series()
        assert values == sorted(values)
        assert times == sorted(times)

    def test_last_and_tail(self):
        ts = TieredSeries(raw=4, factor=2, tiers=1)
        for i in range(9):
            ts.push(i, float(i))
        assert ts.last == 8.0
        assert ts.series()[1][-2:] == [7.0, 8.0]

    def test_empty(self):
        ts = TieredSeries()
        assert len(ts) == 0
        assert ts.last == 0.0
        assert ts.series() == ([], [])

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            TieredSeries(raw=0)
        with pytest.raises(ValueError):
            TieredSeries(factor=1)
        with pytest.raises(ValueError):
            TieredSeries(tiers=-1)
