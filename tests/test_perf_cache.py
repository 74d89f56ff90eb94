"""MapCalCache: LRU semantics and the process-wide default."""

from __future__ import annotations

import pytest

from repro.core.mapcal import mapcal, mapcal_table
from repro.perf.cache import MapCalCache, fresh_cache, get_cache
from repro.telemetry import Telemetry, tracing


def key(i: int) -> tuple:
    return ("mapcal", i, 0.01, 0.09, 0.01, "linear")


class TestLRU:
    def test_miss_then_hit(self):
        cache = MapCalCache(maxsize=4)
        calls = []

        def compute():
            calls.append(1)
            return 7

        assert cache.get_or_compute(key(1), compute) == 7
        assert cache.get_or_compute(key(1), compute) == 7
        assert calls == [1]
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_eviction_is_least_recently_used(self):
        cache = MapCalCache(maxsize=2)
        cache.get_or_compute(key(1), lambda: 1)
        cache.get_or_compute(key(2), lambda: 2)
        cache.get_or_compute(key(1), lambda: 1)  # touch 1: 2 is now LRU
        cache.get_or_compute(key(3), lambda: 3)  # evicts 2
        assert key(1) in cache and key(3) in cache
        assert key(2) not in cache
        assert len(cache) == 2

    def test_maxsize_validated(self):
        with pytest.raises(ValueError, match="maxsize"):
            MapCalCache(maxsize=0)


class TestDefaultCache:
    def test_fresh_cache_isolates_and_restores(self):
        outer = get_cache()
        with fresh_cache() as inner:
            assert get_cache() is inner
            assert get_cache() is not outer
            mapcal(8, 0.01, 0.09, 0.01)
            assert inner.misses >= 1
        assert get_cache() is outer


class TestIntegration:
    def test_mapcal_table_is_one_solve_per_k(self):
        with fresh_cache() as cache:
            mapcal_table(50, 0.01, 0.09, 0.01)
            assert cache.misses == 50 and cache.hits == 0
            mapcal_table(50, 0.01, 0.09, 0.01)
            assert cache.misses == 50 and cache.hits == 50
            assert cache.hit_rate == pytest.approx(0.5)

    def test_mapcal_matches_uncached_value(self):
        with fresh_cache():
            cold = mapcal(12, 0.02, 0.08, 0.01)
            warm = mapcal(12, 0.02, 0.08, 0.01)
        assert cold == warm

    def test_counters_reach_metrics_registry(self):
        with fresh_cache(), tracing(Telemetry()) as tel:
            mapcal(8, 0.01, 0.09, 0.01)
            mapcal(8, 0.01, 0.09, 0.01)
        rendered = tel.metrics.to_json()
        assert "mapcal_cache_misses_total" in rendered
        assert "mapcal_cache_hits_total" in rendered

    def test_validation_still_precedes_cache(self):
        with fresh_cache() as cache:
            with pytest.raises(ValueError):
                mapcal(-1, 0.01, 0.09, 0.01)
            with pytest.raises(ValueError):
                mapcal(8, 0.01, 0.09, 1.5)
            assert cache.misses == 0
