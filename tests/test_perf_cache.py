"""MapCalCache: LRU semantics, disk persistence, corruption tolerance."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.mapcal import mapcal, mapcal_table
from repro.perf.cache import (
    CACHE_VERSION,
    MapCalCache,
    fresh_cache,
    get_cache,
    key_digest,
)
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


class TestDiskStore:
    def test_round_trip_across_instances(self, tmp_path):
        first = MapCalCache(disk_dir=tmp_path)
        first.get_or_compute(key(5), lambda: 11)
        second = MapCalCache(disk_dir=tmp_path)
        value = second.get_or_compute(
            key(5), lambda: pytest.fail("should hit disk"))
        assert value == 11
        assert second.disk_hits == 1 and second.hits == 1

    def test_file_is_content_addressed_json(self, tmp_path):
        cache = MapCalCache(disk_dir=tmp_path)
        cache.get_or_compute(key(5), lambda: 11)
        path = tmp_path / f"mapcal-{key_digest(key(5))}.json"
        payload = json.loads(path.read_text())
        assert payload["version"] == CACHE_VERSION
        assert payload["value"] == 11

    def test_corrupt_file_recomputes_not_crashes(self, tmp_path):
        cache = MapCalCache(disk_dir=tmp_path)
        cache.get_or_compute(key(5), lambda: 11)
        path = tmp_path / f"mapcal-{key_digest(key(5))}.json"
        for garbage in ("", "{truncated", '{"version": 1}', "[1,2,3]"):
            path.write_text(garbage)
            cold = MapCalCache(disk_dir=tmp_path)
            assert cold.get_or_compute(key(5), lambda: 11) == 11
            assert cold.misses == 1 and cold.disk_hits == 0

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache = MapCalCache(disk_dir=tmp_path)
        cache.get_or_compute(key(5), lambda: 11)
        path = tmp_path / f"mapcal-{key_digest(key(5))}.json"
        payload = json.loads(path.read_text())
        payload["key"][1] = 999  # simulated hash collision
        path.write_text(json.dumps(payload))
        cold = MapCalCache(disk_dir=tmp_path)
        assert cold.get_or_compute(key(5), lambda: 42) == 42

    def test_corrupt_file_is_quarantined(self, tmp_path, caplog):
        cache = MapCalCache(disk_dir=tmp_path)
        cache.get_or_compute(key(5), lambda: 11)
        path = tmp_path / f"mapcal-{key_digest(key(5))}.json"
        path.write_text("{truncated")
        cold = MapCalCache(disk_dir=tmp_path)
        with caplog.at_level("WARNING", logger="repro.perf.cache"):
            assert cold.get_or_compute(key(5), lambda: 11) == 11
        assert cold.corrupt == 1
        assert cold.stats()["corrupt"] == 1
        # the damaged bytes are preserved for post-mortem...
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.read_text() == "{truncated"
        # ...and the recompute rewrote a healthy entry in its place
        assert json.loads(path.read_text())["value"] == 11
        assert any("quarantined" in r.message for r in caplog.records)

    def test_corrupt_warnings_are_rate_limited(self, tmp_path, caplog):
        cache = MapCalCache(disk_dir=tmp_path)
        paths = []
        for i in range(5):
            cache.get_or_compute(key(i), lambda: i)
            paths.append(tmp_path / f"mapcal-{key_digest(key(i))}.json")
        for p in paths:
            p.write_text("garbage")
        cold = MapCalCache(disk_dir=tmp_path)
        with caplog.at_level("WARNING", logger="repro.perf.cache"):
            for i in range(5):
                cold.get_or_compute(key(i), lambda: i)
        assert cold.corrupt == 5
        warned = [r for r in caplog.records if "quarantined" in r.message]
        assert len(warned) == 1  # one line, not five

    def test_missing_file_is_silent_plain_miss(self, tmp_path, caplog):
        cache = MapCalCache(disk_dir=tmp_path)
        with caplog.at_level("WARNING", logger="repro.perf.cache"):
            assert cache.get_or_compute(key(5), lambda: 11) == 11
        assert cache.corrupt == 0
        assert not caplog.records

    def test_corrupt_counter_reaches_metrics(self, tmp_path):
        cache = MapCalCache(disk_dir=tmp_path)
        cache.get_or_compute(key(5), lambda: 11)
        path = tmp_path / f"mapcal-{key_digest(key(5))}.json"
        path.write_text("nope")
        tel = Telemetry()
        with tracing(tel):
            MapCalCache(disk_dir=tmp_path).get_or_compute(key(5), lambda: 11)
        metrics = json.loads(tel.metrics.to_json())
        assert metrics["mapcal_cache_corrupt_total"]["value"] == 1

    def test_unwritable_dir_degrades_to_memory_only(self, tmp_path):
        blocked = tmp_path / "file-not-dir"
        blocked.write_text("")
        cache = MapCalCache(disk_dir=blocked / "sub")
        assert cache.get_or_compute(key(5), lambda: 11) == 11
        assert cache.get_or_compute(key(5), lambda: 11) == 11
        assert cache.hits == 1


class TestDefaultCache:
    def test_fresh_cache_isolates_and_restores(self):
        outer = get_cache()
        with fresh_cache() as inner:
            assert get_cache() is inner
            assert get_cache() is not outer
            mapcal(8, 0.01, 0.09, 0.01)
            assert inner.misses >= 1
        assert get_cache() is outer

    def test_env_var_enables_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        import repro.perf.cache as mod
        monkeypatch.setattr(mod, "_default_cache", None)
        assert get_cache().disk_dir == tmp_path
        monkeypatch.setenv("REPRO_CACHE_DIR", "1")
        monkeypatch.setattr(mod, "_default_cache", None)
        assert get_cache().disk_dir == mod.Path(mod.DEFAULT_CACHE_DIRNAME)
        # restore: next get_cache() in this process must rebuild cleanly
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setattr(mod, "_default_cache", None)


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


def test_key_digest_stable_and_distinct():
    assert key_digest(key(1)) == key_digest(key(1))
    assert key_digest(key(1)) != key_digest(key(2))
    assert len(key_digest(key(1))) == 64
    assert os.path.basename(f"mapcal-{key_digest(key(1))}.json")
