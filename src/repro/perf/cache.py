"""In-process LRU cache for MapCal-style stationary solves.

Every quantity the consolidation pipeline derives from a queueing model —
the MapCal block count ``K``, a heterogeneous Poisson-binomial block count —
is a pure function of a tiny parameter tuple.  The same tuples recur
constantly: :func:`repro.core.mapcal.mapcal_table` solves ``d`` of them per
table, and every re-consolidation period re-solves the same table.

:class:`MapCalCache` memoizes those solves in an LRU keyed on the full
parameter tuple (default 4096 entries — a few hundred KiB).  Hit and miss
counters are published to the ambient telemetry metrics registry
(:func:`repro.telemetry.resolve`) as ``mapcal_cache_hits_total`` /
``mapcal_cache_misses_total``.

The module-level default cache is what :func:`repro.core.mapcal.mapcal`,
:func:`repro.core.mapcal.mapcal_table` and
:func:`repro.core.heterogeneous.heterogeneous_blocks` consult;
:func:`fresh_cache` swaps in a cold one for a block.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable

from repro.telemetry import resolve

CacheKey = tuple
ComputeFn = Callable[[], int]


class MapCalCache:
    """LRU for integer-valued stationary solves.

    Parameters
    ----------
    maxsize:
        Capacity (least-recently-*used* entry evicted).
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lru: OrderedDict[CacheKey, int] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def _count(self, metric: str) -> None:
        tel = resolve(None)
        if tel is not None:
            tel.metrics.counter(
                metric, "MapCal stationary-solve cache traffic").inc()

    def get_or_compute(self, key: CacheKey, compute: ComputeFn) -> int:
        """Return the cached value for ``key``, computing and storing on miss."""
        try:
            value = self._lru[key]
        except KeyError:
            pass
        else:
            self._lru.move_to_end(key)
            self.hits += 1
            self._count("mapcal_cache_hits_total")
            return value

        self.misses += 1
        self._count("mapcal_cache_misses_total")
        value = int(compute())
        self._lru[key] = value
        while len(self._lru) > self.maxsize:
            self._lru.popitem(last=False)
        return value

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._lru

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0 when untouched)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """Snapshot of the traffic counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "entries": len(self._lru),
        }


# --------------------------------------------------------------------- #
# the module-level default
# --------------------------------------------------------------------- #
_default_cache: MapCalCache | None = None


def get_cache() -> MapCalCache:
    """The process-wide default cache (created on first use)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = MapCalCache()
    return _default_cache


def cache_stats() -> dict[str, float]:
    """Traffic counters of the default cache."""
    return get_cache().stats()


@contextmanager
def fresh_cache():
    """Temporarily swap the default cache for a cold, isolated one.

    For timing experiments (Fig. 7 measures the *algorithmic* cost of the
    mapping-table construction) and tests that must observe cold-solve
    behaviour without polluting — or being polluted by — the process-wide
    cache.  Restores the previous default on exit.
    """
    global _default_cache
    previous = _default_cache
    _default_cache = MapCalCache()
    try:
        yield _default_cache
    finally:
        _default_cache = previous
