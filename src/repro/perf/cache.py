"""Persistent, content-addressed cache for MapCal-style stationary solves.

Every quantity the consolidation pipeline derives from a queueing model —
the MapCal block count ``K``, a heterogeneous Poisson-binomial block count —
is a pure function of a tiny parameter tuple.  The same tuples recur
constantly: :func:`repro.core.mapcal.mapcal_table` solves ``d`` of them per
table, every re-consolidation period re-solves the same table, and the 27
benchmark scripts share a handful of ``(p_on, p_off, rho)`` settings.

:class:`MapCalCache` memoizes those solves, content-addressed on the full
parameter tuple:

- an **in-process LRU** (default 4096 entries — a few hundred KiB) absorbs
  the within-run repetition;
- an optional **on-disk store** (one small JSON file per key under a
  ``.repro-cache/`` directory) persists results across processes, which is
  what makes the parallel benchmark runner's workers and repeated CLI
  invocations start warm.

Corrupt or truncated disk entries are treated as misses — never raised:
the damaged file is quarantined (renamed to ``*.corrupt`` so it can be
inspected and never poisons another read), a rate-limited WARN is logged,
and the value is recomputed and rewritten.  Hit/miss/disk-hit counters are published to the ambient
telemetry metrics registry (:func:`repro.telemetry.resolve`) under
``mapcal_cache_hits_total`` / ``mapcal_cache_misses_total`` /
``mapcal_cache_disk_hits_total``.

The module-level default cache is what :func:`repro.core.mapcal.mapcal`,
:func:`repro.core.mapcal.mapcal_table` and
:func:`repro.core.heterogeneous.heterogeneous_blocks` consult.  Configure it
with the ``REPRO_CACHE_DIR`` environment variable (set it to a directory to
enable the disk store; the conventional location is ``.repro-cache/`` in the
working tree); :func:`fresh_cache` swaps in a cold one for a block.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from repro.durable import atomic_write, canonical
from repro.telemetry import resolve
from repro.telemetry.logfilter import LogRateLimiter

logger = logging.getLogger(__name__)

#: cache-format version; bump to invalidate every persisted entry
CACHE_VERSION = 1

#: conventional on-disk location (used when REPRO_CACHE_DIR=1/true/yes)
DEFAULT_CACHE_DIRNAME = ".repro-cache"

CacheKey = tuple
ComputeFn = Callable[[], int]


def key_digest(key: CacheKey) -> str:
    """Stable content address of a cache key (sha256 of its repr)."""
    payload = repr((CACHE_VERSION, key)).encode()
    return hashlib.sha256(payload).hexdigest()


class MapCalCache:
    """LRU + optional disk store for integer-valued stationary solves.

    Parameters
    ----------
    maxsize:
        In-process LRU capacity (least-recently-*used* entry evicted).
    disk_dir:
        Directory for the persistent store; ``None`` disables disk.
        Created lazily on the first write.
    """

    def __init__(self, maxsize: int = 4096,
                 disk_dir: str | os.PathLike | None = None):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._lru: OrderedDict[CacheKey, int] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.corrupt = 0
        # one WARN per 10 quarantined entries: a systematically trashed
        # cache directory degrades the log, not floods it
        self._warn_limiter = LogRateLimiter(window=10)

    # ------------------------------------------------------------------ #
    # metrics plumbing
    # ------------------------------------------------------------------ #
    def _count(self, metric: str) -> None:
        tel = resolve(None)
        if tel is not None:
            tel.metrics.counter(
                metric, "MapCal stationary-solve cache traffic").inc()

    # ------------------------------------------------------------------ #
    # the core operation
    # ------------------------------------------------------------------ #
    def get_or_compute(self, key: CacheKey, compute: ComputeFn) -> int:
        """Return the cached value for ``key``, computing and storing on miss.

        Lookup order: in-process LRU, then disk (if enabled), then
        ``compute()``.  Disk reads that fail for any reason (missing file,
        truncation, bad JSON, wrong key) fall through to recompute.
        """
        try:
            value = self._lru[key]
        except KeyError:
            pass
        else:
            self._lru.move_to_end(key)
            self.hits += 1
            self._count("mapcal_cache_hits_total")
            return value

        value = self._disk_read(key)
        if value is not None:
            self.disk_hits += 1
            self.hits += 1
            self._count("mapcal_cache_hits_total")
            self._count("mapcal_cache_disk_hits_total")
            self._remember(key, value)
            return value

        self.misses += 1
        self._count("mapcal_cache_misses_total")
        value = int(compute())
        self._remember(key, value)
        self._disk_write(key, value)
        return value

    def _remember(self, key: CacheKey, value: int) -> None:
        self._lru[key] = value
        self._lru.move_to_end(key)
        while len(self._lru) > self.maxsize:
            self._lru.popitem(last=False)

    # ------------------------------------------------------------------ #
    # disk store
    # ------------------------------------------------------------------ #
    def _path_for(self, key: CacheKey) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / f"mapcal-{key_digest(key)}.json"

    def _disk_read(self, key: CacheKey) -> int | None:
        if self.disk_dir is None:
            return None
        path = self._path_for(key)
        try:
            raw = path.read_text()
        except OSError:
            return None  # absent / unreadable disk -> plain miss
        try:
            payload = json.loads(raw)
            if payload["key"] != list(_jsonable(key)):
                return None  # hash collision or stale format: recompute
            return int(payload["value"])
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)  # truncated / corrupt -> never crash
            return None

    def _quarantine(self, path: Path) -> None:
        """Set a damaged entry aside as ``*.corrupt`` and warn (rate-limited).

        The rename removes the bad file from the lookup path (the recompute
        rewrites a fresh entry) while keeping the bytes around for a
        post-mortem.  Rename failures are swallowed: the subsequent atomic
        rewrite replaces the file anyway.
        """
        self.corrupt += 1
        self._count("mapcal_cache_corrupt_total")
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            pass
        if self._warn_limiter.allow("mapcal_cache", "corrupt", self.corrupt):
            logger.warning(
                "mapcal cache entry %s is corrupt; quarantined as "
                "%s.corrupt and recomputing (%d corrupt so far)",
                path.name, path.name, self.corrupt)

    def _disk_write(self, key: CacheKey, value: int) -> None:
        if self.disk_dir is None:
            return
        try:
            # each writer renames its own temp file: never a torn entry
            atomic_write(self._path_for(key), canonical(
                {"version": CACHE_VERSION,
                 "key": list(_jsonable(key)),
                 "value": int(value)}))
        except OSError:
            pass  # a read-only or full disk degrades to memory-only caching

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
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
            "disk_hits": self.disk_hits,
            "corrupt": self.corrupt,
            "hit_rate": self.hit_rate,
            "entries": len(self._lru),
        }


def _jsonable(key: CacheKey):
    """Flatten a key for JSON comparison (tuples become lists)."""
    for part in key:
        if isinstance(part, tuple):
            yield list(part)
        else:
            yield part


# --------------------------------------------------------------------- #
# the module-level default
# --------------------------------------------------------------------- #
_default_cache: MapCalCache | None = None


def _disk_dir_from_env() -> Path | None:
    raw = os.environ.get("REPRO_CACHE_DIR")
    if not raw:
        return None
    if raw in ("1", "true", "yes"):
        return Path(DEFAULT_CACHE_DIRNAME)
    return Path(raw)


def get_cache() -> MapCalCache:
    """The process-wide default cache (created on first use).

    Honours ``REPRO_CACHE_DIR`` at creation time: set it to a directory (or
    ``1`` for ``./.repro-cache``) to enable the persistent store.
    """
    global _default_cache
    if _default_cache is None:
        _default_cache = MapCalCache(disk_dir=_disk_dir_from_env())
    return _default_cache


def cache_stats() -> dict[str, float]:
    """Traffic counters of the default cache."""
    return get_cache().stats()


@contextmanager
def fresh_cache(*, maxsize: int = 4096,
                disk_dir: str | os.PathLike | None = None):
    """Temporarily swap the default cache for a cold, isolated one.

    For timing experiments (Fig. 7 measures the *algorithmic* cost of the
    mapping-table construction) and tests that must observe cold-solve
    behaviour without polluting — or being polluted by — the process-wide
    cache.  Restores the previous default on exit.
    """
    global _default_cache
    previous = _default_cache
    _default_cache = MapCalCache(maxsize=maxsize, disk_dir=disk_dir)
    try:
        yield _default_cache
    finally:
        _default_cache = previous
