"""Algorithm 1 (MapCal): minimal reservation-block count.

Given ``k`` collocated VMs sharing common switch probabilities
``(p_on, p_off)`` and a CVR bound ``rho``, MapCal returns the least number of
reservation blocks ``K`` such that the long-run fraction of time more than
``K`` VMs are simultaneously ON is at most ``rho``:

1. build the ``(k+1)``-state busy-block transition matrix (paper Eq. 12);
2. solve the stationary distribution ``Pi`` (paper Eq. 14, Gaussian
   elimination — our default ``"linear"`` solver);
3. return the least ``K`` with ``sum_{m<=K} pi_m >= 1 - rho`` (paper Eq. 15).

The paper additionally requires ``K < k`` in Eq. 15; since ``K = k`` always
satisfies the bound (overflow is impossible), the scan below naturally
returns ``K <= k`` and equals the paper's value whenever one with ``K < k``
exists.

:func:`mapcal_table` precomputes ``mapping[k]`` for every ``k`` up to the
per-PM VM limit ``d``, which QueuingFFD (Algorithm 2, lines 1-6) consumes.

Every solve is memoized through the process-wide
:class:`repro.perf.cache.MapCalCache`, keyed on
``(k, p_on, p_off, rho, method)``: repeated tables, re-consolidation
periods and benchmark repetitions hit the cache instead of re-running the
``O(k^3)`` Gaussian elimination.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.markov.binomial import binomial_pmf_table, kernel_from_tables
from repro.markov.chain import DiscreteMarkovChain, StationaryMethod
from repro.perf.cache import get_cache
from repro.queueing.geom_geom_k import windows_for_overflow
from repro.telemetry import timed
from repro.utils.validation import check_integer, check_probability

#: the ``p_off`` and ``p_on`` binomial PMF tables a solve reads its kernel from
PMFTables = Callable[[], tuple[np.ndarray, np.ndarray]]


def _pmf_tables(n_max: int, p_on: float, p_off: float):
    return binomial_pmf_table(n_max, p_off), binomial_pmf_table(n_max, p_on)


def _solve_mapcal(k: int, p_on: float, p_off: float, rho: float,
                  method: StationaryMethod, tables: PMFTables) -> int:
    """The actual (uncached, unvalidated) Algorithm 1 solve: the busy-block
    kernel from ``tables()``, its stationary law, then the Eq. 15 scan."""
    with timed("mapcal.solve"):
        chain = DiscreteMarkovChain(kernel_from_tables(k, *tables()),
                                    validate=True)
        return windows_for_overflow(chain.stationary_distribution(method), rho)


def _cached_mapcal(k: int, p_on: float, p_off: float, rho: float,
                   method: StationaryMethod, tables: PMFTables) -> int:
    """Cache-aware solve; callers have already validated the arguments."""
    key = ("mapcal", k, float(p_on), float(p_off), float(rho), str(method))
    return get_cache().get_or_compute(
        key, lambda: _solve_mapcal(k, p_on, p_off, rho, method, tables))


def mapcal(k: int, p_on: float, p_off: float, rho: float,
           *, method: StationaryMethod = "linear") -> int:
    """Minimum number of blocks for ``k`` VMs under CVR bound ``rho``.

    Parameters
    ----------
    k:
        Number of VMs hosted on the PM (``k >= 0``; ``k = 0`` returns 0).
    p_on, p_off:
        Common ON-OFF switch probabilities, both in (0, 1].
    rho:
        CVR threshold in [0, 1].
    method:
        Stationary-distribution solver (see
        :meth:`repro.markov.chain.DiscreteMarkovChain.stationary_distribution`).

    Returns
    -------
    int
        The block count ``K`` in ``[0, k]``.
    """
    k = check_integer(k, "k", minimum=0)
    p_on = check_probability(p_on, "p_on", allow_zero=False)
    p_off = check_probability(p_off, "p_off", allow_zero=False)
    rho = check_probability(rho, "rho")
    if k == 0:
        return 0
    return _cached_mapcal(k, p_on, p_off, rho, method,
                          lambda: _pmf_tables(k, p_on, p_off))


@dataclass(frozen=True)
class BlockMapping:
    """Precomputed ``k -> K`` table for a fixed ``(p_on, p_off, rho)``.

    Attributes
    ----------
    p_on, p_off, rho:
        Parameters the table was computed for.
    table:
        Read-only integer array with ``table[k]`` = blocks for ``k`` VMs,
        ``k`` from 0 to ``d`` inclusive (``table[0] = 0``, Alg. 2 line 1).
    """

    p_on: float
    p_off: float
    rho: float
    table: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.table, dtype=np.int64)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def d(self) -> int:
        """Maximum supported VM count per PM."""
        return self.table.size - 1

    def blocks_for(self, k: int) -> int:
        """Blocks required when ``k`` VMs share the PM."""
        k = check_integer(k, "k", minimum=0, maximum=self.d)
        return int(self.table[k])

    def __getitem__(self, k: int) -> int:
        return self.blocks_for(k)


def table_fingerprint(mapping: BlockMapping) -> str:
    """Short content hash identifying a block table in provenance events.

    Covers the parameters *and* the computed ``k -> K`` entries, so two
    decisions carry the same fingerprint exactly when the Eq. (17) test
    they ran evaluated against identical tables.
    """
    payload = (f"{mapping.p_on!r}|{mapping.p_off!r}|{mapping.rho!r}|"
               + ",".join(str(int(k)) for k in mapping.table))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def mapcal_table(d: int, p_on: float, p_off: float, rho: float,
                 *, method: StationaryMethod = "linear") -> BlockMapping:
    """Precompute ``mapping[k]`` for all ``k`` in ``[0, d]`` (Alg. 2 lines 1-6).

    Cost is ``O(d^4)`` as stated in the paper (one ``O(k^3)`` MapCal per
    ``k``) on a cold cache; warm tables are one dictionary lookup per
    ``k``.  Validation is hoisted out of the loop — the per-``k`` path does
    no re-checking and no per-call span bookkeeping, so building the
    ``d = 200`` table is a single pass.  The first miss builds both binomial
    PMF tables once, at ``n_max = d``, and every solve of the call reads its
    kernel from their top-left block (:func:`kernel_from_tables`); they are
    dropped on return.  The result is immutable and safely shareable across
    placers.
    """
    d = check_integer(d, "d", minimum=1)
    p_on = check_probability(p_on, "p_on", allow_zero=False)
    p_off = check_probability(p_off, "p_off", allow_zero=False)
    rho = check_probability(rho, "rho")
    table = np.zeros(d + 1, dtype=np.int64)
    tables = functools.cache(lambda: _pmf_tables(d, p_on, p_off))
    with timed("mapcal.table"):
        for k in range(1, d + 1):
            table[k] = _cached_mapcal(k, p_on, p_off, rho, method, tables)
    return BlockMapping(p_on=p_on, p_off=p_off, rho=rho, table=table)
