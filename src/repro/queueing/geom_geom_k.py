"""Discrete-time finite-source Geom/Geom/K/K queue.

``k`` sources (VMs) independently toggle between *thinking* (OFF) and
*in service* (ON).  ON sojourns are geometric with parameter ``p_off``
(service), OFF sojourns geometric with parameter ``p_on`` (think time).
``K <= k`` serving windows (reservation blocks) are available.

The model's occupancy is the **unrestricted demand process** ``theta(t)``:
how many sources *want* service, regardless of K.  Its stationary tail
beyond K is exactly the paper's capacity violation ratio (Eq. 16); the
marginal is Binomial(k, q) with ``q = p_on / (p_on + p_off)`` because
sources are independent.
"""

from __future__ import annotations

import numpy as np

from repro.markov.binomial import busy_block_kernel
from repro.markov.chain import DiscreteMarkovChain, StationaryMethod
from repro.utils.validation import check_integer, check_probability

#: slack under ``1 - rho`` wherever a cumulative ON-count law is compared
#: with it: a law that reaches ``1`` only up to float rounding still meets
#: ``rho = 0``
CDF_SLACK = 1e-15


class FiniteSourceGeomGeomK:
    """Analytic model of ``k`` ON-OFF sources sharing ``K`` serving windows.

    Parameters
    ----------
    k:
        Number of sources (hosted VMs); must be >= 1.
    p_on:
        OFF -> ON switch probability per interval.
    p_off:
        ON -> OFF switch probability per interval.

    Notes
    -----
    The number of windows ``K`` is a *query* parameter, not a constructor
    parameter: MapCal evaluates many candidate ``K`` against one demand
    process, so the expensive stationary solve is cached on the instance.
    """

    def __init__(self, k: int, p_on: float, p_off: float):
        self.k = check_integer(k, "k", minimum=1)
        self.p_on = check_probability(p_on, "p_on", allow_zero=False)
        self.p_off = check_probability(p_off, "p_off", allow_zero=False)
        self._stationary_cache: dict[StationaryMethod, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # unrestricted demand process
    # ------------------------------------------------------------------ #
    def demand_chain(self) -> DiscreteMarkovChain:
        """The ``(k+1)``-state chain of the unrestricted demand ``theta(t)``."""
        return DiscreteMarkovChain(
            busy_block_kernel(self.k, self.p_on, self.p_off), validate=True
        )

    def stationary_distribution(
        self, method: StationaryMethod = "linear"
    ) -> np.ndarray:
        """Stationary law of ``theta(t)`` (cached per solver method)."""
        if method not in self._stationary_cache:
            self._stationary_cache[method] = self.demand_chain().stationary_distribution(
                method
            )
        return self._stationary_cache[method]

    def overflow_probability(self, n_windows: int,
                             method: StationaryMethod = "linear") -> float:
        """Long-run fraction of time demand exceeds ``n_windows`` (paper Eq. 16).

        This is exactly the CVR a PM experiences if it reserves ``n_windows``
        blocks: ``sum_{m > K} pi_m``.
        """
        K = check_integer(n_windows, "n_windows", minimum=0)
        pi = self.stationary_distribution(method)
        if K >= self.k:
            return 0.0
        return float(pi[K + 1:].sum())

    def min_windows_for_overflow(self, rho: float,
                                 method: StationaryMethod = "linear") -> int:
        """Smallest ``K`` with overflow probability <= ``rho`` (paper Eq. 15).

        Scans the cumulative stationary distribution; always returns a value
        in ``[0, k]`` (K = k gives zero overflow by construction).
        """
        rho = check_probability(rho, "rho")
        return windows_for_overflow(self.stationary_distribution(method), rho)


def windows_for_overflow(pi: np.ndarray, rho: float) -> int:
    """The least ``K`` with ``sum_{m <= K} pi_m >= 1 - rho`` (paper Eq. 15)
    for a stationary ON-count law ``pi`` over ``0..k``: a value in
    ``[0, k]``."""
    meets = np.flatnonzero(np.cumsum(pi) >= 1.0 - rho - CDF_SLACK)
    if meets.size == 0:  # pragma: no cover - cumulative reaches 1 at k
        return len(pi) - 1
    return int(meets[0])
