"""General finite discrete-time Markov chain.

Provides the stationary-distribution machinery the paper invokes in MapCal
(Algorithm 1, steps 2-3).  The paper solves the homogeneous linear system
``Pi P = Pi`` by Gaussian elimination; we expose that solver plus two
alternatives (power iteration matching the paper's Eq. 13 limit definition,
and a dense eigenvector solve) so tests can cross-validate them and the
ablation benchmark can compare their cost.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Literal

import numpy as np

from repro.utils.rng import SeedLike, as_generator

StationaryMethod = Literal["linear", "power", "eig"]

_ROW_SUM_ATOL = 1e-8


class DiscreteMarkovChain:
    """A finite DTMC defined by a row-stochastic transition matrix.

    Parameters
    ----------
    transition_matrix:
        Square array ``P`` with non-negative entries and rows summing to 1.
    validate:
        If true (default), check stochasticity on construction.

    Notes
    -----
    The matrix is copied and marked read-only so downstream consumers can
    safely share one instance.
    """

    def __init__(self, transition_matrix: np.ndarray, *, validate: bool = True):
        P = np.array(transition_matrix, dtype=float, copy=True)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {P.shape}")
        if P.shape[0] == 0:
            raise ValueError("transition matrix must have at least one state")
        if validate:
            if np.any(P < -1e-12):
                raise ValueError("transition matrix has negative entries")
            np.clip(P, 0.0, None, out=P)
            row_sums = P.sum(axis=1)
            if not np.allclose(row_sums, 1.0, atol=_ROW_SUM_ATOL):
                worst = int(np.argmax(np.abs(row_sums - 1.0)))
                raise ValueError(
                    f"rows of the transition matrix must sum to 1; row {worst} "
                    f"sums to {row_sums[worst]!r}"
                )
            # Renormalize away float dust so repeated powers stay stochastic.
            P /= row_sums[:, None]
        P.setflags(write=False)
        self._P = P

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_states(self) -> int:
        """Number of states."""
        return self._P.shape[0]

    # ------------------------------------------------------------------ #
    # stationary distribution
    # ------------------------------------------------------------------ #
    def stationary_distribution(
        self,
        method: StationaryMethod = "linear",
        *,
        tol: float = 1e-12,
        max_iterations: int = 1_000_000,
    ) -> np.ndarray:
        """Solve ``pi P = pi`` with ``sum(pi) = 1``.

        Parameters
        ----------
        method:
            ``"linear"`` — replace one balance equation with the
            normalization constraint and solve the dense system (the paper's
            Gaussian-elimination approach, Eq. 14).
            ``"power"`` — iterate ``pi <- pi P`` from the paper's
            ``Pi_0 = (1, 0, ..., 0)`` start until the update falls below
            ``tol`` (the limit definition, Eq. 13).
            ``"eig"`` — left eigenvector of eigenvalue 1.

        Returns
        -------
        numpy.ndarray
            Stationary probability vector of length ``n_states``.

        Raises
        ------
        RuntimeError
            If power iteration fails to converge within ``max_iterations``
            or the linear/eig solves return an invalid distribution.
        """
        if method == "linear":
            pi = self._stationary_linear()
        elif method == "power":
            pi = self._stationary_power(tol=tol, max_iterations=max_iterations)
        elif method == "eig":
            pi = self._stationary_eig()
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown method {method!r}")
        if np.any(pi < -1e-9) or not np.isclose(pi.sum(), 1.0, atol=1e-8):
            raise RuntimeError(
                f"stationary solve ({method}) produced an invalid distribution "
                f"(sum={pi.sum()!r}, min={pi.min()!r}); the chain may not have a "
                "unique stationary distribution"
            )
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()

    def _stationary_linear(self) -> np.ndarray:
        # (P^T - I) pi = 0 with one row swapped for normalization.
        n = self.n_states
        A = self._P.T - np.eye(n)
        A[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        return np.linalg.solve(A, b)

    def _stationary_power(self, *, tol: float, max_iterations: int) -> np.ndarray:
        pi = np.zeros(self.n_states)
        pi[0] = 1.0
        for _ in range(max_iterations):
            nxt = pi @ self._P
            if np.max(np.abs(nxt - pi)) < tol:
                return nxt
            pi = nxt
        raise RuntimeError(
            f"power iteration did not converge within {max_iterations} iterations"
        )

    def _stationary_eig(self) -> np.ndarray:
        vals, vecs = np.linalg.eig(self._P.T)
        idx = int(np.argmin(np.abs(vals - 1.0)))
        v = np.real(vecs[:, idx])
        s = v.sum()
        if abs(s) < 1e-14:  # pragma: no cover - pathological
            raise RuntimeError("eigenvector for eigenvalue 1 sums to ~0")
        return v / s

    # ------------------------------------------------------------------ #
    # dynamics
    # ------------------------------------------------------------------ #
    def simulate(self, n_steps: int, *, initial_state: int = 0,
                 seed: SeedLike = None) -> np.ndarray:
        """Sample a state trajectory of length ``n_steps + 1``.

        Uses inverse-CDF sampling against precomputed row CDFs: the next
        state is the first index whose cumulative probability exceeds the
        step's uniform (``bisect_right`` over the row as Python floats, the
        same comparisons as ``np.searchsorted(..., side="right")``).
        """
        if not 0 <= initial_state < self.n_states:
            raise ValueError(
                f"initial_state must be in [0, {self.n_states}), got {initial_state}"
            )
        if n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
        rng = as_generator(seed)
        cdf = np.cumsum(self._P, axis=1)
        cdf[:, -1] = 1.0
        rows = cdf.tolist()
        states = [initial_state]
        s = initial_state
        for u in rng.random(n_steps).tolist():
            s = bisect_right(rows[s], u)
            states.append(s)
        return np.array(states, dtype=np.int64)
