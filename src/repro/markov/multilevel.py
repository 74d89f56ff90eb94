"""Multi-level demand chains — beyond the two-state ON-OFF model.

Real workloads are not strictly two-level; the ON-OFF chain is the paper's
modelling choice, not a law of nature.  This module provides an N-level
generalization used for the *model-mismatch* robustness study: generate
workloads from a richer chain, fit the paper's two-level model to them, and
measure how much of the CVR guarantee survives.

A :class:`MultiLevelChain` pairs a finite DTMC over abstract levels with a
demand value per level.  :func:`spiky_levels` builds the one the study
uses: an OFF level plus several spike magnitudes reached directly from OFF
(multi-magnitude flash crowds).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.markov.chain import DiscreteMarkovChain
from repro.utils.rng import SeedLike
from repro.utils.validation import check_integer, check_probability


class MultiLevelChain:
    """A demand process: finite DTMC over levels with per-level demand.

    Parameters
    ----------
    transition_matrix:
        Row-stochastic matrix over the levels.
    demands:
        Demand value of each level (same length as the matrix dimension;
        need not be monotone).
    """

    def __init__(self, transition_matrix: np.ndarray, demands: Sequence[float]):
        self.chain = DiscreteMarkovChain(transition_matrix)
        d = np.asarray(demands, dtype=float)
        if d.shape != (self.chain.n_states,):
            raise ValueError(
                f"demands must have length {self.chain.n_states}, got {d.shape}"
            )
        if np.any(d < 0) or not np.all(np.isfinite(d)):
            raise ValueError("demands must be finite and non-negative")
        d.setflags(write=False)
        self.demands = d

    def simulate_demand(self, n_steps: int, *, initial_level: int = 0,
                        seed: SeedLike = None) -> np.ndarray:
        """Demand trace of length ``n_steps + 1``."""
        levels = self.chain.simulate(n_steps, initial_state=initial_level,
                                     seed=seed)
        return self.demands[levels]


def spiky_levels(base_demand: float, spike_demands: Sequence[float],
                 p_spike: float, p_recover: float,
                 spike_weights: Sequence[float] | None = None) -> MultiLevelChain:
    """OFF level plus direct-jump spike levels of several magnitudes.

    From OFF, a spike of magnitude ``j`` starts with probability
    ``p_spike * w_j`` (weights normalized); every spike level recovers to
    OFF with probability ``p_recover``.  With one spike level this is
    exactly the paper's ON-OFF chain.
    """
    p_spike = check_probability(p_spike, "p_spike")
    p_recover = check_probability(p_recover, "p_recover")
    m = len(spike_demands)
    check_integer(m, "len(spike_demands)", minimum=1)
    if spike_weights is None:
        w = np.full(m, 1.0 / m)
    else:
        w = np.asarray(spike_weights, dtype=float)
        if w.shape != (m,) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("spike_weights must be non-negative and sum > 0")
        w = w / w.sum()
    n = m + 1
    P = np.zeros((n, n))
    P[0, 0] = 1.0 - p_spike
    P[0, 1:] = p_spike * w
    for j in range(1, n):
        P[j, 0] = p_recover
        P[j, j] = 1.0 - p_recover
    return MultiLevelChain(P, [base_demand, *spike_demands])
