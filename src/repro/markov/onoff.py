"""The per-VM ON-OFF workload chain (paper Fig. 2).

A VM alternates between OFF (normal demand ``R_b``) and ON (peak demand
``R_p = R_b + R_e``).  Each time interval it flips OFF->ON with probability
``p_on`` and ON->OFF with probability ``p_off``.  As the paper notes, ``p_on``
controls spike *frequency* and ``p_off`` controls spike *duration*: sojourn
times are geometric, so a spike lasts ``1/p_off`` intervals on average and the
gap between spikes averages ``1/p_on`` intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_probability

OFF = 0
ON = 1


@dataclass(frozen=True)
class OnOffChain:
    """Two-state ON-OFF Markov chain with switch probabilities.

    Attributes
    ----------
    p_on:
        Probability of switching OFF -> ON in one interval (spike frequency).
    p_off:
        Probability of switching ON -> OFF in one interval (inverse spike
        duration).
    """

    p_on: float
    p_off: float

    def __post_init__(self) -> None:
        check_probability(self.p_on, "p_on", allow_zero=False)
        check_probability(self.p_off, "p_off", allow_zero=False)

    # ------------------------------------------------------------------ #
    # matrix / simulation views
    # ------------------------------------------------------------------ #
    def transition_matrix(self) -> np.ndarray:
        """2x2 row-stochastic matrix with state order (OFF, ON)."""
        return np.array(
            [
                [1.0 - self.p_on, self.p_on],
                [self.p_off, 1.0 - self.p_off],
            ]
        )

    def simulate(self, n_steps: int, *, initial_state: int = OFF,
                 seed: SeedLike = None) -> np.ndarray:
        """Sample a single 0/1 state trajectory of length ``n_steps + 1``."""
        if initial_state not in (OFF, ON):
            raise ValueError(f"initial_state must be 0 (OFF) or 1 (ON), got {initial_state}")
        if n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
        rng = as_generator(seed)
        u = rng.random(n_steps)
        out = np.empty(n_steps + 1, dtype=np.int8)
        out[0] = initial_state
        s = initial_state
        for t in range(n_steps):
            if s == OFF:
                s = ON if u[t] < self.p_on else OFF
            else:
                s = OFF if u[t] < self.p_off else ON
            out[t + 1] = s
        return out
