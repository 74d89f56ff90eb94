"""Queueing-theory substrate.

The paper formalizes the reserved blocks on a PM as a *discrete-time,
finite-source, K-window queue with geometric service times and no waiting
room* (finite-source Geom/Geom/K/K).  This package implements:

- :mod:`repro.queueing.geom_geom_k` — the discrete model: occupancy
  distribution, the overflow/CVR tail used by MapCal, and a true
  loss-system variant where excess spikes are clipped at K.
- :mod:`repro.queueing.transient` — the busy-block chain away from
  stationarity: the warm-up of the violation probability, the time to the
  first violation and the length of a violation episode.
"""

from repro.queueing.geom_geom_k import FiniteSourceGeomGeomK
from repro.queueing.transient import (
    expected_time_to_violation,
    expected_violation_episode_length,
    violation_probability_curve,
)

__all__ = [
    "FiniteSourceGeomGeomK",
    "expected_time_to_violation",
    "expected_violation_episode_length",
    "violation_probability_curve",
]
