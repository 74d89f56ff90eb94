"""repro.serving — the request-level serving plane.

Closes the gap between the paper's capacity-violation metric and the
latency an operator actually buys (see ``docs/SERVING.md``):

- :mod:`repro.serving.queue` — per-VM finite-capacity FIFO queues
  (batch-exact integer state), the array store that holds every VM's
  queue for the vectorized tick, the fleet latency histogram with exact
  percentiles and the empirical ``P(T_S > t)`` SLA tail, and the
  degradation/thrash service-capacity rule;
- :mod:`repro.serving.leveling` — the queue-based load-leveling tier:
  durable bounded buffer, paced drain, bounded retries → DLQ;
- :mod:`repro.serving.layer` — the per-interval :class:`ServingLayer` a
  scenario drives (``Scenario(..., serving=True)``), its
  :class:`ServingReport`, and the shared config defaults.
"""

from repro.serving.layer import SERVING_DEFAULTS, ServingLayer, ServingReport
from repro.serving.leveling import LoadLevelingTier
from repro.serving.queue import (
    LatencyHistogram,
    QueueStore,
    VMQueue,
    service_capacity,
)

__all__ = [
    "SERVING_DEFAULTS",
    "ServingLayer",
    "ServingReport",
    "LoadLevelingTier",
    "LatencyHistogram",
    "QueueStore",
    "VMQueue",
    "service_capacity",
]
