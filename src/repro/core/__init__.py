"""The paper's primary contribution: burstiness-aware consolidation.

- :mod:`repro.core.types` — VM/PM specifications and the placement mapping.
- :mod:`repro.core.mapcal` — Algorithm 1 (MapCal): minimal reservation-block
  count for ``k`` collocated ON-OFF VMs under a CVR bound.
- :mod:`repro.core.reservation` — the Eq. (17) admission kernel every
  consolidation path evaluates, plus its scalar reference.
- :mod:`repro.core.queuing_ffd` — Algorithm 2 (QueuingFFD): the complete
  cluster-then-first-fit consolidation scheme.
- :mod:`repro.core.online` — online arrivals/departures/batches (Section IV-E).
- :mod:`repro.core.rounding` — rounding heterogeneous switch probabilities to
  the uniform values MapCal requires (Section IV-E).
- :mod:`repro.core.multidim` — the multi-dimensional extension sketched in
  Section IV-E (per-dimension reservation with First Fit).
"""

# The placement package first: its GRAND placer subclasses QueuingFFD, and
# repro.core.queuing_ffd imports repro.placement.base, so a core module that
# imports queuing_ffd before repro.placement is initialized would find
# QueuingFFD half-defined.
import repro.placement  # noqa: F401
from repro.core.heterogeneous import (
    HeterogeneousQueuingFFD,
    heterogeneous_blocks,
    heterogeneous_cvr,
    poisson_binomial_pmf,
)
from repro.core.mapcal import BlockMapping, mapcal, mapcal_table
from repro.core.quantile import (
    QuantileFFD,
    quantile_cvr,
    spike_sum_distribution,
)
from repro.core.multidim import MultiDimFirstFit, MultiDimVMSpec, MultiDimPMSpec
from repro.core.online import OnlineConsolidator
from repro.core.queuing_ffd import QueuingFFD
from repro.core.reservation import (
    PMReservationState,
    ReservationKernel,
    fits_with_reservation,
)
from repro.core.rounding import round_switch_probabilities
from repro.core.types import PMSpec, Placement, VMSpec

__all__ = [
    "HeterogeneousQueuingFFD",
    "heterogeneous_blocks",
    "heterogeneous_cvr",
    "poisson_binomial_pmf",
    "QuantileFFD",
    "quantile_cvr",
    "spike_sum_distribution",
    "BlockMapping",
    "mapcal",
    "mapcal_table",
    "MultiDimFirstFit",
    "MultiDimVMSpec",
    "MultiDimPMSpec",
    "OnlineConsolidator",
    "QueuingFFD",
    "PMReservationState",
    "ReservationKernel",
    "fits_with_reservation",
    "round_switch_probabilities",
    "PMSpec",
    "Placement",
    "VMSpec",
]
