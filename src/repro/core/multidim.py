"""Multi-dimensional extension (paper Section IV-E).

For uncorrelated resource dimensions (CPU, memory, bandwidth, ...) the paper
prescribes: run the queueing reservation *per dimension* and place with a
simpler First Fit heuristic, requiring the performance constraint on every
dimension.  For perfectly correlated dimensions one maps them to a single
dimension and reuses the one-dimensional algorithm — that path is just
:class:`repro.core.queuing_ffd.QueuingFFD` on a weighted sum of the
dimensions, so this module implements the uncorrelated case.

Each VM carries per-dimension ``(R_b, R_e)`` vectors but a single
``(p_on, p_off)`` pair: a spike raises demand in all dimensions at once
(the ON-OFF state is a property of the workload, not of one resource).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.mapcal import BlockMapping, mapcal_table
from repro.core.queuing_ffd import explained_mapping
from repro.core.reservation import ReservationKernel
from repro.core.rounding import RoundingRule, round_switch_probabilities
from repro.core.types import Placement, VMSpec
from repro.placement.base import Placer, first_fit
from repro.utils.validation import check_integer, check_probability


@dataclass(frozen=True)
class MultiDimVMSpec:
    """A VM with vector-valued base and spike demands.

    Attributes
    ----------
    p_on, p_off:
        Switch probabilities of the (shared) ON-OFF state.
    r_base, r_extra:
        Per-dimension demand vectors (same length).
    """

    p_on: float
    p_off: float
    r_base: tuple[float, ...]
    r_extra: tuple[float, ...]

    def __post_init__(self) -> None:
        check_probability(self.p_on, "p_on", allow_zero=False)
        check_probability(self.p_off, "p_off", allow_zero=False)
        if len(self.r_base) != len(self.r_extra):
            raise ValueError(
                f"r_base has {len(self.r_base)} dims but r_extra has "
                f"{len(self.r_extra)}"
            )
        if len(self.r_base) == 0:
            raise ValueError("need at least one resource dimension")
        if any(x < 0 for x in self.r_base) or any(x < 0 for x in self.r_extra):
            raise ValueError("demands must be non-negative")

    @property
    def n_dims(self) -> int:
        """Number of resource dimensions."""
        return len(self.r_base)

    def projected(self, dim: int) -> VMSpec:
        """One-dimensional view of this VM along dimension ``dim``."""
        return VMSpec(self.p_on, self.p_off,
                      self.r_base[dim], self.r_extra[dim])


@dataclass(frozen=True)
class MultiDimPMSpec:
    """A PM with per-dimension capacities."""

    capacity: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.capacity) == 0:
            raise ValueError("need at least one resource dimension")
        if any(c <= 0 for c in self.capacity):
            raise ValueError("capacities must be positive")

    @property
    def n_dims(self) -> int:
        """Number of resource dimensions."""
        return len(self.capacity)


class MultiDimFirstFit(Placer):
    """First Fit with per-dimension queueing reservations.

    A VM fits on a PM iff Eq. (17) holds **in every dimension** with the
    shared block-count table (the block count depends only on
    ``(k, p_on, p_off, rho)``; block *sizes* differ per dimension via the
    dimension's ``max R_e``).  An explained decision scores each PM by its
    tightest dimension's headroom.

    Parameters
    ----------
    rho:
        CVR threshold, enforced independently per dimension.
    d:
        Max VMs per PM.
    rounding_rule:
        As in :class:`~repro.core.queuing_ffd.QueuingFFD`.
    """

    name = "QUEUE-MD"

    def __init__(self, rho: float = 0.01, d: int = 16, *,
                 rounding_rule: RoundingRule = "mean"):
        self.rho = check_probability(rho, "rho")
        self.d = check_integer(d, "d", minimum=1)
        self.rounding_rule: RoundingRule = rounding_rule

    def _mapping(self, vms: Sequence[MultiDimVMSpec]) -> BlockMapping:
        proxies = [v.projected(0) for v in vms]
        p_on, p_off = round_switch_probabilities(proxies, self.rounding_rule)
        return mapcal_table(self.d, p_on, p_off, self.rho)

    def place(self, vms: Sequence[MultiDimVMSpec],
              pms: Sequence[MultiDimPMSpec]) -> Placement:
        """First-fit placement over all dimensions; VMs in input order."""
        if not vms:
            return Placement(0, len(pms))
        n_dims = vms[0].n_dims
        if any(v.n_dims != n_dims for v in vms):
            raise ValueError("all VMs must share the same dimensionality")
        if any(p.n_dims != n_dims for p in pms):
            raise ValueError("PM dimensionality must match the VMs")
        mapping = explained_mapping(self, lambda: self._mapping(vms))
        kernel = ReservationKernel([p.capacity for p in pms], mapping.d,
                                   mapping.table)  # caps of shape (m, D)
        return first_fit(self, vms, len(pms), range(len(vms)), kernel)
