"""Placement strategies: the paper's baselines plus related-work comparators.

- :mod:`repro.placement.base` — the :class:`Placer` interface, errors and
  :func:`first_fit`, the placement loop every batch placer runs.
- :mod:`repro.placement.ffd` — First Fit Decreasing on a scalar size:
  by ``R_p`` (the paper's RP baseline) and by ``R_b`` (RB).
- :mod:`repro.placement.grand` — GRAND (Stolyar): uniform-random choice
  among Eq. (17)-feasible PMs, with stateless replayable randomness; the
  placement service's alternative to QueuingFFD's first-fit.
- :mod:`repro.placement.rbex` — RB-EX: FFD by ``R_b`` with a fixed
  ``delta``-fraction of each PM's capacity withheld (Section V-D).
- :mod:`repro.placement.sbp` — stochastic bin packing with normal
  approximation ("effective size"), the related-work baseline of
  [Wang et al. INFOCOM'11] style used for the ablation comparison.
- :mod:`repro.placement.spread` — fault-domain spread constraint capping
  VMs per rack/power domain (blast-radius control).
"""

from repro.placement.base import (
    PLACEMENT_REASONS,
    SHED_REASONS,
    AdmissionRejectedError,
    InsufficientCapacityError,
    Placer,
    PlacementExplainer,
    candidate_rows,
    first_fit,
)
from repro.placement.grand import GreedyRandomPlacer, hash_pick
from repro.placement.ffd import FirstFitDecreasing, ffd_by_base, ffd_by_peak
from repro.placement.optimal import (
    BranchAndBoundPacker,
    lower_bound_l1,
    lower_bound_l2,
)
from repro.placement.rbex import RBExPlacer
from repro.placement.sbp import StochasticBinPacker
from repro.placement.spread import DomainSpreadConstraint

__all__ = [
    "AdmissionRejectedError",
    "InsufficientCapacityError",
    "PLACEMENT_REASONS",
    "SHED_REASONS",
    "GreedyRandomPlacer",
    "hash_pick",
    "Placer",
    "PlacementExplainer",
    "candidate_rows",
    "first_fit",
    "FirstFitDecreasing",
    "ffd_by_base",
    "ffd_by_peak",
    "BranchAndBoundPacker",
    "lower_bound_l1",
    "lower_bound_l2",
    "RBExPlacer",
    "StochasticBinPacker",
    "DomainSpreadConstraint",
]
