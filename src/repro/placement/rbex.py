"""RB-EX: normal-workload FFD with a fixed per-PM reservation fraction.

The paper's "simple burstiness-aware algorithm" (Section V-D): when nothing
is known about the workload except that bursts exist, reserve at least a
``delta`` fraction of each PM's capacity and first-fit-decreasing the VMs by
``R_b`` into the remaining ``(1 - delta) C_j``.  The paper uses
``delta = 0.3``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.types import Placement, PMSpec, VMSpec
from repro.placement.ffd import FirstFitDecreasing, size_by_base
from repro.utils.validation import check_probability


class RBExPlacer(FirstFitDecreasing):
    """FFD by ``R_b`` into capacity shrunk by the reservation fraction.

    Parameters
    ----------
    delta:
        Fraction of each PM's capacity withheld for bursts, in [0, 1).
    max_vms_per_pm:
        Per-PM VM cap ``d`` (matches Algorithm 2's assumption).
    """

    name = "RB-EX"

    def __init__(self, delta: float = 0.3, *, max_vms_per_pm: int = 10**9):
        self.delta = check_probability(delta, "delta", allow_one=False)
        super().__init__(size_by_base, max_vms_per_pm=max_vms_per_pm)

    def place(self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]) -> Placement:
        """FFD against the shrunk capacities; explained scores are residuals
        against them."""
        return super().place(vms, [PMSpec(capacity=p.capacity * (1.0 - self.delta))
                                   for p in pms])
