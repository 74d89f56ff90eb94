"""Classic one-dimensional bin-packing placers.

The paper's two reference strategies both run First Fit Decreasing on a
scalar size:

- **RP** — size each VM by its peak demand ``R_p`` (provisioning for peak
  workload; never violates capacity but wastes the idle spike headroom);
- **RB** — size each VM by its normal demand ``R_b`` (provisioning for
  normal workload; densest packing but spikes collide).

RB-EX (:mod:`repro.placement.rbex`) runs the same FFD by ``R_b`` on
shrunk capacities.  Every placer here caps the number of VMs per PM at
``d`` to match Algorithm 2's assumption and keep comparisons fair.  An
optional :class:`~repro.placement.spread.DomainSpreadConstraint`
additionally caps VMs per fault domain (blast-radius control).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.types import Placement, PMSpec, VMSpec
from repro.placement.base import (
    REASON_CAPACITY,
    REASON_SPREAD,
    REASON_VM_CAP,
    InsufficientCapacityError,
    Placer,
)
from repro.placement.spread import DomainSpreadConstraint
from repro.telemetry import timed
from repro.utils.validation import check_integer

SizeFn = Callable[[VMSpec], float]

_EPS = 1e-9


def size_by_peak(vm: VMSpec) -> float:
    """VM size under peak provisioning (``R_p``)."""
    return vm.r_peak


def size_by_base(vm: VMSpec) -> float:
    """VM size under normal provisioning (``R_b``)."""
    return vm.r_base


class FirstFitDecreasing(Placer):
    """First Fit Decreasing on a scalar size.

    VMs go in decreasing size order (stable, so equal sizes keep input
    order), each to the lowest-indexed PM with room: ``free + 1e-9 >=
    size``, fewer than ``max_vms_per_pm`` VMs and, when ``spread`` is set,
    an open fault domain.
    """

    name = "FFD"

    def __init__(self, size_fn: SizeFn = size_by_peak, *, max_vms_per_pm: int = 10**9,
                 name: str | None = None,
                 spread: DomainSpreadConstraint | None = None):
        self.size_fn = size_fn
        self.max_vms_per_pm = check_integer(max_vms_per_pm, "max_vms_per_pm", minimum=1)
        self.spread = spread
        if name is not None:
            self.name = name

    def place(self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]) -> Placement:
        with timed(f"greedy_pack.{self.name}"):
            placement = Placement(len(vms), len(pms))
            sizes = np.array([self.size_fn(v) for v in vms], dtype=float)
            if np.any(sizes < 0):
                raise ValueError("VM sizes must be non-negative")
            domain_counts = None
            if self.spread is not None:
                self.spread.check_n_pms(len(pms))
                domain_counts = self.spread.new_counts()
            free = np.array([p.capacity for p in pms], dtype=float)
            counts = np.zeros(len(pms), dtype=np.int64)
            for vm_idx in np.argsort(-sizes, kind="stable"):
                vm_idx = int(vm_idx)
                size = sizes[vm_idx]
                fits = free + _EPS >= size
                room = counts < self.max_vms_per_pm
                ok = fits & room
                spread_ok = None
                if self.spread is not None:
                    spread_ok = self.spread.allowed_pms(domain_counts)
                    ok &= spread_ok
                hit = np.flatnonzero(ok)
                pm = int(hit[0]) if hit.size else -1
                if self.explainer is not None:
                    self.explainer.record(vm_idx, pm, [
                        (REASON_CAPACITY, ~fits),
                        (REASON_VM_CAP, ~room),
                        (REASON_SPREAD, None if spread_ok is None else ~spread_ok),
                    ], free - size)
                if pm < 0:
                    raise InsufficientCapacityError(vm_idx)
                placement.place(vm_idx, pm)
                free[pm] -= size
                counts[pm] += 1
                if self.spread is not None:
                    self.spread.admit(pm, domain_counts)
            return placement


def ffd_by_peak(*, max_vms_per_pm: int = 10**9,
                spread: DomainSpreadConstraint | None = None) -> FirstFitDecreasing:
    """The paper's **RP** baseline: FFD sizing every VM at ``R_p``."""
    return FirstFitDecreasing(size_by_peak, max_vms_per_pm=max_vms_per_pm,
                              name="RP", spread=spread)


def ffd_by_base(*, max_vms_per_pm: int = 10**9,
                spread: DomainSpreadConstraint | None = None) -> FirstFitDecreasing:
    """The paper's **RB** baseline: FFD sizing every VM at ``R_b``."""
    return FirstFitDecreasing(size_by_base, max_vms_per_pm=max_vms_per_pm,
                              name="RB", spread=spread)
