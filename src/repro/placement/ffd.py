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
    REASON_VM_CAP,
    Placer,
    first_fit,
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
            sizes = np.array([self.size_fn(v) for v in vms], dtype=float)
            if np.any(sizes < 0):
                raise ValueError("VM sizes must be non-negative")
            state = _FreeCapacity([p.capacity for p in pms], sizes,
                                  self.max_vms_per_pm)
            return first_fit(self, vms, len(pms),
                             np.argsort(-sizes, kind="stable"), state,
                             spread=self.spread)


class _FreeCapacity:
    """FFD's :func:`~repro.placement.base.first_fit` state: each PM's
    running free capacity and VM count."""

    def __init__(self, caps, sizes: np.ndarray, max_vms: int):
        self.free = np.array(caps, dtype=float)
        self.counts = np.zeros(self.free.size, dtype=np.int64)
        self.sizes = sizes
        self.max_vms = max_vms

    def checks(self, i: int, vm, lo: int, hi: int):
        return [(REASON_CAPACITY, self.free[lo:hi] + _EPS >= self.sizes[i]),
                (REASON_VM_CAP, self.counts[lo:hi] < self.max_vms)]

    def scores(self, i: int, vm, rows) -> np.ndarray:
        return self.free[rows] - self.sizes[i]

    def add(self, pm: int, i: int, vm) -> None:
        self.free[pm] -= self.sizes[i]
        self.counts[pm] += 1


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
