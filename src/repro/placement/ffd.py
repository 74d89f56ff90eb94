"""Classic one-dimensional bin-packing placers.

The paper's two reference strategies both run First Fit Decreasing on a
scalar size:

- **RP** — size each VM by its peak demand ``R_p`` (provisioning for peak
  workload; never violates capacity but wastes the idle spike headroom);
- **RB** — size each VM by its normal demand ``R_b`` (provisioning for
  normal workload; densest packing but spikes collide).

Best-fit, worst-fit and next-fit variants are included for the packing
ablation benchmarks.  All placers cap the number of VMs per PM at ``d`` to
match Algorithm 2's assumption and keep comparisons fair.  An optional
:class:`~repro.placement.spread.DomainSpreadConstraint` additionally caps
VMs per fault domain (blast-radius control).
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


class _GreedyPlacer(Placer):
    """Shared machinery for greedy size-based packers.

    Subclasses define :meth:`_pick_pm` (which open PM receives the next VM).
    VMs are processed in decreasing size order when ``decreasing`` is true.
    """

    def __init__(self, size_fn: SizeFn = size_by_peak, *, max_vms_per_pm: int = 10**9,
                 decreasing: bool = True, name: str | None = None,
                 spread: DomainSpreadConstraint | None = None):
        self.size_fn = size_fn
        self.max_vms_per_pm = check_integer(max_vms_per_pm, "max_vms_per_pm", minimum=1)
        self.decreasing = decreasing
        self.spread = spread
        self._domain_counts: np.ndarray | None = None
        if name is not None:
            self.name = name

    def place(self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]) -> Placement:
        with timed(f"greedy_pack.{self.name}"):
            return self._place(vms, pms)

    def _place(self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]) -> Placement:
        placement = Placement(len(vms), len(pms))
        sizes = np.array([self.size_fn(v) for v in vms], dtype=float)
        if np.any(sizes < 0):
            raise ValueError("VM sizes must be non-negative")
        if self.spread is not None:
            self.spread.check_n_pms(len(pms))
            self._domain_counts = self.spread.new_counts()
        order = np.argsort(-sizes, kind="stable") if self.decreasing else np.arange(len(vms))
        free = np.array([p.capacity for p in pms], dtype=float)
        counts = np.zeros(len(pms), dtype=np.int64)
        for vm_idx in order:
            vm_idx = int(vm_idx)
            size = sizes[vm_idx]
            pm = self._pick_pm(size, free, counts)
            if self.explainer is not None:
                self.explainer.record(vm_idx, -1 if pm is None else pm, [
                    (REASON_CAPACITY, ~(free + _EPS >= size)),
                    (REASON_VM_CAP, counts >= self.max_vms_per_pm),
                    (REASON_SPREAD, None if self.spread is None else
                     ~self.spread.allowed_pms(self._domain_counts)),
                ], free - size)
            if pm is None:
                raise InsufficientCapacityError(vm_idx)
            placement.place(vm_idx, pm)
            free[pm] -= size
            counts[pm] += 1
            if self.spread is not None:
                self.spread.admit(pm, self._domain_counts)
        return placement

    def _candidates(self, size: float, free: np.ndarray, counts: np.ndarray) -> np.ndarray:
        ok = (free + _EPS >= size) & (counts < self.max_vms_per_pm)
        if self.spread is not None:
            ok &= self.spread.allowed_pms(self._domain_counts)
        return np.flatnonzero(ok)

    def _pick_pm(self, size: float, free: np.ndarray, counts: np.ndarray) -> int | None:
        raise NotImplementedError


class FirstFitDecreasing(_GreedyPlacer):
    """First Fit Decreasing: lowest-indexed PM with room wins."""

    name = "FFD"

    def _pick_pm(self, size: float, free: np.ndarray, counts: np.ndarray) -> int | None:
        c = self._candidates(size, free, counts)
        return int(c[0]) if c.size else None


class BestFitDecreasing(_GreedyPlacer):
    """Best Fit Decreasing: feasible PM with least leftover room wins."""

    name = "BFD"

    def _pick_pm(self, size: float, free: np.ndarray, counts: np.ndarray) -> int | None:
        c = self._candidates(size, free, counts)
        if not c.size:
            return None
        return int(c[np.argmin(free[c])])


class WorstFitDecreasing(_GreedyPlacer):
    """Worst Fit Decreasing: feasible PM with most leftover room wins."""

    name = "WFD"

    def _pick_pm(self, size: float, free: np.ndarray, counts: np.ndarray) -> int | None:
        c = self._candidates(size, free, counts)
        if not c.size:
            return None
        return int(c[np.argmax(free[c])])


class NextFit(_GreedyPlacer):
    """Next Fit: keep one PM open; move on when the next VM does not fit."""

    name = "NF"

    def __init__(self, size_fn: SizeFn = size_by_peak, *, max_vms_per_pm: int = 10**9,
                 name: str | None = None,
                 spread: DomainSpreadConstraint | None = None):
        super().__init__(size_fn, max_vms_per_pm=max_vms_per_pm, decreasing=False,
                         name=name, spread=spread)
        self._open = 0

    def place(self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]) -> Placement:
        self._open = 0
        return super().place(vms, pms)

    def _pick_pm(self, size: float, free: np.ndarray, counts: np.ndarray) -> int | None:
        while self._open < free.size:
            fits = (free[self._open] + _EPS >= size
                    and counts[self._open] < self.max_vms_per_pm
                    and (self.spread is None
                         or self.spread.allowed_pms(self._domain_counts)[self._open]))
            if fits:
                return self._open
            self._open += 1
        return None


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
