"""The Eq. (17) admission constraint and per-PM reservation bookkeeping.

A PM hosting the VM index set ``T_j`` reserves ``mapping(|T_j|)`` blocks, each
sized to the largest ``R_e`` among hosted VMs.  A candidate VM ``i`` may be
admitted iff ``|T_j| + 1 <= d`` and (paper Eq. 17, in the float grouping
used everywhere)

    (max(R_e^i, max R_e of T_j) * mapping(|T_j| + 1)
      + sum of R_b over T_j) + R_b^i          <=  C_j + 1e-9

:class:`ReservationKernel` is the one place the test is evaluated; every
consolidation path calls it.  :func:`fits_with_reservation` and
:class:`PMReservationState` are the scalar reference the tests compare it
against, and :meth:`ReservationKernel.snapshot` returns one PM's aggregates
as a :class:`PMReservationState`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.mapcal import BlockMapping
from repro.core.types import PMSpec, VMSpec
from repro.placement.base import REASON_CVR_THRESHOLD, REASON_VM_CAP

#: absolute tolerance on the capacity side of Eq. (17)
TOLERANCE = 1e-9


class ReservationKernel:
    """Per-PM Eq. (17) aggregates as arrays, and the test over all of them.

    ``caps`` has shape ``(m,)``, or ``(m, D)`` for per-dimension
    reservations (Section IV-E): a VM with length-``D`` demands then fits
    only if Eq. (17) holds in every dimension.  ``table`` is the
    ``k -> K`` block table for ``k = 0..d``; it may be ``None`` when every
    :meth:`need` call passes its own ``blocks``.

    ``counts``, ``base_sums`` and ``max_extras`` hold ``|T_j|``,
    ``sum R_b`` and ``max R_e``; ``hosted[j]`` maps VM id to spec in
    insertion order.  :meth:`checks`, :meth:`scores` and :meth:`add` make
    the kernel the state of a :func:`~repro.placement.base.first_fit`
    pass.  Adding sums in arrival order; removing recomputes
    from the remaining VMs in id order.  When ids grow with arrivals
    (online admission), a PM's base sum therefore equals the one a restore
    that re-adds its VMs in id order rebuilds, and both decide alike.
    """

    def __init__(self, caps, d: int, table: np.ndarray | None = None):
        self.caps = np.asarray(caps, dtype=float)
        self._limit = self.caps + TOLERANCE
        self.d = int(d)
        self.table = table
        m = self.caps.shape[0]
        self.counts = np.zeros(m, dtype=np.int64)
        self.base_sums = np.zeros_like(self.caps)
        self.max_extras = np.zeros_like(self.caps)
        self.hosted: list[dict[int, object]] = [{} for _ in range(m)]

    # ------------------------------------------------------------------ #
    # the test
    # ------------------------------------------------------------------ #
    def need(self, vm, lo: int = 0, hi: int | None = None, *,
             blocks: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
        """Eq. (17) left-hand side of ``vm`` on PMs ``[lo, hi)`` and the
        ``d``-cap mask.  ``blocks`` (per PM, for ``|T_j| + 1`` VMs)
        replaces the table lookup."""
        new_counts = self.counts[lo:hi] + 1
        count_ok = new_counts <= self.d
        if blocks is None:
            blocks = self.table[np.minimum(new_counts, self.d)]
        if self.caps.ndim == 2:
            blocks = blocks[:, None]
        need = (np.maximum(self.max_extras[lo:hi], vm.r_extra) * blocks
                + self.base_sums[lo:hi]) + vm.r_base
        return need, count_ok

    def within(self, need: np.ndarray, lo: int = 0,
               hi: int | None = None) -> np.ndarray:
        """Capacity side of Eq. (17) for a :meth:`need` vector."""
        ok = need <= self._limit[lo:hi]
        return ok.all(axis=1) if ok.ndim == 2 else ok

    def feasible(self, vm, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Mask of PMs in ``[lo, hi)`` where ``vm`` passes Eq. (17)."""
        need, count_ok = self.need(vm, lo, hi)
        return count_ok & self.within(need, lo, hi)

    def checks(self, i: int, vm, lo: int = 0, hi: int | None = None
               ) -> list[tuple[str, np.ndarray]]:
        """Eq. (17) on PMs ``[lo, hi)`` as ``(reason, pass mask)`` pairs:
        the ``d`` cap, then the capacity side."""
        need, count_ok = self.need(vm, lo, hi)
        return [(REASON_VM_CAP, count_ok),
                (REASON_CVR_THRESHOLD, self.within(need, lo, hi))]

    def scores(self, i: int, vm, rows) -> np.ndarray:
        """Headroom ``C - need`` of the PMs ``rows``; with ``(m, D)``
        capacities, the tightest dimension's."""
        headroom = (self.caps - self.need(vm)[0])[rows]
        return headroom.min(axis=1) if headroom.ndim == 2 else headroom

    # ------------------------------------------------------------------ #
    # state changes
    # ------------------------------------------------------------------ #
    def add(self, pm: int, vm_id: int, vm) -> None:
        """Host ``vm`` on PM ``pm``; a duplicate id or a full PM raises
        ``ValueError``, so a divergent journal fails loudly."""
        hosted = self.hosted[pm]
        if vm_id in hosted:
            raise ValueError(f"VM {vm_id} is already on PM {pm}")
        if self.counts[pm] + 1 > self.d:
            raise ValueError(
                f"PM {pm} already hosts d={self.d} VMs; cannot admit more")
        hosted[vm_id] = vm
        self.counts[pm] += 1
        self.base_sums[pm] += vm.r_base
        self.max_extras[pm] = np.maximum(self.max_extras[pm], vm.r_extra)

    def remove(self, pm: int, vm_id: int):
        """Evict VM ``vm_id`` from PM ``pm``; returns its spec."""
        hosted = self.hosted[pm]
        try:
            vm = hosted.pop(vm_id)
        except KeyError:
            raise KeyError(f"VM {vm_id} is not hosted on PM {pm}") from None
        self.counts[pm] -= 1
        self.base_sums[pm] = 0.0
        self.max_extras[pm] = 0.0
        for vid in sorted(hosted):
            self.base_sums[pm] += hosted[vid].r_base
            self.max_extras[pm] = np.maximum(self.max_extras[pm],
                                             hosted[vid].r_extra)
        return vm

    # ------------------------------------------------------------------ #
    # read-outs
    # ------------------------------------------------------------------ #
    def committed(self, table: np.ndarray | None = None) -> np.ndarray:
        """Base plus reservation per PM, under ``table`` (default: own)."""
        blocks = (self.table if table is None else table)[self.counts]
        if self.caps.ndim == 2:
            blocks = blocks[:, None]
        return self.base_sums + self.max_extras * blocks

    def fits_table(self, table: np.ndarray) -> bool:
        """Whether every PM's hosted set still fits under ``table``."""
        return bool(np.all(self.committed(table) <= self._limit))

    def snapshot(self, pm: int, spec: PMSpec,
                 mapping: BlockMapping) -> "PMReservationState":
        """PM ``pm``'s aggregates as a detached :class:`PMReservationState`."""
        return PMReservationState(
            spec=spec, mapping=mapping, vms=dict(self.hosted[pm]),
            base_sum=float(self.base_sums[pm]),
            max_extra=float(self.max_extras[pm]))


def fits_with_reservation(vm: VMSpec, pm_capacity: float, *,
                          current_count: int, current_base_sum: float,
                          current_max_extra: float,
                          mapping: BlockMapping) -> bool:
    """Scalar reference for Eq. (17), in the kernel's float grouping.

    ``current_*`` are the PM's ``|T_j|``, ``sum R_b`` and ``max R_e`` (0
    for an empty PM).  A VM beyond the table's ``d`` never fits.
    """
    new_count = current_count + 1
    if new_count > mapping.d:
        return False
    need = (max(current_max_extra, vm.r_extra) * mapping.blocks_for(new_count)
            + current_base_sum) + vm.r_base
    return need <= pm_capacity + TOLERANCE


@dataclass
class PMReservationState:
    """Aggregate state of one PM: the scalar reference for the kernel.

    Tracks exactly the quantities Eq. (17) needs.  Removal recomputes the
    base sum and ``max_extra`` from the hosted set in VM-id order, as
    :meth:`ReservationKernel.remove` does.
    """

    spec: PMSpec
    mapping: BlockMapping
    vms: dict[int, VMSpec] = field(default_factory=dict)
    base_sum: float = 0.0
    max_extra: float = 0.0

    @property
    def count(self) -> int:
        """Number of hosted VMs."""
        return len(self.vms)

    @property
    def is_empty(self) -> bool:
        """Whether the PM hosts no VM."""
        return not self.vms

    @property
    def n_blocks(self) -> int:
        """Reserved block count for the current population."""
        return self.mapping.blocks_for(self.count) if self.count else 0

    @property
    def reserved(self) -> float:
        """Total reserved resource (block size x block count)."""
        return self.max_extra * self.n_blocks

    @property
    def committed(self) -> float:
        """Base demand plus reservation currently committed on this PM."""
        return self.base_sum + self.reserved

    @property
    def headroom(self) -> float:
        """Capacity remaining beyond the committed amount."""
        return self.spec.capacity - self.committed

    def fits(self, vm: VMSpec) -> bool:
        """Whether ``vm`` can be admitted under Eq. (17)."""
        return fits_with_reservation(
            vm,
            self.spec.capacity,
            current_count=self.count,
            current_base_sum=self.base_sum,
            current_max_extra=self.max_extra,
            mapping=self.mapping,
        )

    def add(self, vm_id: int, vm: VMSpec) -> None:
        """Admit ``vm`` (caller must have checked :meth:`fits`)."""
        if vm_id in self.vms:
            raise ValueError(f"VM {vm_id} is already on this PM")
        if self.count + 1 > self.mapping.d:
            raise ValueError(
                f"PM already hosts d={self.mapping.d} VMs; cannot admit more"
            )
        self.vms[vm_id] = vm
        self.base_sum += vm.r_base
        self.max_extra = max(self.max_extra, vm.r_extra)

    def remove(self, vm_id: int) -> VMSpec:
        """Evict VM ``vm_id``, recomputing aggregates in VM-id order."""
        try:
            vm = self.vms.pop(vm_id)
        except KeyError:
            raise KeyError(f"VM {vm_id} is not hosted on this PM") from None
        self.base_sum = 0.0
        self.max_extra = 0.0
        for vid in sorted(self.vms):
            self.base_sum += self.vms[vid].r_base
            self.max_extra = max(self.max_extra, self.vms[vid].r_extra)
        return vm
