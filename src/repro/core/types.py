"""Problem-instance types: VM specs, PM specs, and placements.

These mirror the paper's formulation (Section III): a VM is the four-tuple
``V_i = (p_on, p_off, R_b, R_e)``, a PM is its capacity ``H_j = (C_j)``, and a
placement is the binary mapping ``X = [x_ij]`` which we store sparsely as a
VM -> PM index array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.markov.onoff import OnOffChain
from repro.utils.validation import check_non_negative, check_positive, check_probability

UNPLACED = -1


@dataclass(frozen=True)
class VMSpec:
    """A virtual machine's workload specification.

    Attributes
    ----------
    p_on:
        Per-interval probability the workload switches from normal to spike
        (spike frequency).
    p_off:
        Per-interval probability a spike ends (inverse spike duration).
    r_base:
        Resource demand in the OFF/normal state (the paper's ``R_b``).
    r_extra:
        Additional demand during a spike (the paper's ``R_e``); the peak
        demand is ``R_p = R_b + R_e``.
    """

    p_on: float
    p_off: float
    r_base: float
    r_extra: float

    def __post_init__(self) -> None:
        try:
            check_probability(self.p_on, "p_on", allow_zero=False)
            check_probability(self.p_off, "p_off", allow_zero=False)
            check_non_negative(self.r_base, "r_base")
            check_non_negative(self.r_extra, "r_extra")
        except (TypeError, ValueError) as exc:
            raise type(exc)(
                f"invalid VMSpec: {exc} — expected the paper's four-tuple "
                f"(p_on, p_off, R_b, R_e): spike start/stop probabilities "
                f"in (0, 1] and non-negative base/extra demands"
            ) from None

    @property
    def r_peak(self) -> float:
        """Peak demand ``R_p = R_b + R_e``."""
        return self.r_base + self.r_extra

    def chain(self) -> OnOffChain:
        """The VM's ON-OFF workload chain."""
        return OnOffChain(self.p_on, self.p_off)

    def demand(self, on: bool) -> float:
        """Instantaneous demand given the ON/OFF state."""
        return self.r_peak if on else self.r_base


@dataclass(frozen=True)
class PMSpec:
    """A physical machine, described by its capacity ``C_j``."""

    capacity: float

    def __post_init__(self) -> None:
        try:
            check_positive(self.capacity, "capacity")
        except (TypeError, ValueError) as exc:
            raise type(exc)(
                f"invalid PMSpec: {exc} — capacity is the PM's resource "
                f"budget C_j in the same units as VM demands and must be "
                f"a finite positive number"
            ) from None


@dataclass
class Placement:
    """A VM -> PM assignment.

    Stored as an integer array ``assignment`` with ``assignment[i] = j`` when
    VM ``i`` is on PM ``j`` and ``-1`` (:data:`UNPLACED`) otherwise.

    Parameters
    ----------
    n_vms, n_pms:
        Problem dimensions.
    assignment:
        Optional initial assignment; defaults to all unplaced.
    """

    n_vms: int
    n_pms: int
    assignment: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.n_vms < 0 or self.n_pms < 0:
            raise ValueError("n_vms and n_pms must be >= 0")
        if self.assignment is None:
            self.assignment = np.full(self.n_vms, UNPLACED, dtype=np.int64)
        else:
            self.assignment = np.asarray(self.assignment, dtype=np.int64).copy()
            if self.assignment.shape != (self.n_vms,):
                raise ValueError(
                    f"assignment must have shape ({self.n_vms},), "
                    f"got {self.assignment.shape}"
                )
            bad = (self.assignment < UNPLACED) | (self.assignment >= self.n_pms)
            if np.any(bad):
                raise ValueError(
                    f"assignment entries must be in [-1, {self.n_pms}), "
                    f"offending indices: {np.flatnonzero(bad)[:5].tolist()}"
                )

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def place(self, vm: int, pm: int) -> None:
        """Assign VM ``vm`` to PM ``pm`` (VM must currently be unplaced)."""
        self._check_vm(vm)
        if not 0 <= pm < self.n_pms:
            raise ValueError(f"pm must be in [0, {self.n_pms}), got {pm}")
        if self.assignment[vm] != UNPLACED:
            raise ValueError(f"VM {vm} is already placed on PM {self.assignment[vm]}")
        self.assignment[vm] = pm

    def _check_vm(self, vm: int) -> None:
        if not 0 <= vm < self.n_vms:
            raise ValueError(f"vm must be in [0, {self.n_vms}), got {vm}")

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def pm_of(self, vm: int) -> int:
        """PM hosting VM ``vm`` or :data:`UNPLACED`."""
        self._check_vm(vm)
        return int(self.assignment[vm])

    def vms_on(self, pm: int) -> np.ndarray:
        """Indices of VMs hosted on PM ``pm``."""
        if not 0 <= pm < self.n_pms:
            raise ValueError(f"pm must be in [0, {self.n_pms}), got {pm}")
        return np.flatnonzero(self.assignment == pm)

    def used_pms(self) -> np.ndarray:
        """Sorted indices of PMs hosting at least one VM."""
        placed = self.assignment[self.assignment != UNPLACED]
        return np.unique(placed)

    @property
    def n_used_pms(self) -> int:
        """Number of PMs hosting at least one VM (the paper's objective)."""
        return int(self.used_pms().size)

    @property
    def all_placed(self) -> bool:
        """Whether every VM is assigned to some PM."""
        return bool(np.all(self.assignment != UNPLACED))

    def copy(self) -> "Placement":
        """Deep copy of the placement."""
        return Placement(self.n_vms, self.n_pms, self.assignment.copy())

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """Iterate over (vm, pm) pairs of placed VMs."""
        for vm in np.flatnonzero(self.assignment != UNPLACED):
            yield int(vm), int(self.assignment[vm])


def vm_arrays(vms: Sequence[VMSpec]) -> dict[str, np.ndarray]:
    """Columnar view of a VM list for vectorized computations.

    Returns arrays keyed by ``"p_on"``, ``"p_off"``, ``"r_base"``,
    ``"r_extra"``, ``"r_peak"``.
    """
    return {
        "p_on": np.array([v.p_on for v in vms], dtype=float),
        "p_off": np.array([v.p_off for v in vms], dtype=float),
        "r_base": np.array([v.r_base for v in vms], dtype=float),
        "r_extra": np.array([v.r_extra for v in vms], dtype=float),
        "r_peak": np.array([v.r_peak for v in vms], dtype=float),
    }
