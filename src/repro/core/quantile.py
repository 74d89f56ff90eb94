"""Quantile-based (blockless) reservation — an alternative to blocks.

The paper reserves ``K`` *uniform* blocks each sized ``max R_e`` of the
hosted set (Section IV-B sets the block size "conservatively").  When spike
sizes differ, that over-reserves: three VMs with ``R_e = 2, 2, 20`` and
``K = 2`` reserve ``40``, yet the worst two simultaneous spikes need at most
``22``.

Because VMs are independent, the stationary *spike mass* on a PM is the
random sum ``S = sum_i R_e_i * Bernoulli(q_i)`` with
``q_i = p_on_i / (p_on_i + p_off_i)``.  Reserving the ``(1 - rho)``-quantile
of ``S`` bounds the stationary CVR by rho exactly — no block abstraction
needed.  We compute S's distribution by convolving the two-point laws on a
fixed grid (spike sizes rounded *up* to the grid so the computed quantile
never understates the true one).

Trade-off vs the paper: the quantile must be recomputed from the full
hosted set on every admission test (``O(k * grid)`` per update), and the
block structure the paper uses to *schedule* spikes into reserved slots is
gone — this is purely a capacity-sizing variant.  The ablation benchmark
quantifies the capacity it recovers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.queuing_ffd import algorithm2_order
from repro.core.types import Placement, PMSpec, VMSpec
from repro.placement.base import InsufficientCapacityError, Placer
from repro.utils.validation import check_integer, check_positive, check_probability

_EPS = 1e-9


def spike_sum_distribution(vms: Sequence[VMSpec], *,
                           resolution: float = 0.25) -> tuple[np.ndarray, float]:
    """PMF of the stationary spike mass on a grid.

    Returns ``(pmf, resolution)`` where ``pmf[j]`` is the probability the
    spike mass equals ``j * resolution``.  Spike sizes are rounded **up**
    to grid points, so quantiles of this pmf upper-bound true quantiles.
    """
    check_positive(resolution, "resolution")
    if not vms:
        return np.array([1.0]), resolution
    steps = [int(np.ceil(v.r_extra / resolution - 1e-12)) for v in vms]
    total = sum(steps)
    pmf = np.zeros(total + 1)
    pmf[0] = 1.0
    width = 0
    for v, s in zip(vms, steps):
        q = v.p_on / (v.p_on + v.p_off)
        if s == 0:
            continue
        new = pmf[: width + s + 1].copy()
        new *= 1.0 - q
        new[s:] += pmf[: width + 1] * q
        pmf[: width + s + 1] = new
        width += s
    return pmf[: width + 1], resolution


def quantile_reservation(vms: Sequence[VMSpec], rho: float, *,
                         resolution: float = 0.25) -> float:
    """Smallest grid amount ``R`` with ``P[spike mass > R] <= rho``.

    The exact blockless analogue of MapCal's Eq. 15: reserving ``R`` bounds
    the stationary CVR by rho (spike sizes were rounded up to the grid, so
    the bound is conservative by at most ``len(vms) * resolution``).
    """
    check_probability(rho, "rho")
    pmf, res = spike_sum_distribution(vms, resolution=resolution)
    cumulative = np.cumsum(pmf)
    meets = np.flatnonzero(cumulative >= 1.0 - rho - 1e-15)
    idx = int(meets[0]) if meets.size else pmf.size - 1
    return idx * res


def quantile_cvr(vms: Sequence[VMSpec], reservation: float, *,
                 resolution: float = 0.25) -> float:
    """Stationary CVR bound achieved by a given reservation amount."""
    if reservation < 0:
        raise ValueError(f"reservation must be >= 0, got {reservation}")
    pmf, res = spike_sum_distribution(vms, resolution=resolution)
    idx = int(np.floor(reservation / res + 1e-12))
    if idx >= pmf.size - 1:
        return 0.0
    return float(pmf[idx + 1:].sum())


class QuantileFFD(Placer):
    """First-fit-decreasing consolidation with quantile reservations.

    Same ordering heuristic as Algorithm 2; the admission test replaces the
    block term of Eq. (17) with the exact spike-mass quantile:

        quantile_{1-rho}(S_{T_j + i}) + R_b^i + sum R_b  <=  C_j

    Parameters
    ----------
    rho:
        Stationary CVR bound per PM.
    d:
        Max VMs per PM.
    resolution:
        Convolution grid step (smaller = tighter reservation, more work).
    n_clusters:
        R_e clusters for the ordering step.
    """

    name = "QUANTILE"

    def __init__(self, rho: float = 0.01, d: int = 16, *,
                 resolution: float = 0.25, n_clusters: int = 10):
        self.rho = check_probability(rho, "rho")
        self.d = check_integer(d, "d", minimum=1)
        self.resolution = check_positive(resolution, "resolution")
        self.n_clusters = check_integer(n_clusters, "n_clusters", minimum=1)

    def place(self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]) -> Placement:
        placement = Placement(len(vms), len(pms))
        if not vms:
            return placement
        hosted: list[list[int]] = [[] for _ in pms]
        base_sum = np.zeros(len(pms))
        for vm_idx in algorithm2_order(vms, self.n_clusters):
            vm_idx = int(vm_idx)
            vm = vms[vm_idx]
            placed = False
            for pm_idx, pm in enumerate(pms):
                if len(hosted[pm_idx]) + 1 > self.d:
                    continue
                members = [vms[i] for i in hosted[pm_idx]] + [vm]
                reserve = quantile_reservation(members, self.rho,
                                               resolution=self.resolution)
                need = reserve + base_sum[pm_idx] + vm.r_base
                if need <= pm.capacity + _EPS:
                    hosted[pm_idx].append(vm_idx)
                    base_sum[pm_idx] += vm.r_base
                    placement.place(vm_idx, pm_idx)
                    placed = True
                    break
            if not placed:
                raise InsufficientCapacityError(vm_idx)
        return placement
