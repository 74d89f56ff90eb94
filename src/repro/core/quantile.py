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

Trade-off vs the paper: each PM keeps its hosted set's spike-mass PMF, a
row of up to ``(d + 1) * max_steps + 1`` grid points instead of one block
count, and an admission test is one convolution step and a ``cumsum`` of
that row (``O(grid)`` per PM against ``O(1)`` for a table lookup).  The
block structure the paper uses to *schedule* spikes into reserved slots is
gone — this is purely a capacity-sizing variant.  The ablation benchmark
quantifies the capacity it recovers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.queuing_ffd import algorithm2_order
from repro.core.reservation import ReservationKernel
from repro.core.types import Placement, PMSpec, VMSpec
from repro.placement.base import Placer, first_fit
from repro.queueing.geom_geom_k import CDF_SLACK
from repro.utils.validation import check_integer, check_positive, check_probability


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
    steps = [_grid_steps(v.r_extra, resolution) for v in vms]
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


def _grid_steps(r_extra: float, resolution: float) -> int:
    """A spike size in grid steps, rounded up."""
    return int(np.ceil(r_extra / resolution - 1e-12))


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
        if not vms:
            return Placement(0, len(pms))
        if self.explainer is not None:
            self.explainer.set_inputs(score_kind="reservation_headroom")
        kernel = _SpikeMassKernel(
            [p.capacity for p in pms], self,
            max(_grid_steps(v.r_extra, self.resolution) for v in vms))
        return first_fit(self, vms, len(pms),
                         algorithm2_order(vms, self.n_clusters), kernel)


class _SpikeMassKernel(ReservationKernel):
    """The Eq. (17) kernel with the spike-mass quantile as the reservation.

    Each PM keeps the spike-mass PMF of its hosted set as a row, convolved
    in hosting order as :func:`spike_sum_distribution` convolves a list, so
    a candidate's quantile is one convolution step and one ``cumsum`` per
    row.  The rows have ``(d + 1) * max_steps + 1`` columns, enough for a
    full PM plus a candidate; each step reads only the columns that can
    hold mass.  PMs at or above ``top`` host nothing, so one of their rows
    stands for all.
    """

    def __init__(self, caps, placer: QuantileFFD, max_steps: int):
        super().__init__(caps, placer.d)
        self.resolution = placer.resolution
        self.threshold = 1.0 - placer.rho - CDF_SLACK
        self.widths = np.zeros_like(self.counts)  # grid steps of each row
        self.rows = np.zeros((self.counts.size, (self.d + 1) * max_steps + 1))
        self.rows[:, 0] = 1.0
        # a step's work arrays; only the pages a step writes are committed
        self.scratch = np.empty((2,) + self.rows.shape)
        self.top = 0

    def _convolved(self, vm, s: int, lo: int, hi: int) -> np.ndarray:
        """Rows ``[lo, hi)`` with ``vm`` (``s`` steps) added, cut after the
        widest."""
        rows = self.rows[lo:hi, :int(self.widths[lo:hi].max()) + s + 1]
        if s == 0:
            return rows
        h, w = rows.shape
        q = vm.p_on / (vm.p_on + vm.p_off)
        new = np.multiply(rows, 1.0 - q, out=self.scratch[0, :h, :w])
        new[:, s:] += np.multiply(rows[:, :w - s], q,
                                  out=self.scratch[1, :h, :w - s])
        return new

    def _committed(self, vm, s: int, lo: int, hi: int) -> np.ndarray:
        """Quantile reservation plus base sum on PMs ``[lo, hi)``: the
        least grid point whose CDF reaches ``1 - rho``, else the row's
        last."""
        new = self._convolved(vm, s, lo, hi)
        meets = np.cumsum(new, axis=1, out=self.scratch[1, :new.shape[0],
                                                        :new.shape[1]]
                          ) >= self.threshold
        quantile = np.where(meets.any(axis=1), meets.argmax(axis=1),
                            self.widths[lo:hi] + s)
        return quantile * self.resolution + self.base_sums[lo:hi]

    def need(self, vm, lo: int = 0, hi: int | None = None):
        hi = self.counts.size if hi is None else hi
        s = _grid_steps(vm.r_extra, self.resolution)
        mid = min(max(lo, self.top), hi)
        need = np.empty(hi - lo)
        if mid > lo:
            need[:mid - lo] = self._committed(vm, s, lo, mid)
        if hi > mid:
            need[mid - lo:] = self._committed(vm, s, mid, mid + 1)
        return need + vm.r_base, self.counts[lo:hi] + 1 <= self.d

    def add(self, pm: int, vm_id: int, vm) -> None:
        s = _grid_steps(vm.r_extra, self.resolution)
        row = self._convolved(vm, s, pm, pm + 1)[0]
        super().add(pm, vm_id, vm)
        self.rows[pm, :row.size] = row
        self.widths[pm] += s
        self.top = max(self.top, pm + 1)
