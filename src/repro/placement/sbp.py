"""Stochastic bin packing with normal-approximation effective sizing.

Related-work baseline (paper Section II cites [6], [10], [18]): treat each
VM's demand as a random variable and pack by *effective size* so that the
probability the aggregate demand on a PM exceeds capacity stays below a
target ``epsilon``.

For an ON-OFF VM the demand is a two-point distribution:

    W_i = R_b + R_e * Bernoulli(q),   q = p_on / (p_on + p_off)

with mean ``mu_i = R_b + q R_e`` and variance ``s_i^2 = q (1 - q) R_e^2``.
By the central limit theorem the aggregate on a PM is approximately normal,
so the admission test is

    sum mu_i  +  z_eps * sqrt(sum s_i^2)  <=  C_j

where ``z_eps`` is the standard-normal ``(1 - eps)`` quantile.  Unlike the
paper's queueing model this ignores the *time* dimension (spike duration and
frequency enter only through ``q``), which is exactly the modeling gap the
paper argues against — the ablation benchmark quantifies it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import ndtr
from scipy.stats import norm

from repro.core.types import Placement, PMSpec, VMSpec
from repro.placement.base import (
    REASON_CAPACITY,
    REASON_CVR_THRESHOLD,
    REASON_VM_CAP,
    Placer,
    first_fit,
)
from repro.utils.validation import check_integer, check_probability

_EPS = 1e-9


class StochasticBinPacker(Placer):
    """Normal-approximation stochastic bin packing (first fit decreasing).

    Parameters
    ----------
    epsilon:
        Target per-PM overflow probability (plays the role of the paper's
        rho but is instantaneous, not a time fraction).
    max_vms_per_pm:
        Per-PM VM cap ``d``.
    """

    name = "SBP"

    def __init__(self, epsilon: float = 0.01, *, max_vms_per_pm: int = 10**9):
        self.epsilon = check_probability(epsilon, "epsilon", allow_zero=False,
                                         allow_one=False)
        self.max_vms_per_pm = check_integer(max_vms_per_pm, "max_vms_per_pm",
                                            minimum=1)
        self._z = float(norm.ppf(1.0 - self.epsilon))

    @property
    def z_score(self) -> float:
        """Standard-normal quantile used for the effective-size margin."""
        return self._z

    def effective_mean_var(self, vm: VMSpec) -> tuple[float, float]:
        """Mean and variance of the VM's stationary two-point demand."""
        q = vm.p_on / (vm.p_on + vm.p_off)
        mu = vm.r_base + q * vm.r_extra
        var = q * (1.0 - q) * vm.r_extra**2
        return mu, var

    def place(self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]) -> Placement:
        stats = np.array([self.effective_mean_var(v) for v in vms], dtype=float
                         ).reshape(len(vms), 2)
        # Sort by single-VM effective size, decreasing.
        solo_sizes = stats[:, 0] + self._z * np.sqrt(stats[:, 1])
        if self.explainer is not None:
            self.explainer.set_inputs(score_kind="overflow_probability")
        return first_fit(self, vms, len(pms),
                         np.argsort(-solo_sizes, kind="stable"),
                         _Moments(self, [p.capacity for p in pms], stats))

    @staticmethod
    def _overflow_probability(mean_tot: np.ndarray, var_tot: np.ndarray,
                              caps: np.ndarray) -> np.ndarray:
        """P(aggregate demand > capacity) per PM if the VM were admitted."""
        with np.errstate(divide="ignore", invalid="ignore"):
            # norm.sf(x) is ndtr(-x), without its per-call argument checks
            prob = ndtr(-(caps - mean_tot) / np.sqrt(var_tot))
        # var 0 collapses the normal to a point mass at the mean
        return np.where(var_tot > 0.0, prob,
                        np.where(mean_tot <= caps + _EPS, 0.0, 1.0))


class _Moments:
    """SBP's :func:`~repro.placement.base.first_fit` state: each PM's sums
    of means and variances and its VM count."""

    def __init__(self, placer: StochasticBinPacker, caps, stats: np.ndarray):
        self.placer = placer
        self.caps = np.array(caps, dtype=float)
        self.limit = self.caps + _EPS
        self.mean_sum = np.zeros(self.caps.size)
        self.var_sum = np.zeros(self.caps.size)
        self.counts = np.zeros(self.caps.size, dtype=np.int64)
        self.stats = stats

    def checks(self, i: int, vm, lo: int, hi: int):
        mu, var = self.stats[i]
        need = (self.mean_sum[lo:hi] + mu
                + self.placer.z_score * np.sqrt(self.var_sum[lo:hi] + var))
        limit = self.limit[lo:hi]
        # Peak demand of a lone VM must also fit physically.
        return [(REASON_CAPACITY, vm.r_peak <= limit),
                (REASON_VM_CAP, self.counts[lo:hi] < self.placer.max_vms_per_pm),
                (REASON_CVR_THRESHOLD, need <= limit)]

    def scores(self, i: int, vm, rows) -> np.ndarray:
        # SBP sizes each VM by its own q, so its decision carries the VM's
        # own switching probabilities
        self.placer.explainer.set_inputs(p_on=vm.p_on, p_off=vm.p_off)
        mu, var = self.stats[i]
        return self.placer._overflow_probability(
            self.mean_sum[rows] + mu, self.var_sum[rows] + var, self.caps[rows])

    def add(self, pm: int, i: int, vm) -> None:
        mu, var = self.stats[i]
        self.mean_sum[pm] += mu
        self.var_sum[pm] += var
        self.counts[pm] += 1
