"""Exact reservation for heterogeneous VMs (extension of Section IV-E).

The paper handles VMs with differing ``(p_on, p_off)`` by rounding them to
uniform values and paying either accuracy (mean rounding can break the CVR
bound) or capacity (conservative rounding over-reserves) — see the rounding
ablation.  This module removes that trade-off for the *stationary* analysis:

Because the VMs evolve independently, the stationary number of ON VMs among
a heterogeneous set is **Poisson-binomial** with per-VM ON probabilities
``q_i = p_on_i / (p_on_i + p_off_i)``.  The CVR with ``K`` blocks is exactly
the Poisson-binomial tail beyond ``K`` — the same quantity the paper's
Markov-chain construction yields in the uniform case (where the
Poisson-binomial degenerates to the binomial the paper's chain has as its
marginal).  So the minimal block count is computable exactly in ``O(k^2)``
per PM, with no rounding at all.

The catch, and why the paper's uniform machinery is still needed: the
*transient* behaviour (episode lengths, time-to-violation) depends on the
full switch dynamics, not just the ``q_i``.  The stationary CVR — the
paper's actual performance constraint (Eq. 5) — does not.

:class:`HeterogeneousQueuingFFD` is a drop-in placer using the exact
per-candidate-set tail: instead of a precomputed ``mapping[k]`` it
recomputes the Poisson-binomial tail as each VM is tentatively added
(one O(k) convolution step per PM, over the PMs that host a VM first and
the empty tail only when none of them fits).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.queuing_ffd import algorithm2_order
from repro.core.reservation import ReservationKernel
from repro.core.types import Placement, PMSpec, VMSpec
from repro.perf.cache import get_cache
from repro.placement.base import Placer, first_fit
from repro.queueing.geom_geom_k import CDF_SLACK
from repro.utils.validation import check_integer, check_probability


def poisson_binomial_pmf(q: np.ndarray) -> np.ndarray:
    """PMF of the number of successes among independent Bernoulli(q_i).

    Dynamic program over items: ``O(k^2)`` time, numerically stable for the
    k <= a-few-hundred sizes relevant here.  ``q`` empty gives the point
    mass at 0.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise ValueError(f"q must be 1-D, got shape {q.shape}")
    if q.size and (np.any(q < 0.0) or np.any(q > 1.0)):
        raise ValueError("success probabilities must lie in [0, 1]")
    pmf = np.zeros(q.size + 1)
    pmf[0] = 1.0
    for i, qi in enumerate(q):
        # new_pmf[j] = pmf[j] * (1 - qi) + pmf[j-1] * qi
        pmf[1 : i + 2] = pmf[1 : i + 2] * (1.0 - qi) + pmf[: i + 1] * qi
        pmf[0] *= 1.0 - qi
    return pmf


def stationary_on_probabilities(vms: Sequence[VMSpec]) -> np.ndarray:
    """Per-VM stationary ON probabilities ``q_i = p_on / (p_on + p_off)``."""
    return np.array([v.p_on / (v.p_on + v.p_off) for v in vms])


def heterogeneous_blocks(vms: Sequence[VMSpec], rho: float) -> int:
    """Minimal ``K`` with ``P[#ON > K] <= rho`` for a heterogeneous set.

    Exact (Poisson-binomial) generalization of MapCal's Eq. 15.  Returns a
    value in ``[0, len(vms)]``; an empty set needs 0 blocks.

    A homogeneous fleet (every VM sharing one ``(p_on, p_off)``) is exactly
    the paper's uniform case, so it is delegated to
    :func:`repro.core.mapcal.mapcal` — the reduction property holds by
    construction rather than by numerical coincidence (the convolution and
    chain-solve routes can disagree by one block when ``1 - rho`` lands
    inside their ~1e-16 error band), and the solve shares cache entries
    with the MapCal tables.

    Solves are memoized through :func:`repro.perf.cache.get_cache`,
    keyed on the sorted ``q_i`` multiset and ``rho`` (block
    count is permutation-invariant in the ``q_i``).
    """
    check_probability(rho, "rho")
    if not vms:
        return 0
    first = (vms[0].p_on, vms[0].p_off)
    if all((vm.p_on, vm.p_off) == first for vm in vms):
        from repro.core.mapcal import mapcal

        return mapcal(len(vms), first[0], first[1], rho)
    q = stationary_on_probabilities(vms)
    key = ("het", tuple(sorted(float(qi) for qi in q)), float(rho))
    return get_cache().get_or_compute(key, lambda: _solve_blocks(q, rho))


def _solve_blocks(q: np.ndarray, rho: float) -> int:
    pmf = poisson_binomial_pmf(q)
    return int(_exact_blocks(pmf[None, :], 1.0 - rho - CDF_SLACK, q.size)[0])


def _exact_blocks(pmfs: np.ndarray, threshold: float, fallback) -> np.ndarray:
    """Per row of ON-count PMFs, the least ``K`` with ``P[#ON <= K] >=
    threshold``; ``fallback`` where no ``K`` reaches it."""
    meets = np.cumsum(pmfs, axis=1) >= threshold
    return np.where(meets.any(axis=1), meets.argmax(axis=1), fallback)


def heterogeneous_cvr(vms: Sequence[VMSpec], n_blocks: int) -> float:
    """Exact stationary CVR of a heterogeneous set given ``n_blocks``."""
    n_blocks = check_integer(n_blocks, "n_blocks", minimum=0)
    if not vms or n_blocks >= len(vms):
        return 0.0
    pmf = poisson_binomial_pmf(stationary_on_probabilities(vms))
    return float(pmf[n_blocks + 1 :].sum())


class HeterogeneousQueuingFFD(Placer):
    """QueuingFFD with exact per-PM Poisson-binomial reservations.

    Drop-in alternative to rounding for fleets with heterogeneous switch
    probabilities: the stationary CVR bound holds exactly for every PM, and
    no capacity is wasted on conservative rounding.

    Parameters
    ----------
    rho:
        Stationary CVR bound per PM.
    d:
        Max VMs per PM.
    n_clusters:
        R_e clusters for the ordering step (same heuristic as Algorithm 2).
    """

    name = "QUEUE-HET"

    def __init__(self, rho: float = 0.01, d: int = 16, *, n_clusters: int = 10):
        self.rho = check_probability(rho, "rho")
        self.d = check_integer(d, "d", minimum=1)
        self.n_clusters = check_integer(n_clusters, "n_clusters", minimum=1)

    def place(self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]) -> Placement:
        if self.explainer is not None:
            self.explainer.set_inputs(score_kind="reservation_headroom")
        kernel = _ExactKernel([p.capacity for p in pms], self.d, self.rho)
        return first_fit(self, vms, len(pms),
                         algorithm2_order(vms, self.n_clusters), kernel)


class _ExactKernel(ReservationKernel):
    """The Eq. (17) kernel with exact block counts: each PM keeps the PMF
    of its hosted set's ON-count as a row, and a candidate's block count is
    one convolution step of that row."""

    def __init__(self, caps, d: int, rho: float):
        super().__init__(caps, d)
        self.pmfs = np.zeros((self.caps.shape[0], d + 1))
        self.pmfs[:, 0] = 1.0
        self.threshold = 1.0 - rho - CDF_SLACK

    def _extended(self, vm, lo: int, hi: int | None) -> np.ndarray:
        """Rows ``[lo, hi)`` with ``vm`` added."""
        q = vm.p_on / (vm.p_on + vm.p_off)
        pmfs = self.pmfs[lo:hi]
        extended = pmfs * (1.0 - q)
        extended[:, 1:] += pmfs[:, :-1] * q
        return extended

    def need(self, vm, lo: int = 0, hi: int | None = None):
        blocks = _exact_blocks(self._extended(vm, lo, hi), self.threshold,
                               self.counts[lo:hi] + 1)
        return super().need(vm, lo, hi, blocks=blocks)

    def add(self, pm: int, vm_id: int, vm) -> None:
        row = self._extended(vm, pm, pm + 1)[0]
        super().add(pm, vm_id, vm)
        self.pmfs[pm] = row
