"""Algorithm 2 (QueuingFFD): the complete burstiness-aware consolidation.

Pipeline (paper Section IV-C):

1. precompute ``mapping[k] = MapCal(k, p_on, p_off, rho)`` for ``k = 1..d``;
2. cluster VMs so those with similar ``R_e`` share a cluster (keeps the
   conservative per-PM block size — ``max R_e`` of the hosted set — tight);
3. order clusters by ``R_e`` descending, VMs within a cluster by ``R_b``
   descending;
4. first-fit each VM onto the lowest-indexed PM where the Eq. (17)
   reservation constraint holds.

Total cost ``O(d^4 + n log n + m n)`` as the paper states.
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from repro.cluster.binning import equal_width_bins
from repro.cluster.kmeans import kmeans_1d
from repro.core.mapcal import BlockMapping, mapcal_table, table_fingerprint
from repro.core.reservation import PMReservationState
from repro.core.rounding import RoundingRule, round_switch_probabilities
from repro.core.types import Placement, PMSpec, VMSpec
from repro.markov.chain import StationaryMethod
from repro.placement.base import (
    REASON_CHOSEN,
    REASON_CVR_THRESHOLD,
    REASON_FEASIBLE,
    REASON_SPREAD,
    REASON_VM_CAP,
    InsufficientCapacityError,
    Placer,
)
from repro.placement.spread import DomainSpreadConstraint
from repro.telemetry import timed
from repro.utils.validation import check_integer, check_probability

ClusterMethod = Literal["binning", "kmeans", "none"]


class QueuingFFD(Placer):
    """Burstiness-aware consolidation with queueing-derived reservations.

    Parameters
    ----------
    rho:
        CVR threshold; every PM's long-run violation fraction is bounded by
        this value (paper Eq. 5).
    d:
        Maximum VMs per PM (bounds the MapCal precomputation).
    n_clusters:
        Number of ``R_e`` clusters (paper line 7).  Defaults to 10.
    cluster_method:
        ``"binning"`` (the paper's O(n) scheme), ``"kmeans"``, or ``"none"``
        to disable clustering (ablation).
    rounding_rule:
        How heterogeneous ``(p_on, p_off)`` values are collapsed
        (Section IV-E); ignored when they are already uniform.
    stationary_method:
        Stationary-distribution solver passed through to MapCal.
    spread:
        Optional :class:`~repro.placement.spread.DomainSpreadConstraint`
        capping VMs per fault domain on top of the Eq. (17) feasibility
        test (blast-radius control).
    """

    name = "QUEUE"

    def __init__(self, rho: float = 0.01, d: int = 16, *, n_clusters: int = 10,
                 cluster_method: ClusterMethod = "binning",
                 rounding_rule: RoundingRule = "mean",
                 stationary_method: StationaryMethod = "linear",
                 spread: DomainSpreadConstraint | None = None):
        self.rho = check_probability(rho, "rho")
        self.d = check_integer(d, "d", minimum=1)
        self.n_clusters = check_integer(n_clusters, "n_clusters", minimum=1)
        if cluster_method not in ("binning", "kmeans", "none"):
            raise ValueError(f"unknown cluster_method {cluster_method!r}")
        self.cluster_method = cluster_method
        self.rounding_rule: RoundingRule = rounding_rule
        self.stationary_method: StationaryMethod = stationary_method
        self.spread = spread

    # ------------------------------------------------------------------ #
    # pipeline pieces (exposed for tests and the online consolidator)
    # ------------------------------------------------------------------ #
    def mapping_for(self, vms: Sequence[VMSpec]) -> BlockMapping:
        """The ``k -> K`` block table for this VM population.

        Uses the common ``(p_on, p_off)`` if uniform, otherwise the
        configured rounding rule.  The per-``k`` solves are memoized by the
        process-wide :class:`repro.perf.cache.MapCalCache`, so a warm table
        rebuild costs ``d`` dictionary lookups — a placer-local table cache
        would only hide that traffic from the cache counters.
        """
        p_on, p_off = round_switch_probabilities(vms, self.rounding_rule)
        return mapcal_table(
            self.d, p_on, p_off, self.rho, method=self.stationary_method
        )

    def order_vms(self, vms: Sequence[VMSpec]) -> np.ndarray:
        """Placement order: clusters by ``R_e`` desc, then ``R_b`` desc.

        Returns VM indices in the order Algorithm 2 lines 7-9 prescribe.
        Implemented as one lexicographic sort, so the cost stays
        ``O(n log n)``.
        """
        r_extra = np.array([v.r_extra for v in vms])
        r_base = np.array([v.r_base for v in vms])
        if self.cluster_method == "none" or len(vms) <= 1:
            labels = np.zeros(len(vms), dtype=np.int64)
        elif self.cluster_method == "binning":
            labels = equal_width_bins(r_extra, self.n_clusters)
        else:
            labels = kmeans_1d(r_extra, self.n_clusters, seed=0)
        # np.lexsort sorts ascending by last key first; negate for descending.
        # Tie-break deliberately on r_extra desc inside a cluster-and-base tie
        # so ordering is fully deterministic.
        return np.lexsort((-r_extra, -r_base, -labels))

    # ------------------------------------------------------------------ #
    # Placer interface
    # ------------------------------------------------------------------ #
    def place(self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]) -> Placement:
        placement, _ = self.place_with_states(vms, pms)
        return placement

    def place_with_states(
        self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]
    ) -> tuple[Placement, list[PMReservationState]]:
        """Place VMs and also return the per-PM reservation states.

        The simulator and the online consolidator consume the states to know
        each PM's committed (base + reserved) load without recomputation.

        The first-fit scan is vectorized: each VM's Eq. (17) test is one
        NumPy pass (count/base-sum/max-``R_e`` vectors plus a block-table
        gather) over the *opened* PMs ``[0, hi)``, ``hi`` being one past
        the highest PM that holds a VM.  Only when none of them fits does
        it scan the empty PMs ``[hi, m)``.  The elementwise test is the one
        a full scan would make, so the first hit is the same PM.  An
        explained placement scores every PM instead, for its candidate
        rows.  :meth:`_place_reference` keeps the literal Algorithm 2 loop
        for cross-validation.
        """
        with timed("queuing_ffd.place"):
            return self._place_vectorized(vms, pms)

    def _place_vectorized(
        self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]
    ) -> tuple[Placement, list[PMReservationState]]:
        placement = Placement(len(vms), len(pms))
        if not vms:
            return placement, []
        explainer = self.explainer
        if explainer is None:
            mapping = self.mapping_for(vms)
        else:
            # Stamp the model inputs on every decision: the (rounded)
            # switching probabilities, a fingerprint of the MapCal table the
            # Eq. (17) test ran against, and whether building it hit the
            # process-wide cache (no new misses = fully warm).
            from repro.perf.cache import cache_stats
            misses_before = cache_stats()["misses"]
            mapping = self.mapping_for(vms)
            explainer.set_inputs(
                p_on=mapping.p_on, p_off=mapping.p_off,
                table_fingerprint=table_fingerprint(mapping),
                cache_hit=cache_stats()["misses"] == misses_before,
                score_kind="reservation_headroom")
        m = len(pms)
        caps = np.array([p.capacity for p in pms], dtype=float)
        counts = np.zeros(m, dtype=np.int64)
        base_sums = np.zeros(m, dtype=float)
        max_extras = np.zeros(m, dtype=float)
        domain_counts = None
        if self.spread is not None:
            self.spread.check_n_pms(m)
            domain_counts = self.spread.new_counts()
        table = mapping.table  # table[k] = blocks for k VMs
        d = mapping.d

        def scan(vm: VMSpec, lo: int, hi: int, spread_ok):
            """Eq. (17) on PMs ``[lo, hi)``: first fit plus per-PM terms."""
            new_counts = counts[lo:hi] + 1
            count_ok = new_counts <= d
            blocks = table[np.minimum(new_counts, d)]
            need = (
                np.maximum(max_extras[lo:hi], vm.r_extra) * blocks
                + base_sums[lo:hi] + vm.r_base
            )
            capacity_ok = need <= caps[lo:hi] + 1e-9
            eligible = count_ok & capacity_ok
            if spread_ok is not None:
                eligible &= spread_ok[lo:hi]
            hit = np.flatnonzero(eligible)
            first = lo + int(hit[0]) if hit.size else -1
            return first, count_ok, capacity_ok, need

        hi = 0  # one past the highest PM that holds a VM
        order = self.order_vms(vms)
        for vm_idx in order:
            vm_idx = int(vm_idx)
            vm = vms[vm_idx]
            spread_ok = (self.spread.allowed_pms(domain_counts)
                         if self.spread is not None else None)
            if explainer is None:
                # Every PM in [hi, m) is empty: scan the opened prefix
                # first and open a new PM only when none of them fits.
                pm_idx = scan(vm, 0, hi, spread_ok)[0]
                if pm_idx < 0:
                    pm_idx = scan(vm, hi, m, spread_ok)[0]
            else:
                pm_idx, count_ok, capacity_ok, need = scan(vm, 0, m,
                                                           spread_ok)
                verdicts = []
                for j in range(m):
                    if j == pm_idx:
                        verdicts.append(REASON_CHOSEN)
                    elif not count_ok[j]:
                        verdicts.append(REASON_VM_CAP)
                    elif not capacity_ok[j]:
                        verdicts.append(REASON_CVR_THRESHOLD)
                    elif spread_ok is not None and not spread_ok[j]:
                        verdicts.append(REASON_SPREAD)
                    else:
                        verdicts.append(REASON_FEASIBLE)
                explainer.record(vm_idx, pm_idx, verdicts,
                                 (caps - need).tolist())
            if pm_idx < 0:
                raise InsufficientCapacityError(vm_idx)
            counts[pm_idx] += 1
            base_sums[pm_idx] += vm.r_base
            max_extras[pm_idx] = max(max_extras[pm_idx], vm.r_extra)
            if self.spread is not None:
                self.spread.admit(pm_idx, domain_counts)
            placement.place(vm_idx, pm_idx)
            hi = max(hi, pm_idx + 1)
        # Materialize the reservation states from the final assignment.
        states = [PMReservationState(spec=p, mapping=mapping) for p in pms]
        for vm_idx, pm_idx in placement:
            states[pm_idx].add(vm_idx, vms[vm_idx])
        return placement, states

    def _place_reference(
        self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]
    ) -> tuple[Placement, list[PMReservationState]]:
        """Literal Algorithm 2 (per-PM Python scan); used to cross-validate
        the vectorized path in the test suite."""
        placement = Placement(len(vms), len(pms))
        if not vms:
            return placement, []
        mapping = self.mapping_for(vms)
        states = [PMReservationState(spec=p, mapping=mapping) for p in pms]
        domain_counts = None
        if self.spread is not None:
            self.spread.check_n_pms(len(pms))
            domain_counts = self.spread.new_counts()
        for vm_idx in self.order_vms(vms):
            vm_idx = int(vm_idx)
            vm = vms[vm_idx]
            for pm_idx, state in enumerate(states):
                if self.spread is not None and not bool(
                        self.spread.allowed_pms(domain_counts)[pm_idx]):
                    continue
                if state.fits(vm):
                    state.add(vm_idx, vm)
                    placement.place(vm_idx, pm_idx)
                    if self.spread is not None:
                        self.spread.admit(pm_idx, domain_counts)
                    break
            else:
                raise InsufficientCapacityError(vm_idx)
        return placement, states
