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

from typing import Callable, Literal, Sequence

import numpy as np

from repro.cluster.binning import equal_width_bins
from repro.cluster.kmeans import kmeans_1d
from repro.core.mapcal import BlockMapping, mapcal_table, table_fingerprint
from repro.core.reservation import ReservationKernel
from repro.core.rounding import RoundingRule, round_switch_probabilities
from repro.core.types import Placement, PMSpec, VMSpec
from repro.perf.cache import cache_stats
from repro.placement.base import Placer, first_fit
from repro.placement.spread import DomainSpreadConstraint
from repro.telemetry import timed
from repro.utils.validation import check_integer, check_probability

ClusterMethod = Literal["binning", "kmeans", "none"]


def algorithm2_order(vms: Sequence[VMSpec], n_clusters: int,
                     cluster_method: ClusterMethod = "binning") -> np.ndarray:
    """Algorithm 2's placement order: ``R_e`` clusters desc, then ``R_b`` desc.

    Returns VM indices in the order lines 7-9 prescribe, as one
    lexicographic sort, so the cost stays ``O(n log n)``.
    ``cluster_method`` is ``"binning"`` (the paper's equal-width ``R_e``
    bins), ``"kmeans"`` or ``"none"`` (one cluster).
    """
    r_extra = np.array([v.r_extra for v in vms])
    r_base = np.array([v.r_base for v in vms])
    if cluster_method == "none" or len(vms) <= 1:
        labels = np.zeros(len(vms), dtype=np.int64)
    elif cluster_method == "binning":
        labels = equal_width_bins(r_extra, n_clusters)
    else:
        labels = kmeans_1d(r_extra, n_clusters, seed=0)
    # np.lexsort sorts ascending by last key first; negate for descending.
    # Tie-break deliberately on r_extra desc inside a cluster-and-base tie
    # so ordering is fully deterministic.
    return np.lexsort((-r_extra, -r_base, -labels))


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
    spread:
        Optional :class:`~repro.placement.spread.DomainSpreadConstraint`
        capping VMs per fault domain on top of the Eq. (17) feasibility
        test (blast-radius control).
    """

    name = "QUEUE"

    def __init__(self, rho: float = 0.01, d: int = 16, *, n_clusters: int = 10,
                 cluster_method: ClusterMethod = "binning",
                 rounding_rule: RoundingRule = "mean",
                 spread: DomainSpreadConstraint | None = None):
        self.rho = check_probability(rho, "rho")
        self.d = check_integer(d, "d", minimum=1)
        self.n_clusters = check_integer(n_clusters, "n_clusters", minimum=1)
        if cluster_method not in ("binning", "kmeans", "none"):
            raise ValueError(f"unknown cluster_method {cluster_method!r}")
        self.cluster_method = cluster_method
        self.rounding_rule: RoundingRule = rounding_rule
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
        return mapcal_table(self.d, p_on, p_off, self.rho)

    def order_vms(self, vms: Sequence[VMSpec]) -> np.ndarray:
        """Placement order (:func:`algorithm2_order`); GRAND overrides it."""
        return algorithm2_order(vms, self.n_clusters, self.cluster_method)

    # ------------------------------------------------------------------ #
    # Placer interface
    # ------------------------------------------------------------------ #
    def place(self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]) -> Placement:
        """Place VMs in :meth:`order_vms` order through
        :func:`~repro.placement.base.first_fit`, with the
        :class:`ReservationKernel` as its state."""
        with timed("queuing_ffd.place"):
            if not vms:
                return Placement(0, len(pms))
            mapping = explained_mapping(self, lambda: self.mapping_for(vms))
            kernel = ReservationKernel([p.capacity for p in pms], mapping.d,
                                       mapping.table)
            return first_fit(
                self, vms, len(pms), self.order_vms(vms), kernel,
                spread=self.spread,
                choose_for=getattr(self, "choose_for", None))


def explained_mapping(placer: Placer,
                      build: Callable[[], BlockMapping]) -> BlockMapping:
    """``build()``'s MapCal table.  With ``placer``'s explainer attached,
    every decision is stamped with the table's (rounded) switching
    probabilities, its fingerprint and whether building it hit the
    process-wide cache (no new misses = fully warm)."""
    explainer = placer.explainer
    if explainer is None:
        return build()
    misses_before = cache_stats()["misses"]
    mapping = build()
    explainer.set_inputs(
        p_on=mapping.p_on, p_off=mapping.p_off,
        table_fingerprint=table_fingerprint(mapping),
        cache_hit=cache_stats()["misses"] == misses_before,
        score_kind="reservation_headroom")
    return mapping
