"""Packing-quality metrics.

The abstract's headline numbers — "improve the consolidation ratio by up to
45% with large spike size and around 30% with normal spike size compared to
provisioning for peak workload" — are PM-count reductions relative to the RP
baseline; these helpers compute them uniformly across experiments.
"""

from __future__ import annotations

from repro.core.types import Placement


def pm_reduction_percent(candidate: Placement, baseline: Placement) -> float:
    """Percent fewer PMs the candidate uses vs the baseline.

    Positive values mean the candidate packs tighter; e.g. the paper reports
    QUEUE at +30..45% vs RP depending on spike size.
    """
    base = baseline.n_used_pms
    if base == 0:
        raise ValueError("baseline placement uses no PMs")
    return 100.0 * (base - candidate.n_used_pms) / base
