"""Analysis of placements and simulation outputs.

- :mod:`repro.analysis.cvr` — empirical capacity-violation ratios from
  demand traces (the paper's Eq. 4 measured on simulation output).
- :mod:`repro.analysis.consolidation` — packing-quality metrics
  (PMs used, the PM reductions the abstract quotes).
- :mod:`repro.analysis.report` — experiment result containers and text
  rendering shared by the benchmark harness.
- :mod:`repro.analysis.availability` — per-VM availability ("nines"),
  MTTR and blast-radius statistics from failure-injected runs.
- :mod:`repro.analysis.regression` — run-to-run metric diffs over
  recorded telemetry traces (``python -m repro compare``).
"""

from repro.analysis.availability import (
    availability_report,
    blast_radius_stats,
    mean_time_to_repair,
    nines,
)
from repro.analysis.consolidation import pm_reduction_percent
from repro.analysis.cvr import cvr_from_loads, cvr_per_pm, evaluate_placement_cvr
from repro.analysis.fairness import (
    fairness_report,
    gini_coefficient,
    jains_index,
    max_share,
)
from repro.analysis.regression import (
    MetricDelta,
    regression_diff,
    summarize_observatory,
)
from repro.analysis.report import ExperimentResult, render_result

__all__ = [
    "availability_report",
    "blast_radius_stats",
    "mean_time_to_repair",
    "nines",
    "fairness_report",
    "gini_coefficient",
    "jains_index",
    "max_share",
    "pm_reduction_percent",
    "cvr_from_loads",
    "cvr_per_pm",
    "evaluate_placement_cvr",
    "ExperimentResult",
    "render_result",
    "MetricDelta",
    "regression_diff",
    "summarize_observatory",
]
