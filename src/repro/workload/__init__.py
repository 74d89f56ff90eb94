"""Synthetic workload substrate.

- :mod:`repro.workload.onoff_generator` — vectorized ON-OFF demand traces
  for heterogeneous VM fleets (drives the Fig. 6 CVR evaluation).
- :mod:`repro.workload.patterns` — random instance generators for the
  paper's three workload patterns (R_b = R_e, R_b > R_e, R_b < R_e) and the
  Table I web-server specifications.
- :mod:`repro.workload.webserver` — request-level user/think-time workload
  (Fig. 8 / Section V-D), the paper's XCP web-server programs in simulation.
- :mod:`repro.workload.stats` — burstiness statistics (index of dispersion,
  peak-to-mean ratio).
"""

from repro.workload.onoff_generator import (
    demand_trace,
    ensemble_states,
    pm_load_trace,
)
from repro.workload.patterns import (
    PatternName,
    TABLE_I,
    TableIRow,
    generate_pattern_instance,
    make_pms,
    table_i_vms,
)
from repro.workload.webserver import WebServerWorkload, UserPool
from repro.workload.stats import index_of_dispersion, peak_to_mean_ratio
from repro.workload.estimation import (
    OnOffFit,
    classify_states,
    estimate_switch_probabilities,
    fit_fleet,
    fit_onoff,
    two_means_split,
)
from repro.workload.diurnal import (
    STANDARD_DAY,
    DiurnalSchedule,
    effective_q,
    ensemble_states_diurnal,
    phase_cvr,
)
from repro.workload.io import (
    load_instance,
    load_traces,
    save_instance,
    save_placement,
    save_traces,
)

__all__ = [
    "demand_trace",
    "ensemble_states",
    "pm_load_trace",
    "PatternName",
    "TABLE_I",
    "TableIRow",
    "generate_pattern_instance",
    "make_pms",
    "table_i_vms",
    "WebServerWorkload",
    "UserPool",
    "index_of_dispersion",
    "peak_to_mean_ratio",
    "OnOffFit",
    "classify_states",
    "estimate_switch_probabilities",
    "fit_fleet",
    "fit_onoff",
    "two_means_split",
    "STANDARD_DAY",
    "DiurnalSchedule",
    "effective_q",
    "ensemble_states_diurnal",
    "phase_cvr",
    "load_instance",
    "load_traces",
    "save_instance",
    "save_placement",
    "save_traces",
]
