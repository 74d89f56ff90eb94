"""Linear PM power model.

The paper uses "PMs used at the end of the evaluation period" as the energy
proxy; this model refines it into watt-level accounting for the energy
ablation: a powered-on PM draws ``idle_power`` plus a load-proportional term
up to ``peak_power`` at full utilization (the standard linear server model).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_non_negative, check_positive


class EnergyModel:
    """Linear power model ``P(u) = idle + (peak - idle) * u`` for ``u`` in [0, 1].

    Parameters
    ----------
    idle_power:
        Watts drawn by a powered-on but idle PM.
    peak_power:
        Watts at 100% utilization; must be >= idle_power.
    """

    def __init__(self, idle_power: float = 150.0, peak_power: float = 300.0):
        self.idle_power = check_non_negative(idle_power, "idle_power")
        self.peak_power = check_positive(peak_power, "peak_power")
        if self.peak_power < self.idle_power:
            raise ValueError(
                f"peak_power ({peak_power}) must be >= idle_power ({idle_power})"
            )

    def fleet_power(self, loads: np.ndarray, capacities: np.ndarray,
                    powered_on: np.ndarray) -> float:
        """Total instantaneous power of the fleet (vectorized)."""
        loads = np.asarray(loads, dtype=float)
        capacities = np.asarray(capacities, dtype=float)
        powered_on = np.asarray(powered_on, dtype=bool)
        if not (loads.shape == capacities.shape == powered_on.shape):
            raise ValueError("loads, capacities and powered_on must share a shape")
        util = np.clip(loads / capacities, 0.0, 1.0)
        per_pm = self.idle_power + (self.peak_power - self.idle_power) * util
        return float(per_pm[powered_on].sum())

    def run_energy(self, pms_used_series: np.ndarray, *, interval_seconds: float,
                   mean_utilization: float = 0.5) -> float:
        """Approximate energy (joules) of a run from the PMs-used series.

        Uses the mean utilization for the proportional term; exact accounting
        would need per-interval loads, which :class:`Monitor` does not retain
        to keep memory flat.
        """
        check_positive(interval_seconds, "interval_seconds")
        if not 0.0 <= mean_utilization <= 1.0:
            raise ValueError(
                f"mean_utilization must be in [0, 1], got {mean_utilization}"
            )
        series = np.asarray(pms_used_series, dtype=float)
        per_pm_power = (
            self.idle_power
            + (self.peak_power - self.idle_power) * mean_utilization
        )
        return float(series.sum() * per_pm_power * interval_seconds)
