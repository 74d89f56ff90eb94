"""Diurnal (time-varying) ON-OFF workloads.

Production spike rates are not stationary: flash crowds cluster in busy
hours.  This module makes the ON-OFF chain *nonhomogeneous* — ``p_on``
follows a periodic schedule while ``p_off`` stays constant (spike duration
is a property of the workload, not the clock) — so the paper's
stationarity assumption can be stress-tested:

- :class:`DiurnalSchedule` — a periodic piecewise-constant multiplier on
  the base ``p_on`` (e.g. quiet nights at 0.2x, busy afternoons at 3x);
- :func:`ensemble_states_diurnal` — vectorized fleet simulation under a
  schedule;
- :func:`effective_q` — the time-averaged and worst-hour stationary ON
  fractions, the two candidate sizing points for MapCal under diurnality.

Sizing guidance, verified by the diurnal ablation: sizing at the *average*
``q`` violates rho during busy hours; sizing at the *peak-hour* ``q``
restores the bound everywhere at the price of the off-peak headroom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.types import VMSpec, vm_arrays
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class DiurnalSchedule:
    """Periodic piecewise-constant multipliers on the base spike rate.

    Attributes
    ----------
    multipliers:
        One multiplier per phase; applied cyclically.
    phase_length:
        Intervals per phase.  The full period is
        ``len(multipliers) * phase_length`` intervals.
    """

    multipliers: tuple[float, ...]
    phase_length: int = 1

    def __post_init__(self) -> None:
        if not self.multipliers:
            raise ValueError("need at least one multiplier")
        if any(m < 0 or not np.isfinite(m) for m in self.multipliers):
            raise ValueError("multipliers must be finite and >= 0")
        if self.phase_length < 1:
            raise ValueError(f"phase_length must be >= 1, got {self.phase_length}")

    def multiplier_series(self, n_intervals: int) -> np.ndarray:
        """Vector of multipliers for intervals ``0..n_intervals-1``."""
        idx = (np.arange(n_intervals) // self.phase_length) % len(self.multipliers)
        return np.asarray(self.multipliers, dtype=float)[idx]

    @property
    def mean_multiplier(self) -> float:
        """Time-averaged multiplier over one period."""
        return float(np.mean(self.multipliers))

    @property
    def peak_multiplier(self) -> float:
        """Largest multiplier (the busy hour)."""
        return float(np.max(self.multipliers))


#: a plausible day at 30 s intervals compressed to 24 phases (one per "hour"):
#: quiet night, morning ramp, busy afternoon, evening taper
STANDARD_DAY = DiurnalSchedule(
    multipliers=(0.2, 0.2, 0.2, 0.2, 0.2, 0.4, 0.7, 1.0,
                 1.5, 2.0, 2.5, 3.0, 3.0, 2.5, 2.5, 2.0,
                 2.0, 1.5, 1.5, 1.0, 0.7, 0.4, 0.2, 0.2),
    phase_length=120,  # 120 x 30 s = one "hour"
)


def effective_q(vm: VMSpec, schedule: DiurnalSchedule) -> dict[str, float]:
    """Average and worst-hour stationary ON fractions under a schedule.

    ``q(t) = p_on(t) / (p_on(t) + p_off)`` treating each phase as locally
    stationary (valid when phases are much longer than the mixing time).
    Multipliers are clipped so ``p_on(t) <= 1``.
    """
    out: dict[str, float] = {}
    for key, mult in (("mean", schedule.mean_multiplier),
                      ("peak", schedule.peak_multiplier)):
        p_on_t = min(vm.p_on * mult, 1.0)
        out[key] = p_on_t / (p_on_t + vm.p_off) if p_on_t > 0 else 0.0
    return out


def ensemble_states_diurnal(
    vms: Sequence[VMSpec],
    schedule: DiurnalSchedule,
    n_steps: int,
    *,
    seed: SeedLike = None,
) -> np.ndarray:
    """Simulate a fleet's ON/OFF states under a diurnal spike-rate schedule.

    Identical contract to
    :func:`repro.workload.onoff_generator.ensemble_states` (all-OFF start,
    boolean output of shape ``(n_vms, n_steps + 1)``), except each step
    scales every VM's ``p_on`` by the schedule's multiplier at that step.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    arrays = vm_arrays(vms)
    p_on, p_off = arrays["p_on"], arrays["p_off"]
    n = len(vms)
    rng = as_generator(seed)
    mults = schedule.multiplier_series(n_steps)
    states = np.empty((n, n_steps + 1), dtype=bool)
    states[:, 0] = False
    current = states[:, 0].copy()
    for t in range(n_steps):
        u = rng.random(n)
        p_on_t = np.minimum(p_on * mults[t], 1.0)
        current = np.where(current, u >= p_off, u < p_on_t)
        states[:, t + 1] = current
    return states


def phase_cvr(loads: np.ndarray, capacities: np.ndarray,
              schedule: DiurnalSchedule) -> dict[float, float]:
    """Mean PM CVR per schedule phase multiplier.

    Groups the ``(n_pms, T)`` load trace's columns by the multiplier in
    effect and reports the violation fraction within each group — the
    "CVR by hour of day" view.
    """
    loads = np.asarray(loads, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    check_positive(float(capacities.min()), "capacities")
    T = loads.shape[1]
    mults = schedule.multiplier_series(T)
    violated = loads > capacities[:, None] + 1e-9
    out: dict[float, float] = {}
    for m in sorted(set(schedule.multipliers)):
        cols = mults == m
        if cols.any():
            out[float(m)] = float(violated[:, cols].mean())
    return out
