"""Burstiness statistics over workload traces.

Used to characterize generated traces (Fig. 8): how far a trace's
burstiness departs from a steady (Poisson-like) load.
"""

from __future__ import annotations

import numpy as np


def _as_1d(trace: np.ndarray, name: str = "trace") -> np.ndarray:
    t = np.asarray(trace, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D array, got shape {t.shape}")
    return t


def index_of_dispersion(trace: np.ndarray) -> float:
    """Variance-to-mean ratio of a (count) trace; > 1 indicates burstiness."""
    t = _as_1d(trace)
    mean = t.mean()
    if mean == 0:
        return 0.0
    return float(t.var() / mean)


def peak_to_mean_ratio(trace: np.ndarray) -> float:
    """Max over mean of the trace (infinite-mean-safe: returns 0 for all-zero)."""
    t = _as_1d(trace)
    mean = t.mean()
    if mean == 0:
        return 0.0
    return float(t.max() / mean)
