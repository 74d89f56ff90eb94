"""Burstiness statistics over workload traces.

Used to characterize generated traces (Fig. 8) and to verify that the ON-OFF
generators actually produce the burstiness the paper's model promises
(spike frequency ``p_on``, duration ``1/p_off``).
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


def burst_lengths(states: np.ndarray) -> np.ndarray:
    """Lengths of maximal runs of ON (truthy) intervals in a 0/1 trace.

    Returns an empty array if the trace never turns ON.  Runs touching the
    trace boundary are counted as-is (right-censoring is negligible for the
    long traces used in the experiments).
    """
    s = np.asarray(states).astype(bool)
    if s.ndim != 1:
        raise ValueError(f"states must be 1-D, got shape {s.shape}")
    if s.size == 0:
        return np.empty(0, dtype=np.int64)
    padded = np.concatenate(([False], s, [False])).astype(np.int8)
    diff = np.diff(padded)
    starts = np.flatnonzero(diff == 1)
    ends = np.flatnonzero(diff == -1)
    return (ends - starts).astype(np.int64)


def mean_burst_length(states: np.ndarray) -> float:
    """Average ON-run length; 0.0 if the trace never turns ON."""
    lengths = burst_lengths(states)
    return float(lengths.mean()) if lengths.size else 0.0
