"""Fitting the paper's four-tuple ``(p_on, p_off, R_b, R_e)`` from traces.

The paper assumes each VM's ON-OFF parameters are known.  In practice they
must be estimated from monitoring data; this module closes that gap so the
consolidation pipeline can run end-to-end from raw demand traces:

1. **Level detection** — classify each sample as ON or OFF.  Two detectors:
   a threshold at the midpoint of a 2-means split of the demand values
   (:func:`two_means_split`), or a user-supplied threshold.
2. **Demand levels** — ``R_b`` = mean of OFF samples, ``R_p`` = mean of ON
   samples, ``R_e = R_p - R_b``.  A ``percentile_margin`` variant sizes the
   levels conservatively (e.g. 90th percentile of each regime) for
   provisioning use.
3. **Switch probabilities** — maximum-likelihood estimates from the state
   sequence: ``p_on = (#OFF->ON transitions) / (#time in OFF)`` and
   symmetrically for ``p_off`` (the MLE of a two-state chain's transition
   probabilities is the empirical transition frequency).

:func:`fit_onoff` bundles the three steps; :func:`fit_fleet` maps it across
a fleet of traces and returns ready-to-place :class:`~repro.core.types.VMSpec`
objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import VMSpec
from repro.utils.validation import check_in_range


@dataclass(frozen=True)
class OnOffFit:
    """Result of fitting an ON-OFF model to one trace.

    Attributes
    ----------
    p_on, p_off:
        MLE switch probabilities (clipped away from {0, 1} so the result is
        always a valid :class:`VMSpec`).
    r_base, r_extra:
        Demand levels (``R_e = R_p - R_b``; >= 0).
    threshold:
        The ON/OFF classification threshold used.
    on_fraction:
        Empirical fraction of samples classified ON.
    n_transitions:
        Total observed state switches — a confidence signal; fits with very
        few transitions are unreliable.
    log_likelihood:
        Log-likelihood of the fitted chain on the state sequence.
    """

    p_on: float
    p_off: float
    r_base: float
    r_extra: float
    threshold: float
    on_fraction: float
    n_transitions: int
    log_likelihood: float

    def to_vmspec(self) -> VMSpec:
        """The fitted four-tuple as a placeable :class:`VMSpec`."""
        return VMSpec(self.p_on, self.p_off, self.r_base, self.r_extra)


def two_means_split(trace: np.ndarray, *, max_iterations: int = 100) -> float:
    """Threshold separating a bimodal trace: midpoint of a 2-means split.

    Lloyd's algorithm on the scalar values with centroids initialized at the
    min and max.  For a genuinely two-level trace this converges to the two
    level means; the returned threshold is their midpoint.  A constant trace
    returns its single value (everything classifies OFF).
    """
    v = np.asarray(trace, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"trace must be a non-empty 1-D array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("trace must be finite")
    lo, hi = float(v.min()), float(v.max())
    if lo == hi:
        return lo
    c0, c1 = lo, hi
    for _ in range(max_iterations):
        mid = (c0 + c1) / 2.0
        low_mask = v <= mid
        n0 = float(low_mask.sum())
        if n0 == 0 or n0 == v.size:  # pragma: no cover - mid always splits
            break
        new_c0 = float(v[low_mask].mean())
        new_c1 = float(v[~low_mask].mean())
        if new_c0 == c0 and new_c1 == c1:
            break
        c0, c1 = new_c0, new_c1
    return (c0 + c1) / 2.0


def classify_states(trace: np.ndarray, threshold: float) -> np.ndarray:
    """0/1 state sequence: ON where the demand exceeds ``threshold``."""
    v = np.asarray(trace, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"trace must be 1-D, got shape {v.shape}")
    return (v > threshold).astype(np.int8)


def estimate_switch_probabilities(
    states: np.ndarray, *, clip: float = 1e-4
) -> tuple[float, float, int, float]:
    """MLE of ``(p_on, p_off)`` from a 0/1 state sequence.

    Returns ``(p_on, p_off, n_transitions, log_likelihood)``.  Estimates are
    clipped to ``[clip, 1 - clip]`` so downstream models remain well-posed
    when a regime never switches in the observation window.
    """
    s = np.asarray(states).astype(bool)
    if s.ndim != 1 or s.size < 2:
        raise ValueError("need a 1-D state sequence of length >= 2")
    check_in_range(clip, "clip", 0.0, 0.5)
    prev, curr = s[:-1], s[1:]
    off_time = int((~prev).sum())
    on_time = int(prev.sum())
    off_to_on = int((~prev & curr).sum())
    on_to_off = int((prev & ~curr).sum())
    p_on = off_to_on / off_time if off_time else clip
    p_off = on_to_off / on_time if on_time else clip
    p_on = float(np.clip(p_on, clip, 1.0 - clip))
    p_off = float(np.clip(p_off, clip, 1.0 - clip))
    # Log-likelihood of the transition sequence under the fitted chain.
    ll = (
        off_to_on * np.log(p_on)
        + (off_time - off_to_on) * np.log(1.0 - p_on)
        + on_to_off * np.log(p_off)
        + (on_time - on_to_off) * np.log(1.0 - p_off)
    )
    return p_on, p_off, off_to_on + on_to_off, float(ll)


def fit_onoff(
    trace: np.ndarray,
    *,
    threshold: float | None = None,
    percentile_margin: float | None = None,
    clip: float = 1e-4,
) -> OnOffFit:
    """Fit the full four-tuple to one demand trace.

    Parameters
    ----------
    trace:
        1-D demand samples, one per information-update interval.
    threshold:
        ON/OFF classification threshold; default: :func:`two_means_split`.
    percentile_margin:
        If given (e.g. 0.9), size ``R_b``/``R_p`` at this percentile of the
        respective regime's samples instead of the mean — a conservative
        choice for provisioning.  Must be in (0, 1).
    clip:
        Probability clipping for degenerate regimes.

    Returns
    -------
    OnOffFit
    """
    v = np.asarray(trace, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need a 1-D trace of length >= 2")
    if not np.all(np.isfinite(v)):
        raise ValueError("trace must be finite")
    thr = two_means_split(v) if threshold is None else float(threshold)
    states = classify_states(v, thr)
    p_on, p_off, n_trans, ll = estimate_switch_probabilities(states, clip=clip)

    off_samples = v[states == 0]
    on_samples = v[states == 1]
    if percentile_margin is not None:
        check_in_range(percentile_margin, "percentile_margin", 0.0, 1.0)
        q = percentile_margin * 100.0
        level = lambda x: float(np.percentile(x, q))  # noqa: E731
    else:
        level = lambda x: float(x.mean())  # noqa: E731

    r_base = level(off_samples) if off_samples.size else float(v.min())
    r_peak = level(on_samples) if on_samples.size else r_base
    r_extra = max(r_peak - r_base, 0.0)
    return OnOffFit(
        p_on=p_on,
        p_off=p_off,
        r_base=max(r_base, 0.0),
        r_extra=r_extra,
        threshold=thr,
        on_fraction=float(states.mean()),
        n_transitions=n_trans,
        log_likelihood=ll,
    )


def fit_fleet(traces: np.ndarray, **kwargs) -> list[OnOffFit]:
    """Fit every row of a ``(n_vms, T)`` trace matrix; kwargs as in
    :func:`fit_onoff`."""
    m = np.asarray(traces, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"traces must be 2-D (n_vms, T), got shape {m.shape}")
    return [fit_onoff(m[i], **kwargs) for i in range(m.shape[0])]
