"""Fitting the paper's four-tuple ``(p_on, p_off, R_b, R_e)`` from traces.

The paper assumes each VM's ON-OFF parameters are known.  In practice they
must be estimated from monitoring data; this module closes that gap so the
consolidation pipeline can run end-to-end from raw demand traces:

1. **Level detection** — classify each sample as ON or OFF at the midpoint
   of a 2-means split of the demand values (Lloyd's algorithm on the
   scalar values, centroids initialized at the min and max; a constant
   trace classifies everything OFF).
2. **Demand levels** — ``R_b`` = mean of OFF samples, ``R_p`` = mean of ON
   samples, ``R_e = R_p - R_b``.  A ``percentile_margin`` variant sizes the
   levels conservatively (e.g. 90th percentile of each regime) for
   provisioning use.
3. **Switch probabilities** — maximum-likelihood estimates from the state
   sequence: ``p_on = (#OFF->ON transitions) / (#time in OFF)`` and
   symmetrically for ``p_off`` (the MLE of a two-state chain's transition
   probabilities is the empirical transition frequency), clipped to
   ``[CLIP, 1 - CLIP]``.

:func:`fit_fleet` runs the three steps on every row of a trace matrix at
once and :func:`fit_onoff` is its one-row call.  Each row's result is
bit-identical to fitting that row alone with the per-row loop kept as
:func:`repro.perf.reference.fit_onoff_reference`: every mean of a regime's
samples is summed over rows grouped by sample count, so each row's
compacted samples go through numpy's pairwise sum in the same order as the
1-D ``mean()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import VMSpec
from repro.utils.validation import check_in_range

#: switch probabilities are clipped to ``[CLIP, 1 - CLIP]`` so a regime that
#: never switches in the window still gives a valid :class:`VMSpec`
CLIP = 1e-4

#: Lloyd iteration cap of the two-means split
_MAX_ITERATIONS = 100

#: trace samples one grouped reduction copies at most (2 MB of float64)
_CHUNK = 1 << 18


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


def _mean(x: np.ndarray) -> np.ndarray:
    return x.sum(axis=1) / x.shape[1]


def _split_levels(m, first, rows, counts, level):
    """``level`` of the samples of each of ``rows`` in ``first`` and not in it.

    ``first`` is a bool mask over the whole matrix and ``counts[i]`` its
    count on row ``rows[i]``.  Rows are grouped by that count, so each
    group's samples compact to a ``(k, count)`` block whose rows reduce
    exactly as the 1-D compacted row would.  Returns two arrays aligned with
    ``rows``; a side with no samples is NaN.
    """
    T = m.shape[1]
    lo_side = np.full(rows.size, np.nan)
    hi_side = np.full(rows.size, np.nan)
    order = np.argsort(counts, kind="stable")
    ordered = counts[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=-1)).tolist()
    step = max(1, _CHUNK // T)
    for a, b in zip(starts, starts[1:] + [order.size]):
        c = int(ordered[a])
        for s in range(a, b, step):
            j = order[s:min(s + step, b)]
            g = rows[j]
            sub, mask = m[g], first[g]
            if c:
                lo_side[j] = level(sub[mask].reshape(j.size, c))
            if c < T:
                hi_side[j] = level(sub[~mask].reshape(j.size, T - c))
    return lo_side, hi_side


def _fit_rows(m: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              percentile_margin: float | None) -> list[OnOffFit]:
    """The estimator on every row of a finite ``(n, T)`` matrix, ``T >= 2``,
    given each row's min ``lo`` and max ``hi``."""
    n, T = m.shape

    # -- two-means split (Lloyd), all still-moving rows in one pass ------ #
    c0, c1 = lo.copy(), hi.copy()
    thr = lo.copy()  # a constant row keeps its value as the threshold
    off_mean, on_mean = np.empty(n), np.empty(n)
    known = np.zeros(n, dtype=bool)  # rows whose regime means are computed
    rows = np.flatnonzero(lo != hi)
    last_low = np.full(n, -1)  # each row's low-side count at its last pass
    cut = np.full(n, -np.inf)
    mask = np.empty((n, T), dtype=bool)
    for _ in range(_MAX_ITERATIONS):
        if not rows.size:
            break
        mid = (c0[rows] + c1[rows]) / 2.0
        cut[rows] = mid
        np.less_equal(m, cut[:, None], out=mask)
        n_low = mask[rows].sum(axis=1)
        # a cut that leaves one side empty ends the row at that cut
        splits = (n_low > 0) & (n_low < T)
        thr[rows[~splits]] = mid[~splits]
        rows, mid, n_low = rows[splits], mid[splits], n_low[splits]
        # A row's low sides over its passes are {v <= cut}, so they nest:
        # an unchanged count is an unchanged side, whose means are the
        # c0, c1 its last pass computed.
        new0, new1 = c0[rows], c1[rows]
        moved = n_low != last_low[rows]
        new0[moved], new1[moved] = _split_levels(m, mask, rows[moved],
                                                 n_low[moved], _mean)
        last_low[rows] = n_low
        # converged: the threshold is this pass's cut, so this pass's means
        # are the OFF and ON means
        conv = (new0 == c0[rows]) & (new1 == c1[rows])
        done = rows[conv]
        thr[done] = mid[conv]
        off_mean[done], on_mean[done] = new0[conv], new1[conv]
        known[done] = True
        c0[rows], c1[rows] = new0, new1
        rows = rows[~conv]
    thr[rows] = (c0[rows] + c1[rows]) / 2.0

    # -- states and switch counts ---------------------------------------- #
    on = np.greater(m, thr[:, None], out=mask)
    n_on = on.sum(axis=1)
    first, last = on[:, 0], on[:, -1]
    n_trans = (on[:, 1:] != on[:, :-1]).sum(axis=1)
    # up- minus down-crossings of a 0/1 sequence is its last minus first
    ups = (n_trans + last - first) // 2
    downs = n_trans - ups
    on_time = n_on - last
    off_time = (T - 1) - on_time
    p_on = np.clip(np.where(off_time > 0, ups / np.maximum(off_time, 1), CLIP),
                   CLIP, 1.0 - CLIP)
    p_off = np.clip(np.where(on_time > 0, downs / np.maximum(on_time, 1), CLIP),
                    CLIP, 1.0 - CLIP)
    ll = (ups * np.log(p_on) + (off_time - ups) * np.log(1.0 - p_on)
          + downs * np.log(p_off) + (on_time - downs) * np.log(1.0 - p_off))

    # -- demand levels ---------------------------------------------------- #
    off = np.logical_not(on, out=mask)
    n_off = T - n_on
    if percentile_margin is None:
        level, off_level, on_level = _mean, off_mean, on_mean
        rows = np.flatnonzero(~known)
    else:
        q = percentile_margin * 100.0

        def level(x):
            return np.percentile(x, q, axis=1)

        off_level, on_level = np.empty(n), np.empty(n)
        rows = np.arange(n)
    off_level[rows], on_level[rows] = _split_levels(m, off, rows, n_off[rows],
                                                    level)
    r_base = np.where(n_off > 0, off_level, lo)
    r_peak = np.where(n_on > 0, on_level, r_base)
    r_extra = r_peak - r_base
    # ``max(x, 0.0)`` of each row: x unless 0.0 is larger
    r_extra = np.where(r_extra < 0.0, 0.0, r_extra)
    r_base = np.where(r_base < 0.0, 0.0, r_base)
    return [OnOffFit(*row) for row in zip(
        p_on.tolist(), p_off.tolist(), r_base.tolist(), r_extra.tolist(),
        thr.tolist(), (n_on / T).tolist(), n_trans.tolist(), ll.tolist())]


def fit_fleet(traces: np.ndarray, *,
              percentile_margin: float | None = None) -> list[OnOffFit]:
    """Fit the four-tuple to every row of a ``(n_vms, T)`` trace matrix.

    Parameters
    ----------
    traces:
        Demand samples, one row per VM and one column per
        information-update interval.
    percentile_margin:
        If given (e.g. 0.9), size ``R_b``/``R_p`` at this percentile of the
        respective regime's samples instead of the mean — a conservative
        choice for provisioning.  Must be in [0, 1].

    Returns
    -------
    list[OnOffFit]
        One fit per row, in row order.
    """
    m = np.asarray(traces, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"traces must be 2-D (n_vms, T), got shape {m.shape}")
    if m.shape[1] < 2:
        raise ValueError("need a 1-D trace of length >= 2")
    # min and max propagate NaN, and an infinity is a row's min or max
    lo, hi = m.min(axis=1), m.max(axis=1)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("trace must be finite")
    if percentile_margin is not None:
        check_in_range(percentile_margin, "percentile_margin", 0.0, 1.0)
    return _fit_rows(m, lo, hi, percentile_margin)


def fit_onoff(trace: np.ndarray, *,
              percentile_margin: float | None = None) -> OnOffFit:
    """Fit the four-tuple to one demand trace: :func:`fit_fleet` of one row."""
    v = np.asarray(trace, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need a 1-D trace of length >= 2")
    return fit_fleet(v[None, :], percentile_margin=percentile_margin)[0]
