"""The scalar reference tick: per-VM/per-PM Python loops, bit-for-bit.

:class:`ScalarReferenceDatacenter` re-implements every per-interval query
of :class:`~repro.simulation.datacenter.Datacenter` as explicit Python
loops — one VM, one PM at a time — while consuming randomness identically
(one ``rng.random(n_vms)`` draw vector per interval, same comparisons).
Floating-point accumulation follows the exact VM-index order NumPy's
unbuffered ``np.add.at`` scatter-add uses, so a scenario run on the scalar
path produces a **bit-identical** :class:`~repro.simulation.scenario.ScenarioReport`
to the vectorized fast path.

That makes it two things at once:

- the *correctness oracle* for the vectorized tick (see
  ``tests/test_perf_parity.py``: 20 random seed/config pairs must match
  exactly, including migrations, CVR, fairness and failure accounting);
- the *baseline* the "≥3x at 200 VMs" speedup claim in
  ``benchmarks/bench_perf_fastpath.py`` and ``docs/PERFORMANCE.md`` is
  measured against.

Select it end-to-end with ``Scenario(..., tick_mode="scalar")``.

:func:`fit_onoff_reference` plays the same part for trace fitting: the
per-row estimator (two-means split, state classification, switch-count MLE)
that the row-batched :func:`repro.workload.estimation.fit_fleet` must match
bit for bit, and the baseline of its speedup floor in
``benchmarks/bench_perf_fastpath.py``.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.datacenter import _EPS, Datacenter, _frozen
from repro.telemetry import timed
from repro.utils.validation import check_in_range
from repro.workload.estimation import CLIP, OnOffFit


class ScalarReferenceDatacenter(Datacenter):
    """Drop-in :class:`Datacenter` with a pure-Python per-VM tick path."""

    # -------------------------------------------------------------- #
    # dynamics
    # -------------------------------------------------------------- #
    def step(self) -> None:
        """Advance each VM's chain with an explicit per-VM loop.

        Draws the same per-interval random vector as the vectorized path
        (identical RNG stream position) and applies the same comparison
        per VM, so the resulting ON/OFF trajectory is bit-identical.
        """
        with timed("datacenter.step"):
            u = self._rng.random(self.n_vms)
            on = self._on
            new = np.empty_like(on)
            for i in range(self.n_vms):
                if on[i]:
                    new[i] = u[i] >= self._p_off[i]
                else:
                    new[i] = u[i] < self._p_on[i]
            self._on = _frozen(new)
            self._invalidate()

    # -------------------------------------------------------------- #
    # queries
    # -------------------------------------------------------------- #
    def vm_demands(self) -> np.ndarray:
        """Per-VM served demand, one VM at a time."""
        out = np.empty(self.n_vms)
        for i in range(self.n_vms):
            spiking = bool(self._on[i]) and not bool(self._throttled[i])
            out[i] = self._r_base[i] + (self._r_extra[i] if spiking else 0.0)
        return out

    def vm_full_demands(self) -> np.ndarray:
        """Per-VM wanted demand (throttling ignored), one VM at a time."""
        out = np.empty(self.n_vms)
        for i in range(self.n_vms):
            out[i] = self._r_base[i] + (self._r_extra[i] if self._on[i]
                                        else 0.0)
        return out

    def pm_loads(self) -> np.ndarray:
        """Aggregate demand per PM via a scalar scatter loop.

        Accumulates in ascending VM-index order — the same float addition
        sequence ``np.add.at`` performs — so sums match bit-for-bit.
        """
        demands = self.vm_demands()
        assignment = self.placement.assignment
        loads = np.zeros(self.n_pms)
        for vm_id in range(self.n_vms):
            loads[assignment[vm_id]] += demands[vm_id]
        return loads

    def pm_base_loads(self) -> np.ndarray:
        """Aggregate base demand per PM via a scalar scatter loop."""
        assignment = self.placement.assignment
        loads = np.zeros(self.n_pms)
        for vm_id in range(self.n_vms):
            loads[assignment[vm_id]] += self._r_base[vm_id]
        return loads

    def hosted_counts(self) -> np.ndarray:
        """VMs per PM via a per-VM walk of the assignment."""
        counts = [0] * self.n_pms
        for pm_id in self.placement.assignment.tolist():
            counts[pm_id] += 1
        return np.array(counts, dtype=np.int64)

    def pm_used_mask(self) -> np.ndarray:
        """Powered-on mask: the distinct hosts in the assignment."""
        hosts = set(self.placement.assignment.tolist())
        return np.array([j in hosts for j in range(self.n_pms)], dtype=bool)

    def overloaded_pms(self) -> np.ndarray:
        """Violated PM indices via a per-PM Python scan."""
        loads = self.pm_loads()
        hits = [j for j in range(self.n_pms)
                if loads[j] > self._caps[j] + _EPS]
        return np.array(hits, dtype=np.int64)

    def used_pm_count(self) -> int:
        """Powered-on PM count: the distinct hosts in the assignment."""
        return len(set(self.placement.assignment.tolist()))


# ---------------------------------------------------------------------- #
# trace fitting, one row at a time
# ---------------------------------------------------------------------- #
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
        if n0 == 0 or n0 == v.size:
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
    states: np.ndarray,
) -> tuple[float, float, int, float]:
    """MLE of ``(p_on, p_off)`` from a 0/1 state sequence.

    Returns ``(p_on, p_off, n_transitions, log_likelihood)``.  Estimates are
    clipped to ``[CLIP, 1 - CLIP]`` so downstream models remain well-posed
    when a regime never switches in the observation window.
    """
    s = np.asarray(states).astype(bool)
    if s.ndim != 1 or s.size < 2:
        raise ValueError("need a 1-D state sequence of length >= 2")
    prev, curr = s[:-1], s[1:]
    off_time = int((~prev).sum())
    on_time = int(prev.sum())
    off_to_on = int((~prev & curr).sum())
    on_to_off = int((prev & ~curr).sum())
    p_on = off_to_on / off_time if off_time else CLIP
    p_off = on_to_off / on_time if on_time else CLIP
    p_on = float(np.clip(p_on, CLIP, 1.0 - CLIP))
    p_off = float(np.clip(p_off, CLIP, 1.0 - CLIP))
    # Log-likelihood of the transition sequence under the fitted chain.
    ll = (
        off_to_on * np.log(p_on)
        + (off_time - off_to_on) * np.log(1.0 - p_on)
        + on_to_off * np.log(p_off)
        + (on_time - on_to_off) * np.log(1.0 - p_off)
    )
    return p_on, p_off, off_to_on + on_to_off, float(ll)


def fit_onoff_reference(trace: np.ndarray, *,
                        percentile_margin: float | None = None) -> OnOffFit:
    """Fit the full four-tuple to one demand trace, one row at a time.

    The oracle :func:`repro.workload.estimation.fit_fleet` is checked
    against: the same fit, row for row and bit for bit.
    """
    v = np.asarray(trace, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need a 1-D trace of length >= 2")
    if not np.all(np.isfinite(v)):
        raise ValueError("trace must be finite")
    thr = two_means_split(v)
    states = classify_states(v, thr)
    p_on, p_off, n_trans, ll = estimate_switch_probabilities(states)

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
