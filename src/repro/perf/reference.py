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

:func:`save_checkpoint_v1` is the version 1 checkpoint writer: the
payload with every array a JSON list, which a version 2 file must restore
identically to, and the baseline of the columnar restore's speedup floor.

:func:`fit_onoff_reference` plays the same part for trace fitting: the
per-row estimator (two-means split, state classification, switch-count MLE)
that the row-batched :func:`repro.workload.estimation.fit_fleet` must match
bit for bit, and the baseline of its speedup floor in
``benchmarks/bench_perf_fastpath.py``.

:func:`capture_consolidator_v1` and :func:`restore_consolidator_v1` are the
per-VM capture and restore of an
:class:`~repro.core.online.OnlineConsolidator` in the version 1 layout (a
``vms`` dict of one dict per VM, re-added VM by VM with
:meth:`~repro.core.reservation.ReservationKernel.add`): the oracle of its
column capture and bulk restore, and the baseline of the bulk restore's
speedup floor.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.core.mapcal import mapcal_table, table_fingerprint
from repro.core.types import VMSpec
from repro.durable import Envelope
from repro.simulation.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    checkpoint_payload,
)
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


def save_checkpoint_v1(run, path: str | os.PathLike) -> Path:
    """Write ``run``'s checkpoint as format version 1: the payload of
    :func:`~repro.simulation.checkpoint.checkpoint_payload`, unpacked, in
    a version 1 envelope (what earlier builds' ``save_checkpoint`` wrote).
    """
    Envelope(CHECKPOINT_FORMAT, 1, error=CheckpointError).write(
        path, checkpoint_payload(run))
    return Path(path)


# ---------------------------------------------------------------------- #
# the online consolidator's state, one VM at a time
# ---------------------------------------------------------------------- #
def capture_consolidator_v1(consolidator) -> dict:
    """``consolidator``'s state in the version 1 layout, one dict per VM:
    what :meth:`~repro.core.online.OnlineConsolidator.capture_state` gives
    with its ``hosted`` columns turned into ``vms`` by
    :func:`repro.core.online.vms_of`."""
    mapping = None
    if consolidator._mapping is not None:
        mapping = {
            "p_on": consolidator._mapping.p_on,
            "p_off": consolidator._mapping.p_off,
            "rho": consolidator._mapping.rho,
            "d": consolidator._mapping.d,
            "fingerprint": table_fingerprint(consolidator._mapping),
        }
    vms = {}
    for vm_id, pm_idx in consolidator._locations.items():
        spec = consolidator._kernel.hosted[pm_idx][vm_id]
        vms[str(vm_id)] = {
            "pm": pm_idx,
            "p_on": spec.p_on, "p_off": spec.p_off,
            "r_base": spec.r_base, "r_extra": spec.r_extra,
        }
    return {
        "format": "online-consolidator",
        "version": 1,
        "next_id": consolidator._next_id,
        "recalibrate_noops": consolidator.recalibrate_noops,
        "pm_capacities": [p.capacity for p in consolidator._pms],
        "mapping": mapping,
        "vms": vms,
    }


def restore_consolidator_v1(consolidator, state: dict) -> None:
    """Reset ``consolidator`` to a :func:`capture_consolidator_v1` snapshot,
    re-adding its VMs in id order with ``ReservationKernel.add``."""
    if state.get("format") != "online-consolidator":
        raise ValueError(f"not a consolidator snapshot: {state.get('format')!r}")
    caps = [p.capacity for p in consolidator._pms]
    if list(state["pm_capacities"]) != caps:
        raise ValueError(
            "snapshot PM capacities do not match this fleet: "
            f"{state['pm_capacities']} != {caps}")
    consolidator._mapping = None
    consolidator._kernel = None
    consolidator._locations = {}
    if state["mapping"] is not None:
        m = state["mapping"]
        mapping = mapcal_table(int(m["d"]), float(m["p_on"]),
                               float(m["p_off"]), float(m["rho"]))
        got = table_fingerprint(mapping)
        if got != m["fingerprint"]:
            raise ValueError(
                f"rebuilt mapping fingerprint {got} != recorded "
                f"{m['fingerprint']}; MapCal configuration drifted")
        consolidator._set_mapping(mapping)
    for vm_id_str in sorted(state["vms"], key=int):
        rec = state["vms"][vm_id_str]
        vm_id = int(vm_id_str)
        spec = VMSpec(p_on=rec["p_on"], p_off=rec["p_off"],
                      r_base=rec["r_base"], r_extra=rec["r_extra"])
        consolidator._kernel.add(int(rec["pm"]), vm_id, spec)
        consolidator._locations[vm_id] = int(rec["pm"])
    consolidator._next_id = int(state["next_id"])
    consolidator.recalibrate_noops = int(state.get("recalibrate_noops", 0))
