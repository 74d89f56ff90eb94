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
"""

from __future__ import annotations

import numpy as np

from repro.simulation.datacenter import _EPS, Datacenter, _frozen
from repro.telemetry import timed


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
