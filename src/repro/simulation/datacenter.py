"""Runtime state of the simulated datacenter.

Each VM carries its spec and current ON/OFF state; *local resizing* is
modelled as instantaneous (the paper: "local resizing adaptively adjusts VM
configuration ... with neglectable time and resource overheads"), so a VM's
allocation always equals its demand and a PM's load is the sum of hosted
demands.  Capacity overflow (load > capacity) is what triggers the dynamic
scheduler.

The fleet is held only as arrays: the assignment, a per-PM hosted count,
the capacities, the ON and throttle masks and the per-VM parameters, plus
the instance as two spec tuples.  Served demands and PM loads are computed
at most once per fleet state and handed out read-only; every mutator drops
them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.types import Placement, PMSpec, VMSpec
from repro.telemetry import timed
from repro.utils.rng import (
    SeedLike,
    as_generator,
    capture_rng_state,
    restore_rng_state,
)

_EPS = 1e-9


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark ``arr`` read-only and return it."""
    arr.flags.writeable = False
    return arr


def _with(arr: np.ndarray, idx: int, value: bool) -> np.ndarray:
    """A read-only copy of ``arr`` with ``arr[idx] = value``."""
    out = arr.copy()
    out[idx] = value
    return _frozen(out)


class Datacenter:
    """The fleet: placement, ON/OFF state and the demands they imply.

    Parameters
    ----------
    vms, pms:
        Problem instance, kept as the tuples :attr:`vm_specs` and
        :attr:`pm_specs`.
    placement:
        Initial complete placement (from any placer).  The datacenter keeps
        its own copy as :attr:`placement`; only :meth:`migrate` and
        :meth:`restore_state` may change it.
    seed:
        RNG for the ON-OFF evolution.
    start_stationary:
        Draw initial ON/OFF states from each VM's stationary law; the paper
        starts all VMs at OFF, which is the default here too.
    """

    def __init__(self, vms: Sequence[VMSpec], pms: Sequence[PMSpec],
                 placement: Placement, *, seed: SeedLike = None,
                 start_stationary: bool = False):
        if placement.n_vms != len(vms) or placement.n_pms != len(pms):
            raise ValueError(
                f"placement is for {placement.n_vms} VMs x {placement.n_pms} PMs "
                f"but instance has {len(vms)} x {len(pms)}"
            )
        if not placement.all_placed:
            raise ValueError("initial placement must place every VM")
        self._rng = as_generator(seed)
        self.vm_specs: tuple[VMSpec, ...] = tuple(vms)
        self.pm_specs: tuple[PMSpec, ...] = tuple(pms)
        self._adopt(placement.copy())
        # Per-VM/per-PM parameter arrays for the vectorized tick.
        self._p_on = np.array([v.p_on for v in vms])
        self._p_off = np.array([v.p_off for v in vms])
        self._r_base = _frozen(np.array([v.r_base for v in vms]))
        self._r_extra = _frozen(np.array([v.r_extra for v in vms]))
        self._caps = _frozen(np.array([p.capacity for p in pms], dtype=float))
        # The *assumed* law, frozen from the specs at construction: the
        # stationary ON probability MapCal consolidated against, and the
        # asymptotic per-interval variance rate of the ON-state occupation
        # time including the Markov autocorrelation inflation
        # (1 + r) / (1 - r), r = 1 - p_on - p_off.  These stay fixed even
        # when set_switch_probabilities() drifts the actual dynamics —
        # that gap is exactly what the drift detector measures.
        self._assumed_p_on = self._p_on.copy()
        self._assumed_p_off = self._p_off.copy()
        self._recompute_assumed()
        self._throttled = _frozen(np.zeros(len(vms), dtype=bool))
        on = np.zeros(len(vms), dtype=bool)
        if start_stationary and len(vms):
            on = self._rng.random(len(vms)) < self._q_assumed
        self._on = _frozen(on)

    def _adopt(self, placement: Placement) -> None:
        """Take ``placement`` as the fleet's own and recount the PMs."""
        self.placement = placement
        self._hosted = np.bincount(placement.assignment,
                                   minlength=self.n_pms)
        self._hosted_view = _frozen(self._hosted.view())
        self._invalidate()

    def _invalidate(self) -> None:
        """Drop the cached demand and load vectors (the fleet changed)."""
        self._demands = None
        self._loads = None

    def _check_vm(self, vm_id: int) -> None:
        if not 0 <= vm_id < self.n_vms:
            raise ValueError(f"vm_id must be in [0, {self.n_vms}), got {vm_id}")

    def _recompute_assumed(self) -> None:
        """Refresh ``_q_assumed``/``_var_rate_assumed`` from the assumed
        switch probabilities (see the inflation note in ``__init__``)."""
        p_on, p_off = self._assumed_p_on, self._assumed_p_off
        q = p_on / (p_on + p_off)
        r = np.clip(1.0 - p_on - p_off, 0.0, 1.0 - 1e-12)
        self._q_assumed = q
        self._var_rate_assumed = q * (1.0 - q) * (1.0 + r) / (1.0 - r)

    # ------------------------------------------------------------------ #
    # dynamics
    # ------------------------------------------------------------------ #
    def step(self) -> None:
        """Advance every VM's ON-OFF chain by one interval (vectorized).

        One RNG draw vector per interval; the fleet-wide transition is a
        single masked update.
        """
        with timed("datacenter.step"):
            u = self._rng.random(self.n_vms)
            self._on = _frozen(
                np.where(self._on, u >= self._p_off, u < self._p_on))
            self._invalidate()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def n_vms(self) -> int:
        """Number of VMs."""
        return len(self.vm_specs)

    @property
    def n_pms(self) -> int:
        """Number of PMs in the fleet (used or idle)."""
        return len(self.pm_specs)

    def vm_demands(self) -> np.ndarray:
        """Current *served* demand of every VM (cached, read-only).

        A throttled VM is served at ``R_b`` regardless of its ON/OFF state
        (graceful degradation); see :meth:`set_throttle`.
        """
        if self._demands is None:
            self._demands = _frozen(
                self._r_base + self._r_extra * (self._on & ~self._throttled))
        return self._demands

    def vm_full_demands(self) -> np.ndarray:
        """Demand every VM *wants* right now, ignoring throttling."""
        return self._r_base + self._r_extra * self._on

    def pm_loads(self) -> np.ndarray:
        """Aggregate demand of every PM (cached, read-only).

        A full scatter-add in VM-index order on each fleet change, never an
        incremental sum, so every caller sees the same float sums.
        """
        if self._loads is None:
            loads = np.zeros(self.n_pms)
            np.add.at(loads, self.placement.assignment, self.vm_demands())
            self._loads = _frozen(loads)
        return self._loads

    def pm_capacities(self) -> np.ndarray:
        """Per-PM capacity vector (cached, read-only — specs are frozen)."""
        return self._caps

    def hosted_counts(self) -> np.ndarray:
        """Number of VMs on each PM (read-only).

        :meth:`migrate` updates the counts in place; the hosted ids
        themselves are ``placement.vms_on(pm)``, in ascending order.
        """
        return self._hosted_view

    def pm_used_mask(self) -> np.ndarray:
        """Boolean mask of powered-on (non-empty) PMs."""
        return self._hosted > 0

    def overloaded_pms(self) -> np.ndarray:
        """PM indices whose load currently exceeds capacity."""
        return np.flatnonzero(self.pm_loads() > self._caps + _EPS)

    def used_pm_count(self) -> int:
        """Number of powered-on (non-empty) PMs."""
        return int(np.count_nonzero(self._hosted))

    def pm_base_loads(self) -> np.ndarray:
        """Aggregate *base* (OFF-state) demand per PM — spike-independent."""
        loads = np.zeros(self.n_pms)
        np.add.at(loads, self.placement.assignment, self._r_base)
        return loads

    def on_states(self) -> np.ndarray:
        """Copy of the per-VM ON mask (raw burst state, throttling ignored)."""
        return self._on.copy()

    def assumed_on_probability(self) -> np.ndarray:
        """Per-VM stationary ON probability of the *spec-time* model.

        Frozen at construction: :meth:`set_switch_probabilities` shifts the
        simulated dynamics but never this array, so observers comparing
        observed ON-fractions against it see exactly the model mismatch.
        """
        return self._q_assumed.copy()

    def assumed_on_variance_rate(self) -> np.ndarray:
        """Per-VM, per-interval variance rate of the assumed ON occupation.

        ``q (1 - q) (1 + r) / (1 - r)`` with ``r = 1 - p_on - p_off`` — the
        asymptotic variance of the two-state chain's occupation time, i.e.
        the binomial variance inflated for serial correlation.  Summing it
        over a window yields the null variance a chi-square drift statistic
        must normalize by.
        """
        return self._var_rate_assumed.copy()

    # ------------------------------------------------------------------ #
    # mutation (used by the scheduler)
    # ------------------------------------------------------------------ #
    def set_switch_probabilities(self, vm_ids: Sequence[int], *,
                                 p_on: float | None = None,
                                 p_off: float | None = None) -> None:
        """Shift the *actual* ON-OFF dynamics of some VMs mid-run.

        Models workload drift: the VMs keep the specs their placement was
        computed from (so reservations, expected demands, and the assumed
        law reported by :meth:`assumed_on_probability` are unchanged) but
        their simulated chains switch with the new probabilities from the
        next :meth:`step` on.  This is the injection knob the drift
        detector is validated against.
        """
        for vm_id in vm_ids:
            self._check_vm(vm_id)
        ids = np.asarray(list(vm_ids), dtype=np.int64)
        if p_on is not None:
            if not 0.0 < p_on <= 1.0:
                raise ValueError(f"p_on must be in (0, 1], got {p_on}")
            self._p_on[ids] = p_on
        if p_off is not None:
            if not 0.0 < p_off <= 1.0:
                raise ValueError(f"p_off must be in (0, 1], got {p_off}")
            self._p_off[ids] = p_off

    def set_assumed_law(self, p_on: Sequence[float],
                        p_off: Sequence[float]) -> None:
        """Replace the fleet's *assumed* ON-OFF law (autopilot refit commit).

        The dual of :meth:`set_switch_probabilities`: the actual simulated
        dynamics are untouched, but the null hypothesis the drift detector
        tests against — and the expectations reported through
        :meth:`assumed_on_probability` / :meth:`assumed_on_variance_rate` —
        are recomputed from the refitted per-VM ``(p_on, p_off)``.
        """
        on = np.asarray(list(p_on), dtype=float)
        off = np.asarray(list(p_off), dtype=float)
        if on.shape != (self.n_vms,) or off.shape != (self.n_vms,):
            raise ValueError(
                f"assumed law needs {self.n_vms} (p_on, p_off) pairs, got "
                f"shapes {on.shape} and {off.shape}"
            )
        for name, arr in (("p_on", on), ("p_off", off)):
            if not np.all((arr > 0.0) & (arr <= 1.0)):
                raise ValueError(f"assumed {name} must be in (0, 1]")
        self._assumed_p_on = on
        self._assumed_p_off = off
        self._recompute_assumed()

    def set_throttle(self, vm_id: int, throttled: bool) -> None:
        """Mark VM ``vm_id`` as degraded (served at ``R_b``) or restored."""
        self._check_vm(vm_id)
        self._throttled = _with(self._throttled, vm_id, bool(throttled))
        self._invalidate()

    def migrate(self, vm_id: int, target_pm: int) -> int:
        """Move VM ``vm_id`` to ``target_pm``; returns the source PM."""
        self._check_vm(vm_id)
        if not 0 <= target_pm < self.n_pms:
            raise ValueError(
                f"target_pm must be in [0, {self.n_pms}), got {target_pm}")
        assignment = self.placement.assignment
        src = int(assignment[vm_id])
        assignment[vm_id] = target_pm
        self._hosted[src] -= 1
        self._hosted[target_pm] += 1
        self._loads = None  # per-VM demands do not depend on the host
        return src

    # ------------------------------------------------------------------ #
    # checkpoint support
    # ------------------------------------------------------------------ #
    def capture_state(self) -> dict:
        """JSON-safe snapshot of every mutable field (for checkpointing).

        Covers the RNG stream, the ON/OFF and throttle masks, the *actual*
        switch probabilities (which :meth:`set_switch_probabilities` may
        have drifted away from the specs), the *assumed* law (which
        :meth:`set_assumed_law` may have refitted), and the placement.  The
        remaining spec-derived arrays (caps, base/extra demands) are
        reconstructed from the specs and need no snapshot.
        """
        return {
            "rng": capture_rng_state(self._rng),
            "on": self._on.tolist(),
            "throttled": self._throttled.tolist(),
            "p_on": self._p_on.tolist(),
            "p_off": self._p_off.tolist(),
            "assumed_p_on": self._assumed_p_on.tolist(),
            "assumed_p_off": self._assumed_p_off.tolist(),
            "assignment": self.placement.assignment.tolist(),
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from a :meth:`capture_state` snapshot."""
        keys = ["on", "throttled", "p_on", "p_off", "assignment"]
        # Older checkpoints predate the refittable assumed law.
        keys += [k for k in ("assumed_p_on", "assumed_p_off") if k in state]
        for key in keys:
            if len(state[key]) != self.n_vms:
                raise ValueError(
                    f"checkpoint field {key!r} has {len(state[key])} entries "
                    f"but datacenter has {self.n_vms} VMs"
                )
        assignment = np.array(state["assignment"], dtype=np.int64)
        bad = np.flatnonzero((assignment < 0) | (assignment >= self.n_pms))
        if bad.size:
            raise ValueError(
                f"checkpoint field 'assignment' must place every VM on a PM "
                f"in [0, {self.n_pms}); offending VMs: {bad[:5].tolist()}"
            )
        self._rng = restore_rng_state(state["rng"])
        self._on = _frozen(np.array(state["on"], dtype=bool))
        self._throttled = _frozen(np.array(state["throttled"], dtype=bool))
        self._p_on = np.array(state["p_on"], dtype=float)
        self._p_off = np.array(state["p_off"], dtype=float)
        # Without it, fall back to the construction-time default (the specs).
        self._assumed_p_on = np.array(
            state["assumed_p_on"] if "assumed_p_on" in state
            else [v.p_on for v in self.vm_specs], dtype=float)
        self._assumed_p_off = np.array(
            state["assumed_p_off"] if "assumed_p_off" in state
            else [v.p_off for v in self.vm_specs], dtype=float)
        self._recompute_assumed()
        self._adopt(Placement(self.n_vms, self.n_pms, assignment))
