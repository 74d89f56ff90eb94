"""Failure injection: PM crashes, correlated domain outages, and recovery.

Consolidation density interacts with fault tolerance: the tighter the
packing, the more VMs a single PM failure strands and the harder the
emergency evacuation.  This module injects failures into a run:

- each interval, every powered-on PM fails independently with
  ``failure_probability``;
- when a :class:`~repro.simulation.topology.Topology` is attached, whole
  fault domains (racks / power feeds) fail *together* with
  ``domain_failure_probability`` — the correlated events that dominate real
  outages and that independent per-PM models understate;
- a failed PM's VMs must be *evacuated* — re-placed immediately on the
  least-loaded healthy PM that fits their current demand (ties to the
  lowest index); when a VM fits nowhere at full demand it is
  **degraded**: throttled to its base demand ``R_b`` and placed wherever
  that fits (``degrade_stranded``).  Only VMs that fit nowhere even at
  ``R_b`` are counted as ``stranded`` for that interval (they retry next
  interval);
- a failed PM recovers after a geometric repair time once its domain is
  healthy again; a failed domain recovers with ``domain_repair_probability``.

:class:`FailureInjector` plugs into the engine alongside the scheduler; the
:class:`FailureRecord` counters — evacuations, degraded/stranded VM
intervals, per-event blast radii, repair durations — quantify the resilience
cost of each packing strategy (see :mod:`repro.analysis.availability`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.simulation.datacenter import Datacenter
from repro.simulation.topology import Topology
from repro.telemetry import (
    DegradationApplied,
    LogRateLimiter,
    PMCrashed,
    PMRepaired,
    ServiceRestored,
    Telemetry,
    VMStranded,
    resolve,
    timed,
)
from repro.utils.rng import (
    SeedLike,
    as_generator,
    capture_rng_state,
    restore_rng_state,
)
from repro.utils.validation import check_probability

logger = logging.getLogger(__name__)

_EPS = 1e-9


@dataclass
class FailureRecord:
    """Counters accumulated by a :class:`FailureInjector`."""

    failures: int = 0
    recoveries: int = 0
    evacuations: int = 0
    stranded_vm_intervals: int = 0
    failed_intervals: int = 0  # PM-intervals spent down
    #: correlated domain-level outage events (0 without a topology)
    domain_failures: int = 0
    #: evacuations that only succeeded at degraded (R_b) service
    degraded_evacuations: int = 0
    #: degraded VMs restored to full service
    restorations: int = 0
    #: VM-intervals served at R_b instead of full demand
    degraded_vm_intervals: int = 0
    #: VMs resident on the failed hardware of each crash event
    blast_radii: list[int] = field(default_factory=list)
    #: completed PM repair times, in intervals (MTTR raw data)
    repair_durations: list[int] = field(default_factory=list)


class FailureInjector:
    """Random PM failures (independent and domain-correlated) with repair.

    Parameters
    ----------
    dc:
        The datacenter under test.
    failure_probability:
        Per-interval, per-powered-on-PM independent crash probability.
    repair_probability:
        Per-interval probability a failed PM comes back (only once its
        fault domain, if any, is healthy).
    topology:
        Optional PM -> fault-domain map enabling correlated outages.
    domain_failure_probability:
        Per-interval, per-healthy-domain probability the whole domain
        fails at once (requires ``topology``).
    domain_repair_probability:
        Per-interval probability a failed domain's power/network is
        restored; its PMs then repair individually.
    degrade_stranded:
        When a VM fits nowhere at full demand during evacuation, throttle
        it to ``R_b`` and place it wherever the base demand fits (graceful
        degradation) instead of leaving it stranded on dead hardware.
    seed:
        RNG seed material.

    Notes
    -----
    A failed PM is modelled by excluding it from target selection and
    evacuating its VMs; VMs still assigned to a failed PM (evacuation
    impossible even degraded) are "stranded" — their demand is *not*
    served, which is the availability cost being measured.
    """

    def __init__(self, dc: Datacenter, *, failure_probability: float = 0.002,
                 repair_probability: float = 0.1,
                 topology: Topology | None = None,
                 domain_failure_probability: float = 0.0,
                 domain_repair_probability: float = 0.1,
                 degrade_stranded: bool = True,
                 seed: SeedLike = None,
                 telemetry: Telemetry | None = None):
        self.dc = dc
        self.telemetry = resolve(telemetry)
        # One WARN per (source, kind) per window of intervals: a long
        # degraded run repeats the same stranding/degradation story every
        # interval and must not flood stderr with it.
        self._log_limit = LogRateLimiter(
            window=50,
            counter=(self.telemetry.metrics.counter(
                "log_suppressed_total", "rate-limited WARN lines dropped")
                if self.telemetry is not None else None),
        )
        if self.telemetry is not None:
            m = self.telemetry.metrics
            self._m_crashes = m.counter("pm_crashes_total", "PM failures")
            self._m_repairs = m.counter("pm_repairs_total", "PM repairs")
            self._m_domain = m.counter(
                "domain_outages_total", "correlated fault-domain outages")
            self._m_evac = m.counter(
                "evacuations_total", "VMs moved off failed hardware")
            self._m_degraded = m.counter(
                "degradations_total", "VMs throttled to base demand")
            self._m_stranded = m.counter(
                "vm_strandings_total", "VMs left without a healthy host")
            self._m_restored = m.counter(
                "restorations_total", "degraded VMs restored to full service")
            self._h_blast = m.histogram(
                "blast_radius_vms", "VMs resident on failed hardware per crash",
                buckets=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
        self.failure_probability = check_probability(
            failure_probability, "failure_probability"
        )
        self.repair_probability = check_probability(
            repair_probability, "repair_probability"
        )
        self.domain_failure_probability = check_probability(
            domain_failure_probability, "domain_failure_probability"
        )
        self.domain_repair_probability = check_probability(
            domain_repair_probability, "domain_repair_probability"
        )
        if topology is not None and topology.n_pms != dc.n_pms:
            raise ValueError(
                f"topology covers {topology.n_pms} PMs but datacenter has {dc.n_pms}"
            )
        if topology is None and domain_failure_probability > 0.0:
            raise ValueError(
                "domain_failure_probability > 0 requires a topology"
            )
        self.topology = topology
        self.degrade_stranded = degrade_stranded
        self._rng = as_generator(seed)
        self.failed = np.zeros(dc.n_pms, dtype=bool)
        self.domain_failed = (
            np.zeros(topology.n_domains, dtype=bool) if topology is not None
            else np.zeros(0, dtype=bool)
        )
        self.record = FailureRecord()
        self._stranded: set[int] = set()
        self._degraded: set[int] = set()
        self._down_since = np.full(dc.n_pms, -1, dtype=np.int64)

    # ------------------------------------------------------------------ #
    def _evacuate(self, pm_id: int, time: int = 0) -> None:
        """Move the failed PM's VMs to healthy PMs (by current demand).

        VMs that fit nowhere at full demand are throttled to ``R_b`` and
        retried (graceful degradation) when ``degrade_stranded`` is set;
        only if even that fails is the VM stranded.
        """
        vm_ids = sorted(self.dc.pms[pm_id].vm_ids)
        demands = self.dc.vm_demands()
        caps = self.dc.pm_capacities()
        loads = self.dc.pm_loads()
        for vm_id in vm_ids:
            if self._place_off(vm_id, pm_id, float(demands[vm_id]),
                               caps, loads, time=time):
                continue
            base = self.dc.vms[vm_id].spec.r_base
            if (self.degrade_stranded and base < demands[vm_id] - _EPS
                    and self._place_off(vm_id, pm_id, base, caps, loads,
                                        degrade=True, time=time)):
                continue
            self._strand(vm_id, pm_id, time)

    def _strand(self, vm_id: int, pm_id: int, time: int) -> None:
        """Mark a VM stranded (no healthy host found even degraded)."""
        if vm_id in self._stranded:
            return
        self._stranded.add(vm_id)
        self._log_limit.warning(
            logger, "failures", "vm_stranded", time,
            "VM %d stranded on failed PM %d at interval %d "
            "(no healthy host fits it, even degraded)", vm_id, pm_id, time,
        )
        tel = self.telemetry
        if tel is not None:
            self._m_stranded.inc()
            if tel.events.enabled:
                tel.emit(VMStranded(time=time, vm_id=vm_id, pm_id=pm_id))

    def _place_off(self, vm_id: int, pm_id: int, demand: float,
                   caps: np.ndarray, loads: np.ndarray, *,
                   degrade: bool = False, time: int = 0) -> bool:
        """Try to move ``vm_id`` off ``pm_id`` at ``demand``; updates loads.

        The target is the least-loaded healthy PM, other than ``pm_id``,
        that fits ``demand``; ties go to the lowest index.
        """
        fits = (loads + demand <= caps + _EPS) & ~self.failed
        fits[pm_id] = False
        if not fits.any():
            return False
        cand = int(np.argmin(np.where(fits, loads, np.inf)))
        tel = self.telemetry
        if degrade:
            self.dc.set_throttle(vm_id, True)
            self._degraded.add(vm_id)
            self.record.degraded_evacuations += 1
            self._log_limit.warning(
                logger, "failures", "vm_degraded", time,
                "VM %d degraded to base demand to fit on PM %d "
                "at interval %d", vm_id, cand, time,
            )
            if tel is not None:
                self._m_degraded.inc()
                if tel.events.enabled:
                    tel.emit(DegradationApplied(
                        time=time, vm_id=vm_id, pm_id=cand))
        self.dc.migrate(vm_id, cand)
        loads[cand] += demand
        loads[pm_id] -= demand
        self.record.evacuations += 1
        if tel is not None:
            self._m_evac.inc()
        return True

    def _retry_stranded(self, time: int = 0) -> None:
        if not self._stranded:
            return
        demands = self.dc.vm_demands()
        caps = self.dc.pm_capacities()
        loads = self.dc.pm_loads()
        tel = self.telemetry
        traced = tel is not None and tel.events.enabled
        for vm_id in sorted(self._stranded):
            src = self.dc.placement.pm_of(vm_id)
            if not self.failed[src]:
                self._stranded.discard(vm_id)  # host recovered under it
                logger.info("VM %d unstranded: host PM %d recovered", vm_id, src)
                if traced:
                    tel.emit(ServiceRestored(time=time, vm_id=vm_id,
                                             pm_id=src, reason="host_recovered"))
                continue
            if self._place_off(vm_id, src, float(demands[vm_id]), caps, loads,
                               time=time):
                self._stranded.discard(vm_id)
                if traced:
                    tel.emit(ServiceRestored(
                        time=time, vm_id=vm_id,
                        pm_id=int(self.dc.placement.pm_of(vm_id)),
                        reason="evacuated"))
                continue
            base = self.dc.vms[vm_id].spec.r_base
            if (self.degrade_stranded and base < demands[vm_id] - _EPS
                    and self._place_off(vm_id, src, base, caps, loads,
                                        degrade=True, time=time)):
                self._stranded.discard(vm_id)

    def _promote_degraded(self, time: int = 0) -> None:
        """Restore throttled VMs to full service when headroom reappears."""
        if not self._degraded:
            return
        served = self.dc.vm_demands()
        full = self.dc.vm_full_demands()
        caps = self.dc.pm_capacities()
        loads = self.dc.pm_loads()
        tel = self.telemetry
        for vm_id in sorted(self._degraded):
            host = self.dc.placement.pm_of(vm_id)
            if self.failed[host]:
                continue  # will be handled by evacuation/stranding
            extra = float(full[vm_id] - served[vm_id])
            if loads[host] + extra <= caps[host] + _EPS:
                self.dc.set_throttle(vm_id, False)
                self._degraded.discard(vm_id)
                self.record.restorations += 1
                loads[host] += extra
                if tel is not None:
                    self._m_restored.inc()
                    if tel.events.enabled:
                        tel.emit(ServiceRestored(time=time, vm_id=vm_id,
                                                 pm_id=host, reason="headroom"))

    # ------------------------------------------------------------------ #
    def _fail_pms(self, pm_ids: np.ndarray, time: int, *,
                  domain: int = -1) -> int:
        """Mark PMs failed, count their resident VMs (the blast radius)."""
        tel = self.telemetry
        traced = tel is not None and tel.events.enabled
        blast = 0
        for pm_id in pm_ids:
            pm_id = int(pm_id)
            self.failed[pm_id] = True
            self._down_since[pm_id] = time
            self.record.failures += 1
            resident = len(self.dc.pms[pm_id].vm_ids)
            blast += resident
            if tel is not None:
                self._m_crashes.inc()
                self._h_blast.observe(resident)
            if traced:
                tel.emit(PMCrashed(time=time, pm_id=pm_id,
                                   blast_radius=resident, domain=domain))
        return blast

    def step(self, time: int) -> None:
        """Advance failures/repairs one interval (engine hook)."""
        with timed("failures.step"):
            self._step(time)

    def _step(self, time: int) -> None:
        tel = self.telemetry
        traced = tel is not None and tel.events.enabled
        # repairs first, so a PM down this interval stays down a full step
        if self.topology is not None and self.domain_failed.size:
            dom_recovering = self.domain_failed & (
                self._rng.random(self.topology.n_domains)
                < self.domain_repair_probability
            )
            self.domain_failed[dom_recovering] = False
        repair_blocked = (
            self.domain_failed[self.topology.domain_of]
            if self.topology is not None else np.zeros(self.dc.n_pms, dtype=bool)
        )
        recovering = (self.failed & ~repair_blocked
                      & (self._rng.random(self.dc.n_pms)
                         < self.repair_probability))
        self.failed[recovering] = False
        self.record.recoveries += int(recovering.sum())
        for pm_id in np.flatnonzero(recovering):
            since = int(self._down_since[pm_id])
            downtime = 0
            if since >= 0:
                downtime = max(1, time - since)
                self.record.repair_durations.append(downtime)
                self._down_since[pm_id] = -1
            if tel is not None:
                self._m_repairs.inc()
            if traced:
                tel.emit(PMRepaired(time=time, pm_id=int(pm_id),
                                    downtime_intervals=downtime))

        # correlated domain outages: every PM in the domain dies at once
        if self.topology is not None and self.domain_failure_probability > 0.0:
            crashing_domains = (~self.domain_failed
                                & (self._rng.random(self.topology.n_domains)
                                   < self.domain_failure_probability))
            for dom in np.flatnonzero(crashing_domains):
                dom = int(dom)
                self.domain_failed[dom] = True
                self.record.domain_failures += 1
                self._log_limit.warning(
                    logger, "failures", "domain_outage", time,
                    "fault domain %d failed at interval %d", dom, time)
                if tel is not None:
                    self._m_domain.inc()
                members = self.topology.pms_in(dom)
                fresh = members[~self.failed[members]]
                self.record.blast_radii.append(
                    self._fail_pms(fresh, time, domain=dom)
                )
            for dom in np.flatnonzero(crashing_domains):
                for pm_id in self.topology.pms_in(int(dom)):
                    if self.dc.pms[int(pm_id)].vm_ids:
                        self._evacuate(int(pm_id), time)

        # independent per-PM crashes (powered-on PMs only)
        powered = self.dc.pm_used_mask()
        crashing = (~self.failed & powered
                    & (self._rng.random(self.dc.n_pms)
                       < self.failure_probability))
        for pm_id in np.flatnonzero(crashing):
            pm_id = int(pm_id)
            self.record.blast_radii.append(
                self._fail_pms(np.array([pm_id]), time)
            )
            self._evacuate(pm_id, time)

        self._retry_stranded(time)
        self._promote_degraded(time)
        self.record.stranded_vm_intervals += len(self._stranded)
        self.record.degraded_vm_intervals += len(self._degraded)
        self.record.failed_intervals += int(self.failed.sum())

    @property
    def stranded_vms(self) -> set[int]:
        """VMs currently without a healthy host."""
        return set(self._stranded)

    @property
    def degraded_vms(self) -> set[int]:
        """VMs currently throttled to base demand (degraded service)."""
        return set(self._degraded)

    @property
    def failed_mask(self) -> np.ndarray:
        """Copy of the per-PM failure mask (for failure-aware schedulers)."""
        return self.failed.copy()

    # ------------------------------------------------------------------ #
    # checkpoint support
    # ------------------------------------------------------------------ #
    def capture_state(self) -> dict:
        """JSON-safe snapshot of failure masks, counters and the RNG."""
        rec = self.record
        return {
            "rng": capture_rng_state(self._rng),
            "failed": self.failed.tolist(),
            "domain_failed": self.domain_failed.tolist(),
            "down_since": self._down_since.tolist(),
            "stranded": sorted(self._stranded),
            "degraded": sorted(self._degraded),
            "record": {
                "failures": rec.failures,
                "recoveries": rec.recoveries,
                "evacuations": rec.evacuations,
                "stranded_vm_intervals": rec.stranded_vm_intervals,
                "failed_intervals": rec.failed_intervals,
                "domain_failures": rec.domain_failures,
                "degraded_evacuations": rec.degraded_evacuations,
                "restorations": rec.restorations,
                "degraded_vm_intervals": rec.degraded_vm_intervals,
                "blast_radii": list(rec.blast_radii),
                "repair_durations": list(rec.repair_durations),
            },
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from a :meth:`capture_state` snapshot."""
        if len(state["failed"]) != self.dc.n_pms:
            raise ValueError(
                f"checkpoint failure mask covers {len(state['failed'])} PMs "
                f"but datacenter has {self.dc.n_pms}"
            )
        self._rng = restore_rng_state(state["rng"])
        self.failed = np.array(state["failed"], dtype=bool)
        self.domain_failed = np.array(state["domain_failed"], dtype=bool)
        self._down_since = np.array(state["down_since"], dtype=np.int64)
        self._stranded = set(int(v) for v in state["stranded"])
        self._degraded = set(int(v) for v in state["degraded"])
        rec = state["record"]
        self.record = FailureRecord(
            failures=int(rec["failures"]),
            recoveries=int(rec["recoveries"]),
            evacuations=int(rec["evacuations"]),
            stranded_vm_intervals=int(rec["stranded_vm_intervals"]),
            failed_intervals=int(rec["failed_intervals"]),
            domain_failures=int(rec["domain_failures"]),
            degraded_evacuations=int(rec["degraded_evacuations"]),
            restorations=int(rec["restorations"]),
            degraded_vm_intervals=int(rec["degraded_vm_intervals"]),
            blast_radii=[int(b) for b in rec["blast_radii"]],
            repair_durations=[int(r) for r in rec["repair_durations"]],
        )
