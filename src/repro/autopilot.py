"""Closed-loop autopilot: drift-detect -> refit -> guarded replan -> rollback.

The paper's algorithm is one-shot: fit the ON/OFF chains, solve MapCal,
place, done.  When the true ``(p_on, p_off)`` law shifts mid-run, the CVR
guarantee the placement was sized for silently evaporates.  The
:class:`Autopilot` closes the loop with the pieces the package already has:

1. **Detect** — consume the observatory's drift detections and sustained
   SLO burn alerts (hysteresis: one alert firing is noise, ``alert_sustain``
   consecutive intervals is evidence).
2. **Refit** — re-estimate every VM's chain from the live demand stream via
   Baum-Welch (:func:`repro.markov.hmm.fit_hmm_onoff`), falling back to the
   threshold estimator on non-convergence.
3. **Replan** — warm the MapCal effective-size tables through the
   content-addressed solve cache, then request an incremental
   reconsolidation from the :class:`ReconsolidationScheduler` under an
   explicit migration budget, and commit the refitted law as the drift
   detector's new null (:meth:`Datacenter.set_assumed_law`).
4. **Guard** — a checkpoint is taken *before* every replan
   (:class:`~repro.simulation.checkpoint.CheckpointRetention`); if the
   windowed CVR regresses beyond ``guard_factor``x baseline +
   ``guard_slack`` within ``guard_window`` intervals, the run is rolled
   back bit-identically to the pre-replan state and that refit's
   fingerprint is blacklisted.

Guardrails are first-class: per-cause cooldowns, a replan-rate limiter
(``max_replans`` per run), evidence hysteresis, and bounded rollback-point
retention.  A control plane that replans must itself be robust — a bad
refit or a thrashing replan is worse than no adaptation.

Rollback semantics: the simulator state (all RNG streams, placement,
monitor, scheduler) rewinds exactly; the observatory is an external
monitoring plane and is *not* rewound — it observed the aborted branch and
will observe the retried one, exactly as a real monitoring stack would see
both sides of an incident.  The drift detector's accumulated evidence is
reset whenever the assumed law changes or a rollback lands (stale evidence
against a superseded null must not re-trigger).
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.mapcal import mapcal_table
from repro.durable import canonical
from repro.markov.hmm import fit_hmm_onoff
from repro.simulation.checkpoint import (
    CheckpointRetention,
    canonical_state_bytes,
    load_checkpoint,
)
from repro.simulation.reconsolidation import ReconsolidationScheduler
from repro.simulation.scenario import Scenario, ScenarioReport, ScenarioRun
from repro.telemetry import (
    RefitCompleted,
    RefitRejected,
    ReplanCommitted,
    ReplanDecided,
    ReplanRolledBack,
    ReplanStarted,
    resolve,
)
from repro.utils.rng import SeedLike
from repro.workload.estimation import OnOffFit, fit_fleet, fit_onoff

logger = logging.getLogger(__name__)

__all__ = [
    "Autopilot",
    "AutopilotConfig",
    "AutopilotReport",
    "TelemetryWindow",
    "adversarial_refit",
]


@dataclass(frozen=True)
class AutopilotConfig:
    """Tuning knobs of the control loop (see docs/AUTOPILOT.md).

    Attributes
    ----------
    telemetry_window:
        Per-VM demand samples retained for refitting (circular buffer).
    min_refit_samples:
        Evidence is ignored until this many samples are buffered — a refit
        from a near-empty window is noise.
    use_hmm:
        Refit with Baum-Welch (threshold-estimator fallback on
        non-convergence); False uses the threshold estimator directly.
    observation_noise:
        Std-dev of Gaussian noise added to the sampled demands (models an
        imperfect monitoring pipeline; drawn from a dedicated RNG so the
        simulation streams stay untouched).
    migration_budget:
        Per-replan cap on executed planned moves.
    alert_sustain:
        Consecutive intervals with an active SLO alert before the alert
        cause may trigger (hysteresis).
    drift_min_detections:
        New drift detections required before the drift cause may trigger.
    drift_cooldown / alert_cooldown:
        Per-cause minimum intervals between replans.
    rollback_cooldown:
        Cooldown applied to *both* causes after a rollback (measured from
        the restored clock).
    max_replans:
        Hard cap on replans started per run (rate limiter).
    guard_window:
        Intervals between replan and the commit/rollback verdict.
    guard_factor / guard_slack:
        Rollback iff ``post_cvr > baseline_cvr * guard_factor +
        guard_slack``.  The slack term keeps a near-zero baseline from
        turning measurement noise into a rollback.
    keep_checkpoints:
        Rollback points retained on disk.
    rho, d:
        MapCal parameters used to warm the effective-size tables for the
        refitted fleet.
    """

    telemetry_window: int = 120
    min_refit_samples: int = 60
    use_hmm: bool = True
    observation_noise: float = 0.0
    migration_budget: int = 20
    alert_sustain: int = 5
    drift_min_detections: int = 1
    drift_cooldown: int = 40
    alert_cooldown: int = 40
    rollback_cooldown: int = 80
    max_replans: int = 5
    guard_window: int = 25
    guard_factor: float = 1.25
    guard_slack: float = 0.005
    keep_checkpoints: int = 3
    rho: float = 0.01
    d: int = 16

    def __post_init__(self) -> None:
        if self.telemetry_window < 2:
            raise ValueError("telemetry_window must be >= 2")
        if not 2 <= self.min_refit_samples <= self.telemetry_window:
            raise ValueError(
                "min_refit_samples must be in [2, telemetry_window]")
        for name in ("migration_budget", "alert_sustain",
                     "drift_min_detections", "drift_cooldown",
                     "alert_cooldown", "rollback_cooldown", "max_replans",
                     "guard_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.guard_factor < 1.0:
            raise ValueError("guard_factor must be >= 1.0")
        if self.guard_slack < 0.0:
            raise ValueError("guard_slack must be >= 0")


class TelemetryWindow:
    """Circular per-VM demand buffer the refits are estimated from."""

    def __init__(self, n_vms: int, window: int):
        self.n_vms = n_vms
        self.window = window
        self._buf = np.zeros((n_vms, window))
        self._cursor = 0
        self._count = 0

    @property
    def count(self) -> int:
        """Samples currently buffered (saturates at ``window``)."""
        return self._count

    def push(self, demands: np.ndarray) -> None:
        """Append one interval's per-VM demand vector."""
        self._buf[:, self._cursor] = demands
        self._cursor = (self._cursor + 1) % self.window
        self._count = min(self._count + 1, self.window)

    def traces(self) -> np.ndarray:
        """The buffered samples in chronological order, ``(n_vms, count)``."""
        if self._count < self.window:
            return self._buf[:, :self._count].copy()
        return np.roll(self._buf, -self._cursor, axis=1)


def refit_fingerprint(fits: Sequence[OnOffFit]) -> str:
    """Content hash of a refit's rounded parameters (blacklist key)."""
    rows = [[round(f.p_on, 4), round(f.p_off, 4),
             round(f.r_base, 3), round(f.r_extra, 3)] for f in fits]
    return hashlib.sha256(canonical(rows)).hexdigest()[:12]


def adversarial_refit(traces: np.ndarray) -> list[OnOffFit]:
    """A deliberately wrong refit for the forced-rollback drill.

    Claims every VM is almost never ON (``p_on = 0.001``, ``p_off = 0.5``),
    so the replanned packing over-consolidates and post-replan CVR
    regresses past any sane guard — exercising the rollback path
    end-to-end.  Pass as ``refit_override`` to :class:`Autopilot`.
    """
    return [dataclasses.replace(fit, p_on=0.001, p_off=0.5)
            for fit in fit_fleet(traces)]


@dataclass
class _PendingReplan:
    """A replan awaiting its commit/rollback verdict."""

    started_at: int
    deadline: int
    cause: str
    fingerprint: str
    baseline_cvr: float
    state: dict
    checkpoint: Path | None
    budget: int


@dataclass
class AutopilotReport:
    """What one autopiloted run did and produced."""

    report: ScenarioReport
    replans_started: int = 0
    replans_committed: int = 0
    replans_rolled_back: int = 0
    refits: int = 0
    refits_rejected: int = 0
    #: True iff every rollback restored bit-identical pre-replan state
    rollback_parity: bool = True
    planned_migrations: int = 0
    blacklist: set[str] = field(default_factory=set)
    checkpoints: list[str] = field(default_factory=list)

    def summary(self) -> str:
        """One-line control-plane summary."""
        return (
            f"autopilot: {self.refits} refits "
            f"({self.refits_rejected} rejected), "
            f"{self.replans_started} replans "
            f"({self.replans_committed} committed, "
            f"{self.replans_rolled_back} rolled back, "
            f"parity={'ok' if self.rollback_parity else 'BROKEN'}), "
            f"{self.planned_migrations} planned migrations"
        )


class Autopilot:
    """The closed-loop controller (see module docstring for the loop).

    Parameters
    ----------
    scenario:
        Must be configured with ``reconsolidation=`` (the controller
        replans through the :class:`ReconsolidationScheduler`) and an
        ``observatory`` (the controller's sensors).
    config:
        Control-loop tuning; defaults to :class:`AutopilotConfig`.
    checkpoint_dir:
        Where pre-replan rollback points are written (bounded by
        ``config.keep_checkpoints``).  ``None`` keeps rollback points in
        memory only — rollback still works, but the byte-for-byte
        disk-parity check is skipped.
    refit_override:
        Optional ``traces -> list[OnOffFit]`` replacing the estimator —
        the hook the forced-rollback drill (:func:`adversarial_refit`) and
        oracle baselines use.
    noise_seed:
        Seed for the observation-noise RNG (independent of the simulation
        streams).
    """

    def __init__(self, scenario: Scenario, *,
                 config: AutopilotConfig | None = None,
                 checkpoint_dir: str | os.PathLike | None = None,
                 refit_override: Callable[[np.ndarray],
                                          list[OnOffFit]] | None = None,
                 noise_seed: int = 0):
        if scenario.reconsolidation is None:
            raise ValueError(
                "the autopilot replans through the ReconsolidationScheduler; "
                "construct the Scenario with reconsolidation=True (or a dict)"
            )
        if scenario.observatory is None:
            raise ValueError(
                "the autopilot needs the scenario's observatory= as its "
                "sensor plane (drift detections and SLO burn alerts)"
            )
        self.scenario = scenario
        self.observatory = scenario.observatory
        self.config = config if config is not None else AutopilotConfig()
        self.retention = (
            CheckpointRetention(checkpoint_dir,
                                keep=self.config.keep_checkpoints)
            if checkpoint_dir is not None else None
        )
        self.refit_override = refit_override
        self._noise_rng = np.random.default_rng(noise_seed)
        self.blacklist: set[str] = set()
        # mutable loop state (reset by run())
        self._window: TelemetryWindow | None = None
        self._pending: _PendingReplan | None = None
        self._alert_streak = 0
        self._drift_seen = 0
        self._cooldown_until = {"drift": 0, "slo_burn": 0}
        self._stats: AutopilotReport | None = None

    # ----------------------------------------------------------------- #
    # main loop
    # ----------------------------------------------------------------- #
    def run(self, n_intervals: int, *, seed: SeedLike = None,
            on_tick: Any | None = None) -> AutopilotReport:
        """Simulate ``n_intervals`` under closed-loop control.

        A rollback rewinds the simulation clock, so the loop is driven by
        ``run.time`` rather than a fixed iteration count — the run always
        ends having *kept* ``n_intervals`` intervals.
        """
        cfg = self.config
        run = self.scenario.start(seed=seed, on_tick=on_tick)
        scheduler = run.scheduler
        if not isinstance(scheduler, ReconsolidationScheduler):
            raise TypeError(
                f"expected a ReconsolidationScheduler, got "
                f"{type(scheduler).__name__}"
            )
        self._window = TelemetryWindow(run.datacenter.n_vms,
                                       cfg.telemetry_window)
        self._pending = None
        self._alert_streak = 0
        self._drift_seen = len(self.observatory.drift.detections)
        self._cooldown_until = {"drift": 0, "slo_burn": 0}
        stats = self._stats = AutopilotReport(report=None)  # type: ignore
        try:
            while run.time < n_intervals:
                run.advance(1)
                self._observe(run)
                self._control(run)
            if self._pending is not None:
                # run ended inside an evaluation window: settle on the
                # evidence gathered so far rather than leaving it open
                self._settle(run)
        finally:
            run.close()
        stats.report = run.finish()
        stats.planned_migrations = scheduler.planned_migrations
        stats.blacklist = set(self.blacklist)
        return stats

    # ----------------------------------------------------------------- #
    # sensing
    # ----------------------------------------------------------------- #
    def _observe(self, run: ScenarioRun) -> None:
        demands = run.datacenter.vm_full_demands().astype(float)
        noise = self.config.observation_noise
        if noise > 0.0:
            demands = np.maximum(
                demands + self._noise_rng.normal(0.0, noise, demands.size),
                0.0,
            )
        self._window.push(demands)

    def _evidence(self, t: int) -> str | None:
        """Which cause (if any) warrants a replan at ``t``."""
        cfg = self.config
        obs = self.observatory
        new_detections = len(obs.drift.detections) - self._drift_seen
        if (new_detections >= cfg.drift_min_detections
                and t >= self._cooldown_until["drift"]):
            return "drift"
        if (self._alert_streak >= cfg.alert_sustain
                and t >= self._cooldown_until["slo_burn"]):
            return "slo_burn"
        return None

    # ----------------------------------------------------------------- #
    # control
    # ----------------------------------------------------------------- #
    def _control(self, run: ScenarioRun) -> None:
        t = run.time
        self._alert_streak = (
            self._alert_streak + 1
            if self.observatory.has_active_alerts else 0
        )
        if self._pending is not None:
            if t >= self._pending.deadline:
                self._settle(run)
            return
        if self._window.count < self.config.min_refit_samples:
            return
        if self._stats.replans_started >= self.config.max_replans:
            return
        cause = self._evidence(t)
        if cause is not None:
            self._replan(run, cause)

    def _refit(self, run: ScenarioRun,
               cause: str) -> tuple[list[OnOffFit], str]:
        cfg = self.config
        traces = self._window.traces()
        converged = fallback = 0
        if self.refit_override is not None:
            fits = self.refit_override(traces)
        elif cfg.use_hmm:
            fits = []
            for i in range(traces.shape[0]):
                fit, diag = fit_hmm_onoff(traces[i], return_diagnostics=True)
                if diag.converged:
                    converged += 1
                else:
                    fit = fit_onoff(traces[i])
                    fallback += 1
                fits.append(fit)
        else:
            fits = fit_fleet(traces)
            fallback = len(fits)
        fp = refit_fingerprint(fits)
        self._stats.refits += 1
        self._emit(RefitCompleted(
            time=run.time, n_vms=len(fits), converged=converged,
            fallback=fallback, fingerprint=fp, cause=cause,
        ))
        return fits, fp

    def _replan(self, run: ScenarioRun, cause: str) -> None:
        cfg = self.config
        t = run.time
        # snapshot the triggering evidence before it is consumed below, so
        # the ReplanDecided provenance event records what the controller saw
        new_detections = (len(self.observatory.drift.detections)
                          - self._drift_seen)
        drift_pms = tuple(sorted(int(p)
                                 for p in self.observatory.drift.flagged_pms))
        active_alerts = tuple(sorted(self.observatory.slo.active))
        alert_streak = self._alert_streak
        fits, fp = self._refit(run, cause)
        # consume the evidence and start the cooldown whether or not the
        # refit survives the blacklist — evidence was spent either way
        self._drift_seen = len(self.observatory.drift.detections)
        self._alert_streak = 0
        cooldown = (cfg.drift_cooldown if cause == "drift"
                    else cfg.alert_cooldown)
        self._cooldown_until[cause] = t + cooldown
        if fp in self.blacklist:
            self._stats.refits_rejected += 1
            self._emit(RefitRejected(time=t, fingerprint=fp,
                                     reason="blacklisted"))
            return

        # 1. rollback point: in-memory state first, then the disk copy
        state = run.capture_state()
        path = None
        if self.retention is not None:
            path = self.retention.save(run, label=f"t{t}-{cause}")
            self._stats.checkpoints.append(str(path))
        baseline = self.observatory.recorder.cvr(cfg.guard_window)

        # 2. warm the MapCal effective-size tables through the solve cache
        for p_on, p_off in sorted({(round(f.p_on, 4), round(f.p_off, 4))
                                   for f in fits}):
            mapcal_table(cfg.d, p_on, p_off, cfg.rho)

        # 3. request the incremental reconsolidation (executes next tick,
        #    so its migrations flow through the monitor like any others)
        specs = [f.to_vmspec() for f in fits]
        run.scheduler.request_replan(vms=specs,
                                     max_moves=cfg.migration_budget)

        # 4. commit the refitted law as the drift detector's new null —
        #    AFTER the capture, so a rollback reverts it with everything
        #    else — and drop evidence accumulated against the old null
        run.datacenter.set_assumed_law([s.p_on for s in specs],
                                       [s.p_off for s in specs])
        self.observatory.drift.reset_evidence()
        self._drift_seen = len(self.observatory.drift.detections)

        deadline = t + cfg.guard_window
        self._pending = _PendingReplan(
            started_at=t, deadline=deadline, cause=cause, fingerprint=fp,
            baseline_cvr=baseline, state=state, checkpoint=path,
            budget=cfg.migration_budget,
        )
        self._stats.replans_started += 1
        self._emit(ReplanDecided(
            time=t,
            decision_id=run.scheduler.next_decision_id(),
            cause=cause, fingerprint=fp,
            drift_detections=new_detections, drift_pms=drift_pms,
            alert_streak=alert_streak, active_alerts=active_alerts,
            baseline_cvr=baseline, budget=cfg.migration_budget,
            deadline=deadline,
        ))
        self._emit(ReplanStarted(
            time=t, cause=cause, fingerprint=fp,
            checkpoint=str(path) if path is not None else "",
            baseline_cvr=baseline, deadline=deadline,
            budget=cfg.migration_budget,
        ))
        logger.info("autopilot replan at t=%d (%s): baseline CVR %.4f, "
                    "verdict at t=%d", t, cause, baseline, deadline)

    def _settle(self, run: ScenarioRun) -> None:
        cfg = self.config
        pending, self._pending = self._pending, None
        post = self.observatory.recorder.cvr(cfg.guard_window)
        threshold = pending.baseline_cvr * cfg.guard_factor + cfg.guard_slack
        if post <= threshold:
            self._stats.replans_committed += 1
            self._emit(ReplanCommitted(
                time=run.time, fingerprint=pending.fingerprint,
                baseline_cvr=pending.baseline_cvr, post_cvr=post,
                migrations=run.scheduler.planned_migrations,
            ))
            logger.info("autopilot commit at t=%d: CVR %.4f -> %.4f",
                        run.time, pending.baseline_cvr, post)
            return

        # regression: restore the pre-replan state and blacklist the refit
        parity = True
        if pending.checkpoint is not None:
            payload = load_checkpoint(pending.checkpoint)
            parity = (canonical_state_bytes(payload["state"])
                      == canonical_state_bytes(pending.state))
        run.restore_state(pending.state)
        parity = parity and (canonical_state_bytes(run.capture_state())
                             == canonical_state_bytes(pending.state))
        self.blacklist.add(pending.fingerprint)
        restored = run.time
        for cause in self._cooldown_until:
            self._cooldown_until[cause] = max(
                self._cooldown_until[cause],
                restored + cfg.rollback_cooldown,
            )
        self.observatory.drift.reset_evidence()
        self._drift_seen = len(self.observatory.drift.detections)
        self._alert_streak = 0
        self._stats.replans_rolled_back += 1
        self._stats.rollback_parity = self._stats.rollback_parity and parity
        self._emit(ReplanRolledBack(
            time=restored, fingerprint=pending.fingerprint,
            baseline_cvr=pending.baseline_cvr, post_cvr=post,
            restored_time=restored, parity=parity,
        ))
        logger.warning("autopilot ROLLBACK to t=%d: CVR %.4f -> %.4f "
                       "(guard %.4f), refit %s blacklisted",
                       restored, pending.baseline_cvr, post, threshold,
                       pending.fingerprint)

    def _emit(self, event) -> None:
        tel = resolve(self.scenario.telemetry)
        if tel is not None and tel.events.enabled:
            # the attached observatory sees it when it echoes off the bus
            tel.emit(event)
        else:
            # no event sink: feed the observatory's control-loop view direct
            self.observatory.observe(event)
