"""The run observatory: recorder + SLO engine + drift detector, one socket.

:class:`Observatory` is the single object a scenario (or a replay loop)
talks to.  It bundles:

- a :class:`~repro.observability.recorder.TimeSeriesRecorder` holding the
  rolling aggregates and chart series,
- an :class:`~repro.observability.slo.SLOEngine` evaluating burn-rate
  rules after every finalized interval,
- a :class:`~repro.observability.drift.DriftDetector` chi-square-testing
  each PM's ON counts against the assumed Geom/Geom/K law,

and routes every telemetry event to all three.  Two operating modes:

**Live** — :meth:`attach` subscribes the observatory to a
:class:`~repro.telemetry.bus.EventBus`; alert and drift events it emits
travel back through the same bus (landing in any JSONL sink right after
the snapshot that caused them) and are recognised and skipped on re-entry.

**Replay** — :meth:`from_jsonl` rebuilds observatory state from a recorded
trace with *no simulator re-execution*: the engines re-derive the alert
timeline deterministically from the snapshots (emission off), while the
Alert/Drift events recorded in the stream are collected into
:attr:`recorded_alerts` so a dashboard can show what the live run actually
fired — and a test can assert the two agree.
"""

from __future__ import annotations

from pathlib import Path

from repro.observability.drift import DriftDetector
from repro.observability.recorder import TimeSeriesRecorder
from repro.observability.slo import SLOEngine, SLORule, default_rules
from repro.telemetry.events import (
    AlertFired,
    AlertResolved,
    DriftDetected,
    IntervalSnapshot,
    MigrationDecided,
    PlacementDecided,
    ReconsolidationDecided,
    RefitCompleted,
    RefitRejected,
    ReplanCommitted,
    ReplanDecided,
    ReplanRolledBack,
    ReplanStarted,
    TelemetryEvent,
)

#: the autopilot control-loop vocabulary (collected, live and in replay)
AUTOPILOT_EVENTS = (RefitCompleted, RefitRejected, ReplanStarted,
                    ReplanCommitted, ReplanRolledBack)

#: the decision-provenance vocabulary (collected, live and in replay)
DECISION_EVENTS = (PlacementDecided, MigrationDecided,
                   ReconsolidationDecided, ReplanDecided)
from repro.telemetry.sinks import read_events_tolerant

__all__ = ["Observatory"]


class Observatory:
    """Recorder, SLO engine and drift detector behind one event socket.

    Parameters
    ----------
    window:
        Recorder rolling-window length (intervals); must cover the slowest
        SLO window.
    rules:
        SLO rules; defaults to :func:`~repro.observability.slo.default_rules`
        parameterized by ``rho``.
    rho:
        Error budget for the default CVR rule (ignored when ``rules`` is
        given).
    drift_window / drift_threshold / drift_consecutive / drift_min_samples:
        Passed through to :class:`DriftDetector`.
    emit:
        Whether the engines emit Alert/Drift events through telemetry.
        ``from_jsonl`` forces this off.
    """

    def __init__(self, *, window: int = 240,
                 rules: list[SLORule] | None = None, rho: float = 0.01,
                 drift_window: int = 30, drift_threshold: float = 10.83,
                 drift_consecutive: int = 2, drift_min_samples: int = 10,
                 emit: bool = True):
        self.recorder = TimeSeriesRecorder(window=window)
        self.slo = SLOEngine(
            self.recorder,
            rules if rules is not None else default_rules(rho),
            emit=emit,
        )
        self.drift = DriftDetector(
            window=drift_window, threshold=drift_threshold,
            consecutive=drift_consecutive, min_samples=drift_min_samples,
            emit=emit,
        )
        #: Alert/Drift events found in a replayed stream (empty when live)
        self.recorded_alerts: list[TelemetryEvent] = []
        #: autopilot refit/replan events, chronological (live and replay)
        self.autopilot_events: list[TelemetryEvent] = []
        #: decision-provenance events, chronological (live and replay)
        self.decision_events: list[TelemetryEvent] = []
        #: malformed JSONL lines skipped by :meth:`from_jsonl`
        self.skipped_lines = 0
        self._live = False
        self._unsubscribe = None

    # ----------------------------------------------------------------- #
    # wiring
    # ----------------------------------------------------------------- #
    def attach(self, telemetry) -> None:
        """Go live: subscribe to the bus and emit alerts through it."""
        if self._unsubscribe is not None:
            raise RuntimeError("observatory is already attached")
        self.slo._telemetry = telemetry
        self.drift._telemetry = telemetry
        self._live = True
        self._unsubscribe = telemetry.events.subscribe(self.observe)

    # ----------------------------------------------------------------- #
    # ingestion
    # ----------------------------------------------------------------- #
    def observe(self, event: TelemetryEvent) -> None:
        """Route one event; evaluate engines on interval snapshots."""
        if isinstance(event, (AlertFired, AlertResolved, DriftDetected)):
            if self._live:
                # our own emission echoing back through the bus
                return
            self.recorded_alerts.append(event)
            return
        if isinstance(event, AUTOPILOT_EVENTS):
            self.autopilot_events.append(event)
            return
        if isinstance(event, DECISION_EVENTS):
            self.decision_events.append(event)
            return
        self.recorder.on_event(event)
        if isinstance(event, IntervalSnapshot):
            self.drift.observe(event)
            self.slo.evaluate(event.time)

    # ----------------------------------------------------------------- #
    # queries
    # ----------------------------------------------------------------- #
    @property
    def has_active_alerts(self) -> bool:
        """Whether any SLO rule is currently firing."""
        return self.slo.has_active_alerts()

    def summary(self) -> dict:
        """One flat dict of headline state (dashboard / tests / compare)."""
        out = dict(self.recorder.fleet_summary())
        out["alerts_active"] = float(len(self.slo.active))
        out["alerts_fired"] = float(self.slo.fired_total)
        out["alerts_resolved"] = float(self.slo.resolved_total)
        out["drifted_pms"] = float(len(self.drift.flagged_pms))
        out["skipped_lines"] = float(self.skipped_lines)
        out["replans_committed"] = float(sum(
            1 for e in self.autopilot_events
            if isinstance(e, ReplanCommitted)))
        out["replans_rolled_back"] = float(sum(
            1 for e in self.autopilot_events
            if isinstance(e, ReplanRolledBack)))
        out["decisions_recorded"] = float(len(self.decision_events))
        out["decisions_dropped_total"] = float(sum(
            getattr(e, "dropped_candidates", 0)
            + getattr(e, "dropped_moves", 0)
            for e in self.decision_events))
        return out

    # ----------------------------------------------------------------- #
    # replay
    # ----------------------------------------------------------------- #
    @classmethod
    def from_jsonl(cls, path: str | Path, **kwargs) -> Observatory:
        """Rebuild observatory state from a recorded JSONL trace.

        Malformed lines are skipped (counted in :attr:`skipped_lines`);
        no simulator runs.  Keyword arguments are forwarded to the
        constructor; ``emit`` is forced off.
        """
        kwargs["emit"] = False
        obs = cls(**kwargs)
        events, skipped = read_events_tolerant(path)
        for event in events:
            obs.observe(event)
        obs.skipped_lines = skipped
        return obs
