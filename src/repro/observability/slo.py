"""Declarative SLO rules and multi-window burn-rate alerting.

A rule binds a recorder burn metric (see
:meth:`repro.observability.recorder.TimeSeriesRecorder.burn`) to an error
budget and two evaluation windows, in the style of Google-SRE multi-window
multi-burn-rate alerting:

- the **fast** window catches acute budget burn quickly (e.g. "CVR budget
  rho consumed 14x faster than allowed over the last 5 intervals");
- the **slow** window guards against paging on a single noisy blip (e.g.
  "...AND 2x faster over the last 60 intervals").

An alert *fires* when both windows exceed their factors, and *resolves*
when the fast window drops back below its factor.  The engine emits typed
:class:`~repro.telemetry.events.AlertFired` /
:class:`~repro.telemetry.events.AlertResolved` events through the
telemetry bus, so alerts land in JSONL traces next to the intervals that
caused them.

Rules are plain data: build them in code, from dicts, or load a YAML/JSON
rule file with :func:`load_rules`::

    rules:
      - name: cvr_burn
        metric: cvr
        budget: 0.01          # the paper's rho
        fast: {window: 5, factor: 14.0}
        slow: {window: 60, factor: 2.0}
        severity: page
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.observability.recorder import BURN_METRICS, TimeSeriesRecorder
from repro.telemetry.context import resolve
from repro.telemetry.events import AlertFired, AlertResolved

__all__ = [
    "BurnWindow",
    "SLORule",
    "SLOEngine",
    "ActiveAlert",
    "AlertSpan",
    "default_rules",
    "default_service_rules",
    "load_rules",
]


@dataclass(frozen=True)
class BurnWindow:
    """One evaluation window: a lookback length and a burn-rate factor."""

    window: int
    factor: float

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.factor <= 0:
            raise ValueError(f"factor must be > 0, got {self.factor}")


@dataclass(frozen=True)
class SLORule:
    """A multi-window burn-rate alerting rule over one recorder metric."""

    name: str
    metric: str
    budget: float
    fast: BurnWindow
    slow: BurnWindow
    severity: str = "page"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("rule name must be non-empty")
        if self.metric not in BURN_METRICS:
            raise ValueError(
                f"rule {self.name!r}: unknown metric {self.metric!r}; "
                f"known: {BURN_METRICS}")
        if self.budget <= 0:
            raise ValueError(
                f"rule {self.name!r}: budget must be > 0, got {self.budget}")
        if self.fast.window > self.slow.window:
            raise ValueError(
                f"rule {self.name!r}: fast window ({self.fast.window}) must "
                f"not exceed slow window ({self.slow.window})")

    @classmethod
    def from_dict(cls, data: dict) -> SLORule:
        """Build a rule from its YAML/JSON dict form."""
        payload = dict(data)
        try:
            fast = payload.pop("fast")
            slow = payload.pop("slow")
        except KeyError as exc:
            raise ValueError(
                f"rule dict missing required key {exc.args[0]!r}: {data!r}"
            ) from None
        return cls(
            fast=BurnWindow(int(fast["window"]), float(fast["factor"])),
            slow=BurnWindow(int(slow["window"]), float(slow["factor"])),
            **payload,
        )

    def to_dict(self) -> dict:
        """Inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "metric": self.metric,
            "budget": self.budget,
            "fast": {"window": self.fast.window, "factor": self.fast.factor},
            "slow": {"window": self.slow.window, "factor": self.slow.factor},
            "severity": self.severity,
        }


def default_rules(rho: float = 0.01) -> list[SLORule]:
    """The stock rule set: CVR budget burn plus a migration-storm guard."""
    return [
        SLORule(
            name="cvr_burn",
            metric="cvr",
            budget=rho,
            fast=BurnWindow(5, 14.0),
            slow=BurnWindow(60, 2.0),
            severity="page",
        ),
        SLORule(
            name="migration_storm",
            metric="migration_churn",
            budget=0.05,  # tolerated migrations per PM-interval
            fast=BurnWindow(10, 10.0),
            slow=BurnWindow(60, 2.0),
            severity="ticket",
        ),
    ]


def default_service_rules(shed_budget: float = 0.05,
                          wal_lag_budget: float = 256.0) -> list[SLORule]:
    """Burn rules for the placement service (standalone ``repro serve``).

    ``admission_shed`` pages when requests are being shed faster than the
    tolerated ``shed_budget`` fraction — sustained overload, a stuck
    solver, or an under-provisioned pool.  ``wal_lag`` tickets when the
    journal outgrows ``wal_lag_budget`` records past the last compaction,
    meaning checkpointing has stalled and recovery time is growing.
    """
    return [
        SLORule(
            name="admission_shed",
            metric="shed_rate",
            budget=shed_budget,
            fast=BurnWindow(5, 10.0),
            slow=BurnWindow(60, 2.0),
            severity="page",
        ),
        SLORule(
            name="wal_lag",
            metric="wal_lag",
            budget=wal_lag_budget,
            fast=BurnWindow(5, 2.0),
            slow=BurnWindow(60, 1.0),
            severity="ticket",
        ),
    ]


def load_rules(path: str | Path) -> list[SLORule]:
    """Load rules from a YAML or JSON file.

    The file holds either a top-level list of rule dicts or a mapping with
    a ``rules:`` key.  YAML needs the interpreter to ship ``pyyaml``; JSON
    always works (YAML is a superset, so ``.yaml`` files containing JSON
    parse either way).
    """
    path = Path(path)
    text = path.read_text()
    data = None
    if path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:  # pragma: no cover - yaml ships in the image
            yaml = None
        if yaml is not None:
            data = yaml.safe_load(text)
    if data is None:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"could not parse SLO rules from {path}: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("rules", [])
    if not isinstance(data, list):
        raise ValueError(
            f"SLO rule file {path} must hold a list of rules or a mapping "
            f"with a 'rules' key, got {type(data).__name__}")
    return [SLORule.from_dict(d) for d in data]


@dataclass
class ActiveAlert:
    """Book-keeping for one currently-firing rule."""

    rule: SLORule
    fired_at: int
    burn_fast: float
    burn_slow: float


@dataclass
class AlertSpan:
    """A closed or open alert interval, for the dashboard timeline."""

    rule: str
    severity: str
    fired_at: int
    resolved_at: int | None = None
    peak_burn_fast: float = 0.0

    @property
    def open(self) -> bool:
        return self.resolved_at is None


class SLOEngine:
    """Evaluates burn-rate rules against a recorder, once per interval.

    Parameters
    ----------
    recorder:
        The :class:`TimeSeriesRecorder` whose windows supply burn rates.
        Its ``window`` must cover the slowest rule window.
    rules:
        Rules to evaluate; defaults to :func:`default_rules`.
    telemetry:
        Telemetry facade to emit alert events through; resolved from the
        ambient context when omitted.  Pass ``telemetry=False``-y only via
        ``emit=False``.
    emit:
        When False the engine never touches the bus (replay mode, where
        recorded alert events already exist in the stream).
    """

    def __init__(self, recorder: TimeSeriesRecorder,
                 rules: list[SLORule] | None = None, *,
                 telemetry=None, emit: bool = True):
        self.recorder = recorder
        self.rules = list(rules) if rules is not None else default_rules()
        for rule in self.rules:
            if rule.slow.window > recorder.window:
                raise ValueError(
                    f"rule {rule.name!r} slow window ({rule.slow.window}) "
                    f"exceeds recorder window ({recorder.window})")
        names = [r.name for r in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {sorted(names)}")
        self._telemetry = telemetry
        self._emit = emit
        #: rule name -> ActiveAlert for currently-firing rules
        self.active: dict[str, ActiveAlert] = {}
        #: chronological fired/resolved spans (open spans have resolved_at
        #: None until resolution)
        self.timeline: list[AlertSpan] = []
        self.fired_total = 0
        self.resolved_total = 0

    def _open_span(self, rule_name: str) -> AlertSpan | None:
        """The still-open timeline span for a rule, newest first."""
        for span in reversed(self.timeline):
            if span.rule == rule_name and span.open:
                return span
        return None

    def has_active_alerts(self, severity: str | None = None) -> bool:
        """Whether any rule (of the given severity) is currently firing."""
        if severity is None:
            return bool(self.active)
        return any(a.rule.severity == severity for a in self.active.values())

    def evaluate(self, time: int) -> list[AlertFired | AlertResolved]:
        """Evaluate every rule at interval ``time``; emit state changes."""
        transitions: list[AlertFired | AlertResolved] = []
        for rule in self.rules:
            # no verdicts until the fast window has real data: burn rates
            # over near-empty windows are wild
            if self.recorder.ticks < rule.fast.window:
                continue
            burn_fast = self.recorder.burn(
                rule.metric, rule.fast.window, rule.budget)
            burn_slow = self.recorder.burn(
                rule.metric, rule.slow.window, rule.budget)
            current = self.active.get(rule.name)
            if current is None:
                if (burn_fast >= rule.fast.factor
                        and burn_slow >= rule.slow.factor):
                    self.active[rule.name] = ActiveAlert(
                        rule=rule, fired_at=time,
                        burn_fast=burn_fast, burn_slow=burn_slow)
                    self.timeline.append(AlertSpan(
                        rule=rule.name, severity=rule.severity,
                        fired_at=time, peak_burn_fast=burn_fast))
                    self.fired_total += 1
                    transitions.append(AlertFired(
                        time=time, rule=rule.name, metric=rule.metric,
                        severity=rule.severity, burn_fast=burn_fast,
                        burn_slow=burn_slow, budget=rule.budget))
            else:
                current.burn_fast = burn_fast
                current.burn_slow = burn_slow
                span = self._open_span(rule.name)
                if span is not None and burn_fast > span.peak_burn_fast:
                    span.peak_burn_fast = burn_fast
                if burn_fast < rule.fast.factor:
                    del self.active[rule.name]
                    if span is not None:
                        span.resolved_at = time
                    self.resolved_total += 1
                    transitions.append(AlertResolved(
                        time=time, rule=rule.name,
                        active_intervals=time - current.fired_at))
        if self._emit and transitions:
            tel = self._telemetry if self._telemetry is not None else resolve()
            for event in transitions:
                tel.events.emit(event)
        return transitions
