"""repro.telemetry — structured events, metrics, and profiling hooks.

Three planes, one facade:

- **events** (:mod:`~repro.telemetry.events`, :mod:`~repro.telemetry.bus`,
  :mod:`~repro.telemetry.sinks`): typed, deterministic, replayable records
  of every state transition the simulator performs;
- **metrics** (:mod:`~repro.telemetry.metrics`): counters/gauges/histograms
  with a JSON exporter;
- **profiling** (:mod:`~repro.telemetry.profiling`): nested wall-clock
  spans over the hot paths, summarized as a tree.

Quickstart::

    from repro.telemetry import Telemetry, RingBufferSink, tracing

    buffer = RingBufferSink()
    with tracing(Telemetry(buffer)) as tel:
        report = Scenario(vms, pms, placer=QueuingFFD()).run(100, seed=7)
    print(tel.digest())          # metrics + span tree
    print(len(buffer.events))    # the raw event stream
"""

from repro.telemetry.bus import EventBus
from repro.telemetry.context import Telemetry, resolve, set_telemetry, tracing
from repro.telemetry.events import (
    EVENT_TYPES,
    PRE_RUN,
    AdmissionRejected,
    AlertFired,
    AlertResolved,
    BenchJobFinished,
    BenchJobInterrupted,
    BenchJobQuarantined,
    BenchJobRetried,
    BenchJobStarted,
    BenchRunStarted,
    CapacityViolation,
    CheckpointWritten,
    DegradationApplied,
    DriftDetected,
    IntervalSnapshot,
    MigrationCompleted,
    MigrationDecided,
    MigrationFailed,
    MigrationStarted,
    PlacementDecided,
    PMCrashed,
    PMRepaired,
    PoolScaled,
    ReconsolidationDecided,
    ReconsolidationTriggered,
    RefitCompleted,
    RefitRejected,
    ReplanCommitted,
    ReplanDecided,
    ReplanRolledBack,
    ReplanStarted,
    RunResumed,
    ServiceRestored,
    ServiceSnapshot,
    ServingSnapshot,
    SolverDegraded,
    TargetBlacklisted,
    TelemetryEvent,
    VMPlaced,
    VMStranded,
    WALReplayed,
    event_from_dict,
)
from repro.telemetry.logfilter import LogRateLimiter
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.profiling import Profiler, Span, timed
from repro.telemetry.sinks import (
    JSONLSink,
    NullSink,
    RingBufferSink,
    Sink,
    read_events_tolerant,
)

__all__ = [
    "EventBus",
    "Telemetry",
    "resolve",
    "set_telemetry",
    "tracing",
    "EVENT_TYPES",
    "PRE_RUN",
    "AdmissionRejected",
    "AlertFired",
    "AlertResolved",
    "BenchJobFinished",
    "BenchJobInterrupted",
    "BenchJobQuarantined",
    "BenchJobRetried",
    "BenchJobStarted",
    "BenchRunStarted",
    "CapacityViolation",
    "CheckpointWritten",
    "DegradationApplied",
    "DriftDetected",
    "IntervalSnapshot",
    "MigrationCompleted",
    "MigrationDecided",
    "MigrationFailed",
    "MigrationStarted",
    "PlacementDecided",
    "PMCrashed",
    "PMRepaired",
    "PoolScaled",
    "ReconsolidationDecided",
    "ReconsolidationTriggered",
    "RefitCompleted",
    "RefitRejected",
    "ReplanCommitted",
    "ReplanDecided",
    "ReplanRolledBack",
    "ReplanStarted",
    "RunResumed",
    "ServiceRestored",
    "ServiceSnapshot",
    "ServingSnapshot",
    "SolverDegraded",
    "TargetBlacklisted",
    "TelemetryEvent",
    "VMPlaced",
    "VMStranded",
    "WALReplayed",
    "event_from_dict",
    "LogRateLimiter",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Profiler",
    "Span",
    "timed",
    "JSONLSink",
    "NullSink",
    "RingBufferSink",
    "Sink",
    "read_events_tolerant",
]
