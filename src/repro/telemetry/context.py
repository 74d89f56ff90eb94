"""The `Telemetry` facade and the ambient-telemetry context.

One :class:`Telemetry` object bundles the three planes — event bus,
metrics registry, profiler — so instrumented components need a single
handle.  Components accept ``telemetry=None`` and resolve it against the
module-level default (:func:`resolve`), which is how ``python -m repro
trace`` instruments experiment code that never heard of telemetry: the CLI
installs a default with :func:`tracing` and every component constructed
inside the block picks it up.

Overhead policy (also documented in DESIGN.md):

- no telemetry resolved (``None``) — producers skip all publishing;
- telemetry without sinks — metrics and spans only, events skipped at the
  ``bus.enabled`` check before construction;
- telemetry with a ring/JSONL sink — full event stream.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.telemetry.bus import EventBus
from repro.telemetry.events import TelemetryEvent
from repro.telemetry.metrics import Counter, MetricsRegistry
from repro.telemetry.profiling import Profiler
from repro.telemetry.sinks import RingBufferSink, Sink


class Telemetry:
    """Event bus + metrics registry + profiler, as one handle.

    Parameters
    ----------
    sinks:
        Event sinks to attach (none = metrics/spans only).
    """

    def __init__(self, *sinks: Sink):
        self.events = EventBus(sinks)
        self.metrics = MetricsRegistry()
        self.profiler = Profiler()
        # Monotonic id shared by every *Decided provenance event emitted
        # through this context.  Decision order is deterministic for a
        # seeded run, so ids are stable across replays of the same seed.
        self._next_decision_id = 0
        # Ring-sink overflow must surface somewhere queryable: route each
        # eviction into a counter so a truncated trace is detectable.
        dropped = self.metrics.counter(
            "spans_dropped_total",
            "events evicted from bounded ring-buffer sinks")
        for sink in self.events.sinks:
            if isinstance(sink, RingBufferSink) and sink.on_drop is None:
                sink.on_drop = dropped.inc

    def emit(self, event: TelemetryEvent) -> None:
        """Shorthand for ``telemetry.events.emit(event)``."""
        self.events.emit(event)

    def next_decision_id(self) -> int:
        """Allocate the next provenance decision id (monotonic from 0)."""
        did = self._next_decision_id
        self._next_decision_id += 1
        return did

    def close(self) -> None:
        """Close every event sink (flushes JSONL files)."""
        self.events.close()

    def digest(self) -> str:
        """Compact human-readable snapshot: events, counters, top spans.

        One line of event/metric totals plus the non-zero counters; the
        full registry is available via ``metrics.to_json()`` and the full
        span tree via ``profiler.summary()``.
        """
        lines = [f"telemetry: {self.events.emitted} events emitted, "
                 f"{len(self.metrics)} metrics"]
        counters = {m.name: m.value for m in self.metrics
                    if isinstance(m, Counter) and m.value}
        if counters:
            lines.append("  counters: " + ", ".join(
                f"{name}={value:g}" for name, value in sorted(counters.items())
            ))
        if not self.profiler.empty:
            lines.append(self.profiler.summary())
        return "\n".join(lines)


#: the ambient telemetry components fall back to (None = telemetry off)
_default: Telemetry | None = None


def set_telemetry(telemetry: Telemetry | None) -> Telemetry | None:
    """Install ``telemetry`` as the ambient default; returns the previous."""
    global _default
    previous = _default
    _default = telemetry
    return previous


def resolve(explicit: Telemetry | None) -> Telemetry | None:
    """An explicitly passed telemetry wins; otherwise the ambient default."""
    return explicit if explicit is not None else _default


@contextmanager
def tracing(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` as the default *and* activate its profiler.

    Everything constructed and run inside the block publishes into it::

        with tracing(Telemetry(RingBufferSink())) as tel:
            report = scenario.run(100, seed=7)
        print(tel.digest())
    """
    previous = set_telemetry(telemetry)
    try:
        with telemetry.profiler:
            yield telemetry
    finally:
        set_telemetry(previous)
