"""Event sinks: where emitted telemetry events go.

Three sinks cover the spectrum the tracing workflows need:

- :class:`NullSink` — the default; swallows everything, so an untraced run
  pays essentially nothing (the bus short-circuits before events are even
  constructed);
- :class:`RingBufferSink` — in-memory buffer (optionally bounded) for tests
  and interactive inspection;
- :class:`JSONLSink` — one JSON object per line, replayable afterwards with
  :func:`read_events_tolerant`.

Sinks are intentionally dumb: ordering, filtering and fan-out live in
:class:`repro.telemetry.bus.EventBus`.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from pathlib import Path
from typing import IO, Protocol, runtime_checkable

from repro.telemetry.events import TelemetryEvent, event_from_dict

logger = logging.getLogger(__name__)

#: corrupt-line warnings printed per file before going quiet
_MAX_SKIP_WARNINGS = 3


@runtime_checkable
class Sink(Protocol):
    """Anything that can receive emitted events."""

    def emit(self, event: TelemetryEvent) -> None: ...

    def close(self) -> None: ...


class NullSink:
    """Discards every event (the zero-overhead default)."""

    def emit(self, event: TelemetryEvent) -> None:
        pass

    def close(self) -> None:
        pass


class RingBufferSink:
    """Keeps the last ``capacity`` events in memory (all of them if None).

    When bounded and full, the oldest event is evicted; evictions are
    counted in :attr:`dropped` and reported through ``on_drop`` (wired by
    :class:`repro.telemetry.context.Telemetry` to the
    ``spans_dropped_total`` counter) so overflow is never silent.
    """

    def __init__(self, capacity: int | None = None, *,
                 on_drop=None):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self._buffer: deque[TelemetryEvent] = deque(maxlen=capacity)
        self._capacity = capacity
        self.dropped = 0
        self.on_drop = on_drop

    def emit(self, event: TelemetryEvent) -> None:
        if (self._capacity is not None
                and len(self._buffer) == self._capacity):
            self.dropped += 1
            if self.on_drop is not None:
                self.on_drop(1)
        self._buffer.append(event)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def events(self) -> list[TelemetryEvent]:
        """Snapshot of the buffered events, oldest first."""
        return list(self._buffer)


class JSONLSink:
    """Appends each event as one JSON line to a file (replayable log)."""

    def __init__(self, path: str | Path, *, append: bool = False):
        self.path = Path(path)
        self._fh: IO[str] | None = self.path.open("a" if append else "w")
        self.n_written = 0

    def emit(self, event: TelemetryEvent) -> None:
        if self._fh is None:
            raise ValueError(f"JSONLSink({self.path}) is closed")
        self._fh.write(json.dumps(event.to_dict(), separators=(",", ":")))
        self._fh.write("\n")
        self.n_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JSONLSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events_tolerant(path: str | Path) -> tuple[list[TelemetryEvent], int]:
    """Replay a JSONL event log, skipping truncated or corrupt lines.

    A crashed writer leaves a half-written last line; a concatenated or
    hand-edited log may hold unknown kinds or garbage.  Each bad line is
    skipped with a (capped) warning instead of aborting the replay; the
    second return value is the number of lines dropped.
    """
    events: list[TelemetryEvent] = []
    skipped = 0
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(event_from_dict(json.loads(line)))
            except (ValueError, TypeError) as exc:
                # json.JSONDecodeError is a ValueError; unknown kinds raise
                # ValueError; wrong/missing fields raise TypeError.
                skipped += 1
                if skipped <= _MAX_SKIP_WARNINGS:
                    logger.warning("%s:%d: skipping corrupt event line (%s)",
                                   path, lineno, exc)
                elif skipped == _MAX_SKIP_WARNINGS + 1:
                    logger.warning("%s: further corrupt lines suppressed",
                                   path)
    if skipped:
        logger.warning("%s: %d corrupt line(s) skipped during replay",
                       path, skipped)
    return events, skipped
