"""Rate-limited logging for long degraded runs.

A run that strands a VM once per interval for 10k intervals would emit 10k
identical WARN lines; operators need the first one, a periodic reminder,
and an honest count of what was dropped.  :class:`LogRateLimiter` keys
suppression on ``(source, kind)`` and *simulation* time, so the policy is
deterministic and testable: one line per key per ``window`` intervals, the
rest counted — and published to a metrics counter when one is attached.
"""

from __future__ import annotations

import logging

from repro.telemetry.metrics import Counter

__all__ = ["LogRateLimiter"]


class LogRateLimiter:
    """Allow one log line per ``(source, kind)`` per ``window`` intervals.

    Parameters
    ----------
    window:
        Minimum simulation-time distance between two emitted lines with the
        same key.  ``window=50`` means at most one line per key per 50
        intervals.
    counter:
        Optional metrics :class:`~repro.telemetry.metrics.Counter`
        (conventionally ``log_suppressed_total``) incremented once per
        suppressed line.
    """

    def __init__(self, window: int = 50, counter: Counter | None = None):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.counter = counter
        self.suppressed = 0
        self._last: dict[tuple[str, str], int] = {}
        self._dropped: dict[tuple[str, str], int] = {}

    def allow(self, source: str, kind: str, time: int) -> bool:
        """Whether a line keyed ``(source, kind)`` may be logged at ``time``.

        Time moving backwards (a fresh run reusing the limiter) re-opens the
        window rather than suppressing forever.
        """
        key = (source, kind)
        last = self._last.get(key)
        if last is None or time - last >= self.window or time < last:
            self._last[key] = time
            return True
        self.suppressed += 1
        self._dropped[key] = self._dropped.get(key, 0) + 1
        if self.counter is not None:
            self.counter.inc()
        return False

    def warning(self, logger: logging.Logger, source: str, kind: str,
                time: int, msg: str, *args) -> bool:
        """Rate-limited ``logger.warning``; returns True when emitted.

        When earlier lines with the same key were suppressed, the emitted
        line is suffixed with their count so no information silently
        disappears from the log.
        """
        if not self.allow(source, kind, time):
            return False
        dropped = self._dropped.pop((source, kind), 0)
        if dropped:
            msg = msg + " (+%d similar suppressed)"
            args = (*args, dropped)
        logger.warning(msg, *args)
        return True
