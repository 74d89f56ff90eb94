"""Bounded admission inbox with per-class priorities and typed shedding.

Overload protection for the placement service: arrivals park in a bounded
inbox before placement, and when the inbox is full the service *sheds* —
a typed, journaled rejection — instead of growing memory without bound or
silently dropping work.  Two shed paths exist:

- ``shed_inbox_full`` — the inbox is at capacity and the arrival does not
  outrank anything queued; the *arrival* is rejected with backpressure.
- ``shed_priority`` — the arrival outranks a queued lower-class request;
  the *queued* request is evicted to make room (critical traffic is never
  stuck behind a wall of batch arrivals).

Within a class the inbox is FIFO, so admission order stays deterministic
— a property the crash-recovery parity drill depends on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.types import VMSpec
from repro.placement.base import REASON_SHED_INBOX, REASON_SHED_PRIORITY

#: admission classes, most important first; lower rank wins
CLASS_RANK = {"critical": 0, "standard": 1, "batch": 2}


@dataclass(frozen=True)
class Request:
    """One admission request: an idempotency key, a VM spec, a class."""

    key: str
    vm: VMSpec
    vm_class: str = "standard"

    def __post_init__(self) -> None:
        if self.vm_class not in CLASS_RANK:
            raise ValueError(
                f"unknown vm_class {self.vm_class!r}; "
                f"expected one of {sorted(CLASS_RANK)}")

    @property
    def rank(self) -> int:
        return CLASS_RANK[self.vm_class]


@dataclass
class Shed:
    """A shedding outcome: which request was turned away, and why."""

    request: Request
    reason: str  # REASON_SHED_INBOX or REASON_SHED_PRIORITY


class AdmissionInbox:
    """A bounded, class-prioritized FIFO of pending admissions.

    ``offer`` either enqueues the request, or returns the :class:`Shed`
    that made room / turned it away; ``pop`` dequeues the next request to
    place (highest class first, FIFO within a class).  Total queued
    requests never exceed ``capacity`` — the bounded-memory guarantee the
    overload test asserts.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("inbox capacity must be >= 1")
        self.capacity = int(capacity)
        self._queues: dict[str, deque[Request]] = {
            cls: deque() for cls in CLASS_RANK
        }
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def depth(self) -> int:
        """Current queue depth (alias used by telemetry)."""
        return self._size

    def offer(self, request: Request) -> Shed | None:
        """Enqueue ``request`` or shed; returns the shed outcome, if any.

        When the inbox is full, the lowest-ranked queued request that the
        arrival strictly outranks is evicted from the *back* of its class
        queue (newest first — it has waited least) and returned as a
        ``shed_priority`` outcome; if nothing queued ranks below the
        arrival, the arrival itself is returned as ``shed_inbox_full``.
        """
        if self._size < self.capacity:
            self._queues[request.vm_class].append(request)
            self._size += 1
            return None
        # Full: try to evict the worst-ranked queued request below us.
        for cls in sorted(CLASS_RANK, key=CLASS_RANK.get, reverse=True):
            if CLASS_RANK[cls] <= request.rank:
                break
            if self._queues[cls]:
                victim = self._queues[cls].pop()
                self._queues[request.vm_class].append(request)
                return Shed(request=victim, reason=REASON_SHED_PRIORITY)
        return Shed(request=request, reason=REASON_SHED_INBOX)

    def pop(self) -> Request | None:
        """Next request to place: highest class first, FIFO within class."""
        for cls in sorted(CLASS_RANK, key=CLASS_RANK.get):
            if self._queues[cls]:
                self._size -= 1
                return self._queues[cls].popleft()
        return None
