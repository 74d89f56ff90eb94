"""In-memory span recording around the program's public entry points.

The benchmark never edits the program.  To attribute time to layers it
swaps an attribute (an instance method, a class method or a module-level
function binding) for a wrapper that records one span per call, exactly as
``repro.observability.perf._install_slow_phase`` swaps a component method.
Every swap is undone by :meth:`Tracer.restore`.

A span is ``[name, start, end, parent, probes]``: CPU-clock start and end
(:class:`clock.SpeedClock`), the index of the enclosing span (``-1`` for a
root), and how many speed probes had run when it opened.  Durations are
rescaled to reference seconds like the end-to-end laps.  Self time is a
span's duration minus the durations of its direct children, so the self
times of all spans under a set of roots sum exactly to the roots' total
duration (no probe runs inside a span, so a span and its children share
one scale).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import process_time
from typing import Any, Callable

from clock import SpeedClock

_MISSING = object()


class Tracer:
    """Records nested spans in memory; written out once, at the end."""

    def __init__(self, clock: SpeedClock) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, len(self.clock.probes)])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[1] = start
        span[2] = end

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        idx = self._open(name)
        start = process_time()
        try:
            yield
        finally:
            self._close(idx, start, process_time())

    def wrap(self, owner: Any, attr: str, name: str,
             measure: Callable[[], int] | None = None,
             counter: list | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``measure`` (optional) is called before and after the original
        call, inside the span, and the difference is added to
        ``counter[0]`` -- used to count bytes a call writes.
        """
        had_own = attr in getattr(owner, "__dict__", {})
        original = getattr(owner, attr)
        if isinstance(owner, type):
            # a class attribute: wrap the plain function so it still binds
            original = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            start = process_time()
            before = measure() if measure is not None else 0
            try:
                return original(*args, **kwargs)
            finally:
                if measure is not None:
                    counter[0] += measure() - before
                self._close(idx, start, process_time())

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original if had_own else _MISSING))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def _durations(self) -> list[float]:
        scale = self.clock.scale
        return [(end - start) * scale(k) for _, start, end, _, k in self.spans]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name (reference seconds)."""
        duration = self._durations()
        child_sum = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child_sum[span[3]] += duration[i]
        out: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            out[span[0]] = out.get(span[0], 0.0) + duration[i] - child_sum[i]
        return out

    def root_total(self) -> float:
        """Summed duration of all root spans (reference seconds)."""
        return sum(d for d, span in zip(self._durations(), self.spans)
                   if span[3] < 0)

    def calls(self, name: str) -> int:
        """Number of spans recorded under ``name``."""
        return sum(1 for s in self.spans if s[0] == name)

    def write(self, path: Path, *, label: str) -> None:
        """Append the spans as JSON lines (one object per span): CPU-clock
        start and end, and the scale to reference seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        scale = self.clock.scale
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, k) in enumerate(self.spans):
                fh.write(json.dumps({"run": label, "id": i, "name": name,
                                     "start": start, "end": end,
                                     "scale": scale(k),
                                     "parent": parent}) + "\n")


class NullTracer:
    """The untraced stand-in: same interface, records nothing."""

    spans: list = []

    @contextmanager
    def span(self, name: str):
        yield

    def wrap(self, owner: Any, attr: str, name: str,
             measure: Callable[[], int] | None = None,
             counter: list | None = None) -> None:
        pass

    def restore(self) -> None:
        pass
