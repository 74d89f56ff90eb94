"""Profiling hooks: nested wall-clock spans with a tree summary.

Hot paths wrap themselves in ``with timed("name"):``.  The context manager
reads one module-level slot: when no profiler is active it yields
immediately (sub-microsecond), so permanent instrumentation of MapCal
solves, packing passes and the per-tick step costs nothing in normal runs.
Activate a profiler for a region with::

    prof = Profiler()
    with prof:                 # installs prof as the active profiler
        run_experiment()
    print(prof.summary())      # indented span tree with calls/total/mean

Spans nest by call structure (a ``timed`` inside a ``timed`` becomes a
child span), giving a tree like::

    tick                      100 calls   512.3 ms
      scheduler.resolve       100 calls   130.1 ms
      failures.step           100 calls    20.4 ms

The profiler is deliberately single-threaded (the simulator is too); the
active-profiler slot is plain module state, not thread-local.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One node of the span tree: aggregated timings for a code region."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    errors: int = 0
    children: dict[str, "Span"] = field(default_factory=dict)

    def child(self, name: str) -> "Span":
        """Get or create the child span ``name``."""
        node = self.children.get(name)
        if node is None:
            node = Span(name)
            self.children[name] = node
        return node

    @property
    def mean_seconds(self) -> float:
        """Mean duration per call (NaN when never entered)."""
        return self.total_seconds / self.count if self.count else float("nan")

    @property
    def self_seconds(self) -> float:
        """Time spent in this span minus its children (own work)."""
        return self.total_seconds - sum(
            c.total_seconds for c in self.children.values()
        )

    def to_dict(self) -> dict:
        """JSON-serializable span subtree."""
        return {
            "name": self.name,
            "count": self.count,
            "total_seconds": self.total_seconds,
            "errors": self.errors,
            "children": [c.to_dict() for c in self.children.values()],
        }


class Profiler:
    """Collects nested spans; install with ``with profiler:``."""

    def __init__(self) -> None:
        self.root = Span("<root>")
        self._stack: list[Span] = [self.root]
        self._previous: list["Profiler | None"] = []

    # ------------------------------------------------------------------ #
    # activation (module-level slot read by the global `timed`)
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Profiler":
        global _active
        self._previous.append(_active)
        _active = self
        return self

    def __exit__(self, *exc) -> None:
        global _active
        _active = self._previous.pop()

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    @property
    def empty(self) -> bool:
        """True when no span was ever recorded."""
        return not self.root.children

    def to_dict(self) -> dict:
        """JSON-serializable span forest (the root's children)."""
        return {"spans": [c.to_dict() for c in self.root.children.values()]}

    def summary(self) -> str:
        """Indented span-tree report: calls, total, mean, self time."""
        if self.empty:
            return "(no spans recorded)"
        lines = [f"{'span':<44s} {'calls':>8s} {'total':>10s} "
                 f"{'mean':>10s} {'self':>10s}"]

        def walk(span: Span, depth: int) -> None:
            label = "  " * depth + span.name
            lines.append(
                f"{label:<44s} {span.count:>8d} "
                f"{_fmt_seconds(span.total_seconds):>10s} "
                f"{_fmt_seconds(span.mean_seconds):>10s} "
                f"{_fmt_seconds(span.self_seconds):>10s}"
            )
            for c in span.children.values():
                walk(c, depth + 1)

        for top in self.root.children.values():
            walk(top, 0)
        return "\n".join(lines)


def _fmt_seconds(s: float) -> str:
    if s != s:  # NaN
        return "-"
    if s >= 1.0:
        return f"{s:.2f}s"
    if s >= 1e-3:
        return f"{s * 1e3:.1f}ms"
    return f"{s * 1e6:.0f}us"


#: the currently active profiler (None = profiling off)
_active: Profiler | None = None


class timed:
    """Time a region under the active profiler; near-free when none is active.

    A hand-rolled context manager (no ``@contextmanager`` generator
    machinery) because it wraps hot paths permanently: with profiling off,
    entering costs one module-slot read.
    """

    __slots__ = ("_name", "_open", "_start")

    def __init__(self, name: str) -> None:
        self._name = name
        self._open: tuple[Profiler, Span] | None = None

    def __enter__(self) -> None:
        profiler = _active
        if profiler is None:
            self._open = None
            return
        span = profiler._stack[-1].child(self._name)
        profiler._stack.append(span)
        self._open = (profiler, span)
        self._start = time.perf_counter()

    def __exit__(self, exc_type=None, exc=None, tb=None) -> None:
        if self._open is None:
            return
        profiler, span = self._open
        self._open = None  # double-exit safe
        try:
            # The span must be recorded even when the body raised: a
            # failing phase still spent its wall time, and dropping it
            # would skew the attribution of everything around it.
            span.total_seconds += time.perf_counter() - self._start
            span.count += 1
            if exc_type is not None:
                span.errors += 1
        finally:
            profiler._stack.pop()
