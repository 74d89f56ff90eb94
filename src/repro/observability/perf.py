"""Phase attribution: where a simulated tick spends its time.

The simulator is permanently instrumented with ``timed`` spans.
:class:`PhaseAttributor` partitions the per-run span tree into the tick
*phases* (demand generation, failure injection, scheduling, migration,
reconsolidation, serving, monitoring, energy accounting — and the telemetry
pipeline itself), attributing every span's *self* time to exactly one
phase so the phase columns always sum to total tick time.
:class:`PerfSnapshot` is the dashboard's PERF panel: that attribution plus
the simulated throughput.

Benchmarking lives in ``perfbench/`` (see ``perfbench/README.md`` and
``BENCHMARK.json``), not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.telemetry.profiling import Profiler, Span

__all__ = [
    "PHASE_MAP",
    "PHASE_ORDER",
    "PhaseReport",
    "PhaseAttributor",
    "PerfSnapshot",
]

#: span name -> tick phase; spans not listed inherit their parent's phase
PHASE_MAP: dict[str, str] = {
    "phase.demand": "demand",
    "datacenter.step": "demand",
    "phase.failures": "failures",
    "failures.step": "failures",
    "phase.scheduler": "scheduler",
    "scheduler.resolve_overloads": "scheduler",
    "reconsolidation.replan": "reconsolidation",
    "migration.attempt": "migration",
    "phase.serving": "serving",
    "phase.monitor": "monitor",
    "phase.energy": "energy",
    "telemetry.emit": "telemetry",
}

#: canonical phase ordering (the PERF panel's rows)
PHASE_ORDER: tuple[str, ...] = (
    "demand", "failures", "scheduler", "migration", "reconsolidation",
    "serving", "monitor", "energy", "telemetry", "other",
)


@dataclass(frozen=True)
class PhaseReport:
    """Wall-time attribution of one span tree across the tick phases.

    ``phase_seconds`` is an exact partition of ``tick_seconds``: every
    span's *self* time (total minus children) lands in exactly one phase,
    so ``sum(phase_seconds.values()) == tick_seconds`` up to float
    rounding.
    """

    tick_seconds: float
    tick_count: int
    phase_seconds: dict[str, float]

    @property
    def phase_fraction(self) -> dict[str, float]:
        """Each phase's share of total tick time (zeros when no ticks)."""
        total = self.tick_seconds
        return {p: (s / total if total > 0 else 0.0)
                for p, s in self.phase_seconds.items()}


class PhaseAttributor:
    """Aggregates a profiler span tree into per-phase wall time.

    Every ``tick`` subtree is walked depth-first; a node belongs to
    ``phase_map[name]`` when its name is mapped, otherwise it inherits the
    phase of its nearest mapped ancestor (unmapped spans directly under
    ``tick`` — and ``tick``'s own bookkeeping — count as ``"other"``).
    Because only *self* seconds are accumulated, the phases exactly
    partition total tick time no matter how deep the tree nests.
    """

    def __init__(self, phase_map: Mapping[str, str] | None = None):
        self.phase_map = dict(PHASE_MAP if phase_map is None else phase_map)

    def attribute(self, profiler_or_root: Profiler | Span) -> PhaseReport:
        """Attribute one span tree (a profiler or its root span)."""
        root = (profiler_or_root.root
                if isinstance(profiler_or_root, Profiler)
                else profiler_or_root)
        phase_seconds: dict[str, float] = {p: 0.0 for p in PHASE_ORDER}
        tick_seconds = 0.0
        tick_count = 0

        def walk(span: Span, phase: str) -> None:
            phase = self.phase_map.get(span.name, phase)
            phase_seconds[phase] = (phase_seconds.get(phase, 0.0)
                                    + span.self_seconds)
            for child in span.children.values():
                walk(child, phase)

        def find_ticks(span: Span) -> None:
            nonlocal tick_seconds, tick_count
            if span.name == "tick":
                tick_seconds += span.total_seconds
                tick_count += span.count
                phase_seconds["other"] += span.self_seconds
                for child in span.children.values():
                    walk(child, "other")
                return
            for child in span.children.values():
                find_ticks(child)

        find_ticks(root)
        return PhaseReport(
            tick_seconds=tick_seconds,
            tick_count=tick_count,
            phase_seconds=phase_seconds,
        )


@dataclass(frozen=True)
class PerfSnapshot:
    """Live perf headline for the dashboard PERF panel.

    The throughput counts tick time only (``tick_count * n_vms /
    tick_seconds``, perfbench's ``sim_vm_intervals_per_s``): set-up,
    placement and the panel's own rendering stay out of it.
    """

    report: PhaseReport
    vm_intervals_per_second: float

    @classmethod
    def capture(cls, profiler: Profiler, *, n_vms: int) -> "PerfSnapshot":
        report = PhaseAttributor().attribute(profiler)
        seconds = report.tick_seconds
        rate = report.tick_count * n_vms / seconds if seconds > 0 else 0.0
        return cls(report=report, vm_intervals_per_second=rate)
