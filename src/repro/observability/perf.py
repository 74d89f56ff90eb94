"""The performance observatory: phase attribution, scaling probes, budgets.

The simulator has been permanently instrumented with ``timed`` spans since
PR 2, but the tree was only ever printed.  This module turns those spans
into actionable perf data, in four pieces:

- :class:`PhaseAttributor` partitions the per-run span tree into the tick
  *phases* (demand generation, failure injection, scheduling, migration,
  reconsolidation, serving, monitoring, energy accounting — and the telemetry
  pipeline itself), attributing every span's *self* time to exactly one
  phase so the phase columns always sum to total tick time.
- :func:`run_perf_sweep` is the scaling-probe harness behind ``python -m
  repro perf``: it sweeps fleet sizes, runs each point through the bench
  runner, and writes a deterministic ``BENCH_PERF.json`` (run-invariant
  facts only) next to a wall-clock sidecar ``BENCH_PERF_timings.json`` and
  a Chrome-trace export loadable in ``chrome://tracing`` / Perfetto.
- :class:`PerfBudget` checks a flat timings dict against committed budget
  rules (max/min with relative tolerance) — the ``repro compare --budget``
  CI gate.
- :func:`spans_to_chrome_trace` / :func:`chrome_trace_to_spans` export the
  aggregated span forest as Chrome trace events and read it back
  losslessly (exact totals ride in ``args``; the B/E nesting is synthetic
  layout for the viewer).

Determinism contract (same as ``BENCH_results.json``): everything in
``BENCH_PERF.json`` is a run-invariant fact at a fixed seed — structure
counts, event counts, span call counts — so two runs of the same sweep
produce byte-identical files.  Wall-clock, allocation peaks and phase
timings live in the sidecar.
"""

from __future__ import annotations

import fnmatch
import json
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.telemetry.profiling import Profiler, Span
from repro.utils.tables import format_table

__all__ = [
    "PHASE_MAP",
    "PHASE_ORDER",
    "PhaseReport",
    "PhaseAttributor",
    "MemoryProbe",
    "PerfSnapshot",
    "BudgetRule",
    "BudgetViolation",
    "PerfBudget",
    "flatten_metrics",
    "spans_to_chrome_trace",
    "chrome_trace_to_spans",
    "run_perf_sweep",
    "PerfPoint",
    "PerfSweepResult",
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

#: canonical phase ordering for tables and panels
PHASE_ORDER: tuple[str, ...] = (
    "demand", "failures", "scheduler", "migration", "reconsolidation",
    "serving", "monitor", "energy", "telemetry", "other",
)


# --------------------------------------------------------------------- #
# phase attribution
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PhaseReport:
    """Wall-time attribution of one span tree across the tick phases.

    ``phase_seconds`` is an exact partition of ``tick_seconds``: every
    span's *self* time (total minus children) lands in exactly one phase,
    so ``sum(phase_seconds.values()) == tick_seconds`` up to float
    rounding.  ``span_calls`` / ``span_errors`` are flat per-span-name
    aggregates (run-invariant at a fixed seed).
    """

    tick_seconds: float
    tick_count: int
    phase_seconds: dict[str, float]
    span_calls: dict[str, int]
    span_errors: dict[str, int]

    @property
    def phase_fraction(self) -> dict[str, float]:
        """Each phase's share of total tick time (zeros when no ticks)."""
        total = self.tick_seconds
        return {p: (s / total if total > 0 else 0.0)
                for p, s in self.phase_seconds.items()}

    def table(self, *, vm_intervals: int | None = None) -> str:
        """Aligned per-phase breakdown table."""
        rows = []
        for phase in PHASE_ORDER:
            seconds = self.phase_seconds.get(phase, 0.0)
            row = [phase, seconds * 1e3,
                   self.phase_fraction.get(phase, 0.0) * 100.0]
            if vm_intervals is not None:
                row.append(seconds * 1e9 / vm_intervals
                           if vm_intervals else 0.0)
            rows.append(row)
        total_row = ["total (tick)", self.tick_seconds * 1e3, 100.0]
        headers = ["phase", "ms", "%"]
        if vm_intervals is not None:
            total_row.append(self.tick_seconds * 1e9 / vm_intervals
                             if vm_intervals else 0.0)
            headers.append("ns/vm-interval")
        rows.append(total_row)
        return format_table(headers, rows, floatfmt=".2f",
                            title="phase attribution")


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
        span_calls: dict[str, int] = {}
        span_errors: dict[str, int] = {}
        tick_seconds = 0.0
        tick_count = 0

        def count(span: Span) -> None:
            span_calls[span.name] = span_calls.get(span.name, 0) + span.count
            if span.errors:
                span_errors[span.name] = (span_errors.get(span.name, 0)
                                          + span.errors)
            for child in span.children.values():
                count(child)

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

        count(root)
        span_calls.pop("<root>", None)
        find_ticks(root)
        return PhaseReport(
            tick_seconds=tick_seconds,
            tick_count=tick_count,
            phase_seconds=phase_seconds,
            span_calls=dict(sorted(span_calls.items())),
            span_errors=dict(sorted(span_errors.items())),
        )


@dataclass(frozen=True)
class PerfSnapshot:
    """Live perf headline for the dashboard PERF panel."""

    report: PhaseReport
    vm_intervals_per_second: float

    @classmethod
    def capture(cls, profiler: Profiler, *, n_vms: int,
                elapsed_seconds: float) -> "PerfSnapshot":
        report = PhaseAttributor().attribute(profiler)
        done = report.tick_count * n_vms
        rate = done / elapsed_seconds if elapsed_seconds > 0 else 0.0
        return cls(report=report, vm_intervals_per_second=rate)


# --------------------------------------------------------------------- #
# allocation sampling
# --------------------------------------------------------------------- #
class MemoryProbe:
    """Samples peak traced allocation with :mod:`tracemalloc`.

    Use as a context manager around one run::

        with MemoryProbe() as probe:
            scenario.run(...)
        print(probe.peak_bytes)

    tracemalloc slows execution noticeably, so the perf sweep runs the
    probe on a *dedicated* pass whose wall time is never reported.  When
    tracemalloc was already started by the caller (e.g. ``-X tracemalloc``)
    the probe piggybacks and leaves it running.
    """

    def __init__(self) -> None:
        self.peak_bytes = 0
        self.current_bytes = 0
        self._owns_trace = False

    def __enter__(self) -> "MemoryProbe":
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_trace = True
        tracemalloc.reset_peak()
        return self

    def __exit__(self, *exc) -> None:
        self.current_bytes, self.peak_bytes = tracemalloc.get_traced_memory()
        if self._owns_trace:
            tracemalloc.stop()
            self._owns_trace = False


# --------------------------------------------------------------------- #
# Chrome trace export / import
# --------------------------------------------------------------------- #
def spans_to_chrome_trace(forests: Mapping[str, dict]) -> dict:
    """Export span forests as a Chrome-trace-format (JSON object) dict.

    ``forests`` maps a label (one per process row in the viewer — e.g.
    ``"n200"`` or ``"worker:fig5"``) to a ``Profiler.to_dict()`` payload.
    Each aggregated span becomes a B/E duration pair on a synthetic
    timeline whose widths reflect the aggregated totals; the *exact*
    ``count`` / ``total_seconds`` / ``errors`` ride in ``args`` so
    :func:`chrome_trace_to_spans` round-trips losslessly.
    """
    events: list[dict] = []
    for pid, label in enumerate(sorted(forests), start=1):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 1,
            "args": {"name": label},
        })

        def emit(node: dict, cursor_us: float) -> float:
            total_us = float(node["total_seconds"]) * 1e6
            events.append({
                "name": node["name"], "ph": "B", "ts": cursor_us,
                "pid": pid, "tid": 1,
                "args": {
                    "count": node["count"],
                    "total_seconds": node["total_seconds"],
                    "errors": node.get("errors", 0),
                },
            })
            child_cursor = cursor_us
            for child in node.get("children", ()):
                child_cursor = emit(child, child_cursor)
            end = max(cursor_us + total_us, child_cursor)
            events.append({"name": node["name"], "ph": "E", "ts": end,
                           "pid": pid, "tid": 1})
            return end

        cursor = 0.0
        for top in forests[label].get("spans", ()):
            cursor = emit(top, cursor)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_to_spans(trace: dict) -> dict[str, dict]:
    """Inverse of :func:`spans_to_chrome_trace` (exact values from args)."""
    labels: dict[int, str] = {}
    by_pid: dict[int, list[dict]] = {}
    for event in trace.get("traceEvents", ()):
        pid = event["pid"]
        if event.get("ph") == "M" and event.get("name") == "process_name":
            labels[pid] = event["args"]["name"]
            by_pid.setdefault(pid, [])  # keep span-less processes
            continue
        by_pid.setdefault(pid, []).append(event)
    forests: dict[str, dict] = {}
    for pid, events in by_pid.items():
        label = labels.get(pid, f"pid{pid}")
        tops: list[dict] = []
        stack: list[dict] = []
        for event in events:
            if event["ph"] == "B":
                node = {
                    "name": event["name"],
                    "count": event["args"]["count"],
                    "total_seconds": event["args"]["total_seconds"],
                    "errors": event["args"].get("errors", 0),
                    "children": [],
                }
                (stack[-1]["children"] if stack else tops).append(node)
                stack.append(node)
            elif event["ph"] == "E":
                if not stack or stack[-1]["name"] != event["name"]:
                    raise ValueError(
                        f"unbalanced trace events for pid {pid}: "
                        f"E {event['name']!r} does not close the open span")
                stack.pop()
        if stack:
            raise ValueError(
                f"unbalanced trace events for pid {pid}: "
                f"{len(stack)} span(s) never closed")
        forests[label] = {"spans": tops}
    return forests


# --------------------------------------------------------------------- #
# budgets
# --------------------------------------------------------------------- #
def flatten_metrics(data: Any, prefix: str = "") -> dict[str, float]:
    """Flatten nested JSON (dicts of numbers) into dotted-key floats."""
    flat: dict[str, float] = {}
    if isinstance(data, Mapping):
        for key, value in data.items():
            dotted = f"{prefix}.{key}" if prefix else str(key)
            flat.update(flatten_metrics(value, dotted))
    elif isinstance(data, bool):
        flat[prefix] = float(data)
    elif isinstance(data, (int, float)):
        flat[prefix] = float(data)
    return flat


@dataclass(frozen=True)
class BudgetRule:
    """One budget: a key pattern with a max and/or min plus relative slack."""

    pattern: str
    max: float | None = None
    min: float | None = None
    tolerance: float = 0.0

    @property
    def effective_max(self) -> float | None:
        if self.max is None:
            return None
        return self.max * (1.0 + self.tolerance)

    @property
    def effective_min(self) -> float | None:
        if self.min is None:
            return None
        return self.min * (1.0 - self.tolerance)


@dataclass(frozen=True)
class BudgetViolation:
    """One metric that broke its budget."""

    metric: str
    value: float
    rule: BudgetRule
    reason: str


class PerfBudget:
    """Committed per-metric perf budgets with tolerances.

    The on-disk format (``benchmarks/perf_budgets.json``)::

        {"format": "repro-perf-budget-v1",
         "budgets": {"sweep.*.telemetry_fraction":
                         {"max": 0.2, "tolerance": 0.5}, ...}}

    Patterns are :mod:`fnmatch` globs over the dotted keys of the
    flattened timings sidecar; a metric matched by several rules must pass
    all of them.  Rules that match nothing are reported (a renamed metric
    must not silently disarm its gate).
    """

    def __init__(self, rules: Iterable[BudgetRule]):
        self.rules = list(rules)

    @classmethod
    def from_file(cls, path: str | Path) -> "PerfBudget":
        data = json.loads(Path(path).read_text())
        budgets = data.get("budgets", data)
        rules = []
        for pattern, spec in sorted(budgets.items()):
            if pattern == "format" or not isinstance(spec, Mapping):
                continue
            rules.append(BudgetRule(
                pattern=pattern,
                max=spec.get("max"),
                min=spec.get("min"),
                tolerance=float(spec.get("tolerance", 0.0)),
            ))
        if not rules:
            raise ValueError(f"no budget rules found in {path}")
        return cls(rules)

    def check(self, metrics: Mapping[str, float]
              ) -> tuple[list[BudgetViolation], list[BudgetRule]]:
        """Evaluate; returns ``(violations, rules_that_matched_nothing)``."""
        violations: list[BudgetViolation] = []
        unmatched: list[BudgetRule] = []
        for rule in self.rules:
            hits = [k for k in sorted(metrics)
                    if fnmatch.fnmatch(k, rule.pattern)]
            if not hits:
                unmatched.append(rule)
                continue
            for key in hits:
                value = float(metrics[key])
                limit = rule.effective_max
                floor = rule.effective_min
                if limit is not None and value > limit:
                    violations.append(BudgetViolation(
                        key, value, rule,
                        f"{value:g} > max {rule.max:g} "
                        f"(+{rule.tolerance:.0%} tolerance = {limit:g})"))
                if floor is not None and value < floor:
                    violations.append(BudgetViolation(
                        key, value, rule,
                        f"{value:g} < min {rule.min:g} "
                        f"(-{rule.tolerance:.0%} tolerance = {floor:g})"))
        return violations, unmatched


# --------------------------------------------------------------------- #
# the scaling probe harness
# --------------------------------------------------------------------- #
#: patchable component method per phase (the --slow-phase test hook)
_SLOW_PHASE_TARGETS = {
    "demand": ("datacenter", "step"),
    "failures": ("injector", "step"),
    "scheduler": ("scheduler", "resolve_overloads"),
    "monitor": ("monitor", "record_interval"),
}


@dataclass(frozen=True)
class PerfPoint:
    """Everything measured at one sweep size."""

    n_vms: int
    n_pms: int
    vm_intervals: int
    events_emitted: int
    migrations: int
    span_calls: dict[str, int]
    span_errors: dict[str, int]
    #: median of ``plain_repeat_seconds`` (upper middle for an even
    #: count, the same rule as ``median_seconds``)
    plain_seconds: float
    #: wall clock of the telemetry-free baseline runs, sorted
    plain_repeat_seconds: list[float]
    median_seconds: float
    repeat_seconds: list[float]
    peak_alloc_bytes: int
    report: PhaseReport
    spans: dict

    @property
    def vm_intervals_per_second(self) -> float:
        return (self.vm_intervals / self.median_seconds
                if self.median_seconds > 0 else 0.0)

    @property
    def seconds_per_vm_interval(self) -> float:
        return (self.median_seconds / self.vm_intervals
                if self.vm_intervals else 0.0)

    @property
    def instrumentation_overhead(self) -> float:
        """Full observer effect: (instrumented - plain) / plain."""
        if self.plain_seconds <= 0:
            return 0.0
        return (self.median_seconds - self.plain_seconds) / self.plain_seconds

    @property
    def telemetry_fraction(self) -> float:
        """Share of tick time spent inside the telemetry pipeline."""
        return self.report.phase_fraction.get("telemetry", 0.0)


@dataclass
class PerfSweepResult:
    """The full sweep: points by size plus the sweep parameters."""

    mode: str
    intervals: int
    repeats: int
    seed: int
    points: dict[int, PerfPoint] = field(default_factory=dict)

    # -- deterministic facts (BENCH_PERF.json) ------------------------- #
    def facts_dict(self) -> dict:
        return {
            "format": "repro-perf-v1",
            "mode": self.mode,
            "intervals": self.intervals,
            "repeats": self.repeats,
            "seed": self.seed,
            "sweep": {
                str(n): {
                    "n_vms": p.n_vms,
                    "n_pms": p.n_pms,
                    "vm_intervals": p.vm_intervals,
                    "events_emitted": p.events_emitted,
                    "migrations": p.migrations,
                    "span_calls": p.span_calls,
                    "span_errors": p.span_errors,
                }
                for n, p in sorted(self.points.items())
            },
        }

    # -- wall-clock sidecar (BENCH_PERF_timings.json) ------------------ #
    def timings_dict(self) -> dict:
        return {
            "format": "repro-perf-timings-v1",
            "sweep": {
                str(n): {
                    "plain_seconds": p.plain_seconds,
                    "plain_repeat_seconds": p.plain_repeat_seconds,
                    "median_seconds": p.median_seconds,
                    "repeat_seconds": p.repeat_seconds,
                    "vm_intervals_per_second": p.vm_intervals_per_second,
                    "seconds_per_vm_interval": p.seconds_per_vm_interval,
                    "instrumentation_overhead": p.instrumentation_overhead,
                    "telemetry_fraction": p.telemetry_fraction,
                    "peak_alloc_bytes": p.peak_alloc_bytes,
                    "tick_seconds": p.report.tick_seconds,
                    "phase_seconds": {
                        ph: p.report.phase_seconds.get(ph, 0.0)
                        for ph in PHASE_ORDER},
                    "phase_fraction": {
                        ph: p.report.phase_fraction.get(ph, 0.0)
                        for ph in PHASE_ORDER},
                }
                for n, p in sorted(self.points.items())
            },
        }

    def chrome_trace(self) -> dict:
        return spans_to_chrome_trace(
            {f"n{n}": p.spans for n, p in sorted(self.points.items())})

    def table(self) -> str:
        """The scaling summary table (wall clock — not for diffing)."""
        rows = []
        for n, p in sorted(self.points.items()):
            rows.append([
                n, p.n_pms, p.vm_intervals,
                p.median_seconds * 1e3,
                p.vm_intervals_per_second,
                p.instrumentation_overhead * 100.0,
                p.telemetry_fraction * 100.0,
                p.peak_alloc_bytes / 2**20,
            ])
        return format_table(
            ["n_vms", "n_pms", "vm-intervals", "ms (median)",
             "vm-int/s", "observer %", "telemetry %", "peak MiB"],
            rows, floatfmt=".2f",
            title=(f"scaling sweep (mode={self.mode}, "
                   f"intervals={self.intervals}, repeats={self.repeats}, "
                   f"seed={self.seed})"))

    def write(self, output_dir: str | Path) -> dict[str, Path]:
        """Write BENCH_PERF.json + timings sidecar + Chrome trace."""
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "facts": out / "BENCH_PERF.json",
            "timings": out / "BENCH_PERF_timings.json",
            "trace": out / "BENCH_PERF_trace.json",
        }
        paths["facts"].write_text(
            json.dumps(self.facts_dict(), indent=2, sort_keys=True) + "\n")
        paths["timings"].write_text(
            json.dumps(self.timings_dict(), indent=2, sort_keys=True) + "\n")
        paths["trace"].write_text(
            json.dumps(self.chrome_trace(), indent=2, sort_keys=True) + "\n")
        return paths


def _build_scenario(n_vms: int, *, seed: int, mode: str, telemetry,
                    intervals: int):
    from repro.core.queuing_ffd import QueuingFFD
    from repro.simulation.energy import EnergyModel
    from repro.simulation.scenario import Scenario
    from repro.workload.patterns import generate_pattern_instance

    vms, pms = generate_pattern_instance("large", n_vms, seed=seed)
    tick_mode = "vectorized" if mode == "vector" else "scalar"
    return Scenario(
        vms, pms,
        placer=QueuingFFD(rho=0.01, d=16),
        failures=True,
        migration_failure_probability=0.05,
        energy_model=EnergyModel(),
        start_stationary=True,
        tick_mode=tick_mode,
        # exercise the replan path at least once per run
        reconsolidation={"period": max(2, intervals // 2)},
        telemetry=telemetry,
    ), len(pms)


def _install_slow_phase(run, phase: str, seconds: float) -> None:
    """Test hook: make one phase spend ``seconds`` extra per tick.

    The sleep is injected *inside* the component call so it lands within
    the matching ``phase.*`` span; only wall-clock changes, so the
    deterministic facts file is unaffected.
    """
    try:
        attr_name, method_name = _SLOW_PHASE_TARGETS[phase]
    except KeyError:
        raise ValueError(
            f"unknown --slow-phase {phase!r}; "
            f"known: {sorted(_SLOW_PHASE_TARGETS)}") from None
    component = getattr(run, attr_name)
    if component is None:
        raise ValueError(f"phase {phase!r} is not active in this scenario")
    original = getattr(component, method_name)

    def slowed(*a, **kw):
        time.sleep(seconds)
        return original(*a, **kw)

    setattr(component, method_name, slowed)


def _one_instrumented_run(n_vms: int, *, seed: int, mode: str,
                          intervals: int,
                          slow_phase: tuple[str, float] | None):
    """One fully traced run; returns (wall, telemetry, report_obj)."""
    from repro.telemetry import Telemetry
    from repro.telemetry.sinks import RingBufferSink

    tel = Telemetry(RingBufferSink(capacity=4096))
    scenario, _ = _build_scenario(n_vms, seed=seed, mode=mode,
                                  telemetry=tel, intervals=intervals)
    run = scenario.start(seed=seed)
    if slow_phase is not None:
        _install_slow_phase(run, slow_phase[0], slow_phase[1])
    t0 = time.perf_counter()
    try:
        run.advance(intervals)
    finally:
        run.close()
    wall = time.perf_counter() - t0
    report = run.finish()
    return wall, tel, report


def run_perf_sweep(
    *,
    sweep: Iterable[int],
    intervals: int = 50,
    repeats: int = 3,
    seed: int = 2013,
    mode: str = "vector",
    slow_phase: tuple[str, float] | None = None,
    trace_memory: bool = True,
    on_point: Callable[[int, "PerfPoint"], None] | None = None,
) -> PerfSweepResult:
    """Sweep fleet sizes; measure wall, phases, allocation, throughput.

    Per sweep size: ``repeats`` *plain* runs (telemetry off; median wall)
    for the observer-effect baseline, ``repeats`` instrumented runs (median
    wall; attribution from the median run), and one dedicated tracemalloc
    pass (never timed).
    Deterministic facts (span call counts, event counts, migrations) are
    taken from the *first* instrumented run — "which repeat was fastest"
    is wall-clock noise and must not leak into ``BENCH_PERF.json``.
    """
    if mode not in ("scalar", "vector"):
        raise ValueError(f"mode must be 'scalar' or 'vector', got {mode!r}")
    sizes = sorted(set(int(n) for n in sweep))
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError(f"sweep sizes must be positive, got {sizes}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    result = PerfSweepResult(mode=mode, intervals=intervals,
                             repeats=repeats, seed=seed)
    attributor = PhaseAttributor()
    from repro.perf.cache import fresh_cache

    # A cold, isolated MapCal cache makes solve/hit span counts a pure
    # function of (sweep, seed) — independent of whatever warmed the
    # process-wide cache before us — which is what lets BENCH_PERF.json
    # promise byte-identical reruns.
    with fresh_cache():
        _run_sweep_points(sizes, result, attributor, intervals=intervals,
                          repeats=repeats, seed=seed, mode=mode,
                          slow_phase=slow_phase, trace_memory=trace_memory,
                          on_point=on_point)
    return result


def _run_sweep_points(sizes, result, attributor, *, intervals, repeats,
                      seed, mode, slow_phase, trace_memory, on_point):
    for n_vms in sizes:
        # -- plain baseline (no telemetry at all), as many runs as the
        # instrumented side: one plain run against a median of repeats
        # let run-to-run noise read as negative observer overhead
        plain_walls: list[float] = []
        for _ in range(repeats):
            scenario, n_pms = _build_scenario(n_vms, seed=seed, mode=mode,
                                              telemetry=None,
                                              intervals=intervals)
            run = scenario.start(seed=seed)
            if slow_phase is not None:
                _install_slow_phase(run, slow_phase[0], slow_phase[1])
            t0 = time.perf_counter()
            try:
                run.advance(intervals)
            finally:
                run.close()
            plain_walls.append(time.perf_counter() - t0)
            run.finish()
        plain_walls.sort()

        # -- instrumented repeats -------------------------------------- #
        walls: list[float] = []
        telemetries = []
        for _ in range(repeats):
            wall, tel, report = _one_instrumented_run(
                n_vms, seed=seed, mode=mode, intervals=intervals,
                slow_phase=slow_phase)
            walls.append(wall)
            telemetries.append((tel, report))
        order = sorted(range(repeats), key=lambda i: walls[i])
        median_idx = order[len(order) // 2]
        median_tel, _ = telemetries[median_idx]
        first_tel, first_report = telemetries[0]
        phase_report = attributor.attribute(median_tel.profiler)
        facts_report = attributor.attribute(first_tel.profiler)

        # -- throughput gauge (live-queryable, also in the sidecar) ---- #
        vm_intervals = n_vms * intervals
        throughput = (vm_intervals / walls[median_idx]
                      if walls[median_idx] > 0 else 0.0)
        median_tel.metrics.gauge(
            "perf_vm_intervals_per_second",
            "simulation throughput measured by the perf sweep",
        ).set(throughput)

        # -- allocation pass (tracemalloc; wall never reported) -------- #
        peak = 0
        if trace_memory:
            scenario, _ = _build_scenario(n_vms, seed=seed, mode=mode,
                                          telemetry=None,
                                          intervals=intervals)
            with MemoryProbe() as probe:
                scenario.run(intervals, seed=seed)
            peak = probe.peak_bytes

        point = PerfPoint(
            n_vms=n_vms,
            n_pms=n_pms,
            vm_intervals=vm_intervals,
            events_emitted=first_tel.events.emitted,
            migrations=int(first_report.total_migrations),
            span_calls=facts_report.span_calls,
            span_errors=facts_report.span_errors,
            plain_seconds=plain_walls[len(plain_walls) // 2],
            plain_repeat_seconds=plain_walls,
            median_seconds=walls[median_idx],
            repeat_seconds=sorted(walls),
            peak_alloc_bytes=peak,
            report=phase_report,
            spans=median_tel.profiler.to_dict(),
        )
        result.points[n_vms] = point
        if on_point is not None:
            on_point(n_vms, point)
