"""The repository benchmark: offline fleet simulation and online admission.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_replan --seed 1 \\
        --seconds 30 --trace 0

It imports the program from ``./src`` (never an installed copy), builds the
workload's inputs from ``--seed``, and repeats the workload's fixed unit of
work until ``--seconds`` have passed (at least twice, so repeats at one seed
can be compared).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``, measured with no
span wrappers installed; with ``--trace 1`` untraced and traced repeats
alternate and the metrics are the per-layer ones.  Spans of the traced
repeats are written to ``.perfbench-out/`` when the run ends.  End-to-end
times are CPU seconds at a reference speed (``clock.py``); per-layer times
are wall-clock self times of the traced repeats.  See
``perfbench/README.md`` for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

OUT_DIR = Path(".perfbench-out")

#: root span -> per-layer metric that holds the time no wrapper covers
REMAINDERS = {
    "setup": "setup.other_s",
    "tick": "simulation.other_s",
    "decision": "service.other_s",
    "recover": "recover.other_s",
}

#: per-layer time metrics (self seconds per repeat) and their span names
LAYER_TIMES = {
    "workload.fit_s": "workload.fit",
    "core.mapcal_s": "core.mapcal",
    "core.place_s": "core.place",
    "simulation.demand_s": "simulation.demand",
    "simulation.failures_s": "simulation.failures",
    "simulation.scheduler_s": "simulation.scheduler",
    "simulation.target_select_s": "simulation.target_select",
    "simulation.pm_loads_s": "simulation.pm_loads",
    "simulation.migration_s": "simulation.migration",
    "simulation.replan_s": "simulation.replan",
    "simulation.monitor_s": "simulation.monitor",
    "simulation.energy_s": "simulation.energy",
    "serving.step_s": "serving.step",
    "service.inbox_s": "service.inbox",
    "service.decide_s": "service.decide",
    "service.apply_s": "service.apply",
    "service.wal_append_s": "service.wal_append",
    "service.checkpoint_s": "service.checkpoint",
    "service.recalibrate_s": "service.recalibrate",
    "service.recover_load_s": "service.recover_load",
    "service.replay_s": "service.replay",
}

#: per-layer counts, exact at one seed
LAYER_COUNTS = (
    "core.mapcal_solves", "core.place_calls",
    "simulation.target_selections", "simulation.pm_loads_calls",
    "simulation.migrations_attempted", "simulation.replans",
    "simulation.replan_moves",
    "serving.requests_offered", "serving.requests_served",
    "service.wal_appends", "service.wal_bytes", "service.checkpoints",
    "service.sheds", "service.replayed_records",
)


def _import_program() -> None:
    """Put ``./src`` first on the path and insist the program comes from it."""
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit("perfbench: ./src/repro not found; run from the root of a "
                 "checkout of the repository")
    os.environ.pop("REPRO_CACHE_DIR", None)  # set-up starts from a cold cache
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def _workload(name: str):
    from admission import ONLINE_WORKLOADS, AdmissionWorkload
    from fleet import FLEET_WORKLOADS, FleetWorkload

    if name in FLEET_WORKLOADS:
        return FleetWorkload(name, FLEET_WORKLOADS[name], OUT_DIR)
    if name in ONLINE_WORKLOADS:
        return AdmissionWorkload(name, ONLINE_WORKLOADS[name], OUT_DIR)
    known = sorted({*FLEET_WORKLOADS, *ONLINE_WORKLOADS})
    sys.exit(f"perfbench: unknown workload {name!r}; known: {known}")


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _spread(values: list[float]) -> float:
    """(max - min) / median of repeat times: the run-to-run spread."""
    med = statistics.median(values)
    return (max(values) - min(values)) / med if med else 0.0


def _end_to_end(plain: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced repeats, plus sample counts."""
    pool = lambda key: [x for r in plain for x in r[key]]  # noqa: E731
    ticks, decisions = pool("tick_ms"), pool("decision_ms")
    setups, recovers = pool("setup_s"), pool("recover_s")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "sim_vm_intervals_per_s": (statistics.median(
            r["vm_intervals"] / r["tick_s"] for r in plain), "1/s"),
        "tick_p50_ms": (_percentile(ticks, 50), "ms"),
        "tick_p99_ms": (_percentile(ticks, 99), "ms"),
        "decisions_per_s": (statistics.median(
            len(r["decision_ms"]) / sum(r["decision_ms"]) * 1e3
            for r in plain), "1/s"),
        "decision_p50_ms": (_percentile(decisions, 50), "ms"),
        "decision_p99_ms": (_percentile(decisions, 99), "ms"),
        "recover_s": (statistics.median(recovers), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {
        "setup_s": len(setups), "sim_vm_intervals_per_s": len(plain),
        "tick_p50_ms": len(ticks), "tick_p99_ms": len(ticks),
        "decisions_per_s": len(plain), "decision_p50_ms": len(decisions),
        "decision_p99_ms": len(decisions), "recover_s": len(recovers),
        "peak_rss_mb": 1,
    }
    return metrics, samples


def _per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced repeats."""
    med = statistics.median
    metrics: dict[str, tuple[float, str]] = {}
    for metric, span in LAYER_TIMES.items():
        metrics[metric] = (med([r["layers"].get(span, 0.0) for r in traced]),
                           "s")
    for span, metric in REMAINDERS.items():
        metrics[metric] = (med([r["layers"].get(span, 0.0) for r in traced]),
                           "s")
    counts = traced[0]["counts"]
    for metric in LAYER_COUNTS:
        metrics[metric] = (counts.get(metric, 0),
                           "bytes" if metric.endswith("_bytes") else "count")
    solves, hits = counts["core.mapcal_solves"], counts["core.mapcal_hits"]
    metrics["core.mapcal_hit_ratio"] = (
        hits / (hits + solves) if hits + solves else 0.0, "ratio")
    attempts = counts.get("simulation.migrations_attempted", 0)
    failed = counts.get("simulation.migrations_failed", 0)
    metrics["simulation.migration_success_ratio"] = (
        (attempts - failed) / attempts if attempts else 0.0, "ratio")
    plain_s = [r["tick_s"] for r in plain]
    traced_s = [r["tick_s"] for r in traced]
    metrics["trace.overhead_fraction"] = (
        (med(traced_s) - med(plain_s)) / med(plain_s), "ratio")
    metrics["trace.untraced_spread"] = (_spread(plain_s), "ratio")
    metrics["trace.traced_spread"] = (_spread(traced_s), "ratio")
    return metrics


def _checks(repeats: list[dict]) -> dict[str, bool]:
    """Output checks per repeat; stored in each repeat's ``checks``."""
    traced = [r for r in repeats if r["traced"]]
    for r in repeats:
        r["checks"]["same_outputs_as_repeat0"] = (
            r["digest"] == repeats[0]["digest"])
        if r["traced"]:
            r["checks"]["same_counts_as_first_traced"] = (
                r["counts"] == traced[0]["counts"])
            total, parts = r["trace_total"], sum(r["layers"].values())
            r["checks"]["self_times_sum_to_total"] = (
                abs(parts - total) <= 1e-6 * total + 1e-9)
    return {f"repeat{i}.{name}": bool(ok)
            for i, r in enumerate(repeats) for name, ok in r["checks"].items()}


def _declared(section: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from clock import SpeedClock
    from spans import NullTracer, Tracer

    OUT_DIR.mkdir(exist_ok=True)
    workload = _workload(args.workload)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("  params: " + json.dumps(workload.params, sort_keys=True))
    inputs = workload.make_inputs(args.seed)

    repeats: list[dict] = []
    tracers: list[Tracer] = []
    min_repeats = 4 if args.trace else 2
    deadline = perf_counter() + args.seconds
    last_wall = 0.0
    # Start another repeat only if one as long as the last fits.
    while (len(repeats) < min_repeats
           or perf_counter() + last_wall < deadline):
        traced = bool(args.trace) and len(repeats) % 2 == 1
        clock = SpeedClock()
        tracer = Tracer(clock) if traced else NullTracer()
        gc.collect()  # each repeat starts from a swept heap
        t0 = perf_counter()
        result = workload.repeat(inputs, tracer, clock)
        last_wall = perf_counter() - t0
        result["traced"] = traced
        repeats.append(result)
        if traced:
            tracers.append(tracer)
        kind = "traced" if traced else "plain"
        print(f"  repeat {len(repeats) - 1} ({kind}): "
              f"loop {result['loop_s']:.3f} s wall, ticks "
              f"{result['tick_s']:.3f} s, setup "
              f"{statistics.median(result['setup_s']):.4f} s, "
              f"speed {result['speed']:.3f}")

    plain = [r for r in repeats if not r["traced"]]
    traced = [r for r in repeats if r["traced"]]
    checks = _checks(repeats)
    correct = all(checks.values())
    if workload.params["loop"].startswith("closed"):
        # online: (sheds + raised decisions) / requests, plus failed checks
        attempted = sum(r["requests"] for r in repeats)
        failed = (sum(r["failed_requests"] for r in repeats)
                  + sum(not ok for ok in checks.values()))
    else:
        # offline: repeats with a failed output check / repeats
        attempted = len(repeats)
        failed = sum(not all(r["checks"].values()) for r in repeats)

    e2e, samples = _end_to_end(plain)
    print("  end-to-end (untraced repeats):")
    for name, (value, unit) in e2e.items():
        print(f"    {name:<24} {value:14.6g} {unit:<4} n={samples[name]}")
    print(f"    {'ops_failed_fraction':<24} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted})")
    for name, ok in checks.items():
        if not ok:
            print(f"  CHECK FAILED: {name}")
    print(f"  checks: {sum(checks.values())}/{len(checks)} passed")

    if args.trace:
        metrics = _per_layer(plain, traced)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans_path.unlink(missing_ok=True)
        for i, tracer in enumerate(tracers):
            tracer.write(spans_path, label=f"traced{i}")
        print(f"  per-layer (traced repeats; spans in {spans_path}):")
        for name, (value, unit) in sorted(metrics.items()):
            print(f"    {name:<36} {value:14.6g} {unit}")
    else:
        metrics = e2e
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    declared = _declared("per_layer" if args.trace else "end_to_end")
    if emitted != declared:
        sys.exit("perfbench: metrics differ from BENCHMARK.json: declared "
                 f"{sorted(declared.items() - emitted.items())}, emitted "
                 f"{sorted(emitted.items() - declared.items())}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
