"""Command-line runner: experiments plus the consolidation toolchain.

Regenerate the paper's artifacts:

    python -m repro list                 # what can be run
    python -m repro run fig5             # one artifact
    python -m repro run all              # everything
    python -m repro run fig10 --plot     # with an ASCII figure
    python -m repro run fig5 -o out/     # persist tables to a directory

Operate on files (the production-shaped workflow):

    python -m repro fit traces.csv -o instance.json      # traces -> specs
    python -m repro consolidate instance.json -o map.json  # specs -> placement

``fit`` consumes a CSV trace matrix (see ``repro.workload.io``) and writes
an instance whose PM fleet defaults to one 100-unit PM per VM;
``consolidate`` places it with QueuingFFD and reports the packing.

Watch and diff runs (the observability plane):

    python -m repro dashboard fig6 --follow            # live panels
    python -m repro dashboard fig6_cvr --once --html obs.html
    python -m repro dashboard x --from-jsonl run.jsonl # replay a trace
    python -m repro compare base.jsonl new.jsonl       # regression diff

Performance is measured by ``perfbench/`` (see ``perfbench/README.md``).

Explain decisions (provenance, see docs/OBSERVABILITY.md):

    python -m repro explain run.jsonl                  # decision overview
    python -m repro explain run.jsonl --vm 19          # why here, why not there
    python -m repro explain run.jsonl --tick 92        # a replan + evidence
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable

from repro.analysis.report import ExperimentResult, render_result
from repro.experiments.fig5_packing import run_fig5
from repro.experiments.fig6_cvr import run_fig6
from repro.experiments.fig7_cost import run_fig7
from repro.experiments.fig8_trace import run_fig8
from repro.experiments.fig9_migration import run_fig9
from repro.experiments.fig10_timeline import run_fig10
from repro.experiments.table1 import run_table1

EXPERIMENTS: dict[str, tuple[Callable[[], ExperimentResult], str]] = {
    "table1": (run_table1, "Table I: workload pattern specifications"),
    "fig5": (lambda: run_fig5(), "Fig. 5: packing result (QUEUE/RP/RB)"),
    "fig6": (lambda: run_fig6(), "Fig. 6: runtime CVR per placement"),
    "fig7": (lambda: run_fig7(), "Fig. 7: computation cost of Algorithm 2"),
    "fig8": (lambda: run_fig8(), "Fig. 8: sample web-server workload"),
    "fig9": (lambda: run_fig9(), "Fig. 9: live-migration runtime metrics"),
    "fig10": (lambda: run_fig10(), "Fig. 10: migration-event timeline"),
}


def _register_ablations() -> None:
    """Expose every ablation study under its experiment id."""
    from repro.experiments.ablations import ABLATIONS

    for exp_id, (fn, desc) in ABLATIONS.items():
        EXPERIMENTS[exp_id] = (fn, f"Ablation: {desc}")


_register_ablations()


def _plot(result: ExperimentResult) -> str | None:
    """Best-effort ASCII rendering of the figure behind a result table."""
    from repro.viz.ascii_charts import bar_chart, line_chart, sparkline

    if result.experiment_id == "fig5":
        data = {}
        for row in result.rows:
            data[f"{row[0]} n={row[1]} QUEUE"] = row[2]
            data[f"{row[0]} n={row[1]} RP"] = row[3]
            data[f"{row[0]} n={row[1]} RB"] = row[4]
        return bar_chart(data, title="PMs used")
    if result.experiment_id == "fig8":
        return "requests/interval: " + sparkline(
            [float(r) for r in result.column("requests")]
        )
    if result.experiment_id == "fig9":
        data = {f"{r[0]} {r[1]}": r[2] for r in result.rows}
        return bar_chart(data, title="total migrations (avg of 10 runs)")
    if result.experiment_id == "fig10":
        series = {
            name: [float(v) for v in result.column(f"{name}_cum_migrations")]
            for name in ("QUEUE", "RB", "RB-EX")
        }
        return line_chart(series, title="cumulative migrations over time")
    if result.experiment_id == "fig6":
        data = {f"{r[0]} {r[1]}": r[2] for r in result.rows}
        return bar_chart(data, value_fmt=".4f", title="mean CVR")
    return None


def build_parser() -> argparse.ArgumentParser:
    """The runner's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment or 'all'")
    run.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    run.add_argument("--plot", action="store_true",
                     help="also draw an ASCII rendering of the figure")
    run.add_argument("-o", "--output-dir", type=Path, default=None,
                     help="write each table to <dir>/<id>.txt")

    fit = sub.add_parser("fit", help="fit ON-OFF specs to a CSV trace matrix")
    fit.add_argument("traces", type=Path, help="CSV written by save_traces")
    fit.add_argument("-o", "--output", type=Path, default=None,
                     help="write the fitted instance JSON here")
    fit.add_argument("--hmm", action="store_true",
                     help="use the Baum-Welch estimator (robust to noise)")
    fit.add_argument("--margin", type=float, default=None,
                     help="size demand levels at this percentile (e.g. 0.95)")
    fit.add_argument("--pm-capacity", type=float, default=100.0,
                     help="capacity of each PM in the emitted instance")

    cons = sub.add_parser("consolidate",
                          help="place an instance JSON with QueuingFFD")
    cons.add_argument("instance", type=Path,
                      help="instance JSON written by save_instance / fit")
    cons.add_argument("-o", "--output", type=Path, default=None,
                      help="write the placement JSON here")
    cons.add_argument("--rho", type=float, default=0.01)
    cons.add_argument("--d", type=int, default=16)
    cons.add_argument("--exact", action="store_true",
                      help="use the exact heterogeneous (Poisson-binomial) "
                           "variant instead of rounding")

    bench = sub.add_parser(
        "bench",
        help="run the figure/ablation suite, optionally in parallel")
    bench.add_argument("--parallel", "-j", type=int, default=1, metavar="N",
                       help="worker processes (1 = serial, identical "
                            "results)")
    bench.add_argument("--filter", default="*", metavar="GLOB",
                       help="fnmatch glob over experiment ids "
                            "(e.g. 'fig*', 'ablation_*')")
    bench.add_argument("-o", "--output-dir", type=Path,
                       default=Path("benchmarks") / "results",
                       help="aggregate tables + BENCH_results.json here")
    bench.add_argument("--seed", type=int, default=None,
                       help="base seed: derive per-job seeds for the "
                            "figure experiments (default: each "
                            "experiment's published seed)")
    bench.add_argument("--progress-jsonl", type=Path, default=None,
                       help="stream per-job progress events to this JSONL "
                            "file")
    bench.add_argument("--list", action="store_true", dest="list_jobs",
                       help="list matching jobs and exit")
    bench.add_argument("--resume", type=Path, default=None, metavar="RUN_DIR",
                       help="resume an interrupted run: re-execute only "
                            "jobs without a verified result in RUN_DIR's "
                            "journal, then re-aggregate")
    bench.add_argument("--chaos", default=None, metavar="SPEC",
                       help="deterministic fault injection, e.g. "
                            "'kill-worker:p=0.2,stall:p=0.1' (implies the "
                            "durable runner)")
    bench.add_argument("--max-attempts", type=int, default=3, metavar="N",
                       help="attempts per job before quarantine "
                            "(durable runner)")
    bench.add_argument("--job-timeout", type=float, default=900.0,
                       metavar="SECONDS",
                       help="per-attempt wall-clock ceiling "
                            "(durable runner)")
    bench.add_argument("--heartbeat-timeout", type=float, default=15.0,
                       metavar="SECONDS",
                       help="kill a worker whose heartbeat is older than "
                            "this (durable runner)")

    auto = sub.add_parser(
        "autopilot",
        help="closed-loop run: drift-detect -> refit -> guarded replan "
             "with checkpoint rollback")
    auto.add_argument("recipe", choices=["regime-shift"],
                      help="scenario recipe (regime-shift: fleet-wide "
                           "p_on drift mid-run)")
    auto.add_argument("-n", "--intervals", type=int, default=420)
    auto.add_argument("--seed", type=int, default=230)
    auto.add_argument("--n-vms", type=int, default=48)
    auto.add_argument("--drift-at", type=int, default=60,
                      help="interval at which the true p_on shifts")
    auto.add_argument("--drift-p-on", type=float, default=0.05,
                      help="post-shift true p_on for every VM")
    auto.add_argument("--budget", type=int, default=24,
                      help="migration budget per replan")
    auto.add_argument("--rho", type=float, default=0.01)
    auto.add_argument("--never-adapt", action="store_true",
                      help="run the identical stack with the controller "
                           "off (the compare baseline)")
    auto.add_argument("--force-bad-refit", action="store_true",
                      help="rollback drill: replace the refit with an "
                           "adversarially wrong one; exit 1 unless the "
                           "guard rolls back with byte-for-byte parity")
    auto.add_argument("--checkpoint-dir", type=Path, default=None,
                      help="persist rollback checkpoints (+ fsync'd "
                           "index) in this directory")
    auto.add_argument("--keep-checkpoints", type=int, default=None,
                      metavar="K",
                      help="retention depth for --checkpoint-dir "
                           "(default: 3)")
    auto.add_argument("--jsonl", type=Path, default=None,
                      help="record the run's event stream here "
                           "(feed to `repro compare`)")

    trace = sub.add_parser(
        "trace",
        help="run an experiment under full telemetry (events/metrics/spans)")
    trace.add_argument("experiment", choices=list(EXPERIMENTS))
    trace.add_argument("--jsonl", type=Path, default=None,
                       help="write the structured event stream to this "
                            "JSONL file (replayable)")
    trace.add_argument("--metrics-json", type=Path, default=None,
                       help="write the metrics registry snapshot to this "
                            "JSON file")
    trace.add_argument("--quiet", action="store_true",
                       help="suppress the experiment table, print only "
                            "the telemetry digest")

    dash = sub.add_parser(
        "dashboard",
        help="run observatory: live panels, SLO alerts, drift detection")
    dash.add_argument("experiment",
                      help="experiment recipe (e.g. fig6, fig6_cvr) — "
                           "ignored with --from-jsonl")
    mode = dash.add_mutually_exclusive_group()
    mode.add_argument("--follow", action="store_true",
                      help="repaint panels while the run executes (default)")
    mode.add_argument("--from-jsonl", type=Path, default=None,
                      help="render from a recorded trace; no simulator runs")
    dash.add_argument("--once", action="store_true",
                      help="run silently, print only the final frame")
    dash.add_argument("--html", type=Path, default=None,
                      help="also write a self-contained HTML page here")
    dash.add_argument("--jsonl", type=Path, default=None,
                      help="record the observed run's event stream here")
    dash.add_argument("-n", "--intervals", type=int, default=240,
                      help="intervals to simulate (live modes)")
    dash.add_argument("--seed", type=int, default=2013)
    dash.add_argument("--refresh", type=int, default=10,
                      help="repaint every this many intervals (--follow)")
    dash.add_argument("--rho", type=float, default=0.01,
                      help="CVR error budget for the default SLO rules")
    dash.add_argument("--rules", type=Path, default=None,
                      help="YAML/JSON SLO rule file (see EXPERIMENTS.md)")
    dash.add_argument("--overcommit", type=float, default=1.0,
                      help="divide PM capacity by this factor "
                           "(>1 forces CVR budget burn)")
    dash.add_argument("--inject-drift", type=float, default=None,
                      metavar="P_ON",
                      help="shift every VM's p_on to this value mid-run")
    dash.add_argument("--drift-at", type=int, default=0,
                      help="interval at which --inject-drift applies")

    comp = sub.add_parser(
        "compare",
        help="regression-diff two recorded JSONL traces (exit 1 on "
             "regression)")
    comp.add_argument("baseline", type=Path, help="baseline trace")
    comp.add_argument("candidate", type=Path, help="candidate trace")
    comp.add_argument("--rtol", type=float, default=0.05,
                      help="relative tolerance below which a metric is "
                           "'unchanged'")
    comp.add_argument("--all", action="store_true", dest="show_unchanged",
                      help="also list unchanged metrics")
    comp.add_argument("--ignore", action="append", default=[],
                      metavar="METRIC",
                      help="exclude this metric from the verdict (repeat "
                           "for several; still rendered, marked 'ig')")

    explain = sub.add_parser(
        "explain",
        help="decision provenance: reconstruct why a VM landed where it "
             "did (and why not elsewhere) from a recorded JSONL trace")
    explain.add_argument("trace", type=Path,
                         help="recorded JSONL event stream (e.g. from "
                              "`repro trace --jsonl` or "
                              "`repro autopilot --jsonl`)")
    what = explain.add_mutually_exclusive_group()
    what.add_argument("--vm", type=int, default=None,
                      help="every decision that concerned this VM")
    what.add_argument("--pm", type=int, default=None,
                      help="every decision in which this PM appeared "
                           "(winner, candidate, source, or move endpoint)")
    what.add_argument("--tick", type=int, default=None,
                      help="every decision taken at this interval")
    what.add_argument("--decision", type=int, default=None,
                      help="one decision by stream ordinal (the 'seq' "
                           "column of the overview) or producer id")
    explain.add_argument("-o", "--output", type=Path, default=None,
                         help="also write the rendered explanation here")

    from repro.service.cli import add_serve_parser

    add_serve_parser(sub)

    sub.add_parser("claims",
                   help="machine-check the paper's headline claims")
    return parser


def _cmd_fit(args) -> int:
    try:
        return _run_fit(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_fit(args) -> int:
    from repro.core.types import PMSpec
    from repro.markov.hmm import fit_hmm_onoff
    from repro.workload.estimation import fit_fleet
    from repro.workload.io import load_traces, save_instance

    traces = load_traces(args.traces)
    specs = []
    print(f"{'vm':>4s} {'p_on':>8s} {'p_off':>8s} {'R_b':>8s} {'R_e':>8s} "
          f"{'transitions':>11s}")
    if args.hmm:
        fits = (fit_hmm_onoff(trace) for trace in traces)
    else:
        fits = fit_fleet(traces, percentile_margin=args.margin)
    for i, fit in enumerate(fits):
        specs.append(fit.to_vmspec())
        print(f"{i:4d} {fit.p_on:8.4f} {fit.p_off:8.4f} {fit.r_base:8.2f} "
              f"{fit.r_extra:8.2f} {fit.n_transitions:11d}")
    if args.output is not None:
        pms = [PMSpec(args.pm_capacity)] * len(specs)
        save_instance(args.output, specs, pms)
        print(f"[instance with {len(specs)} VMs written to {args.output}]")
    return 0


def _cmd_consolidate(args) -> int:
    try:
        return _run_consolidate(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_consolidate(args) -> int:
    from repro.core.heterogeneous import HeterogeneousQueuingFFD
    from repro.core.queuing_ffd import QueuingFFD
    from repro.workload.io import load_instance, save_placement

    vms, pms = load_instance(args.instance)
    if args.exact:
        placer = HeterogeneousQueuingFFD(rho=args.rho, d=args.d)
    else:
        placer = QueuingFFD(rho=args.rho, d=args.d)
    placement = placer.place(vms, pms)
    print(f"{placer.name}: {len(vms)} VMs -> {placement.n_used_pms} PMs "
          f"(rho={args.rho}, d={args.d})")
    for pm_idx in placement.used_pms():
        hosted = placement.vms_on(int(pm_idx))
        base = sum(vms[i].r_base for i in hosted)
        print(f"  PM {int(pm_idx):3d}: {len(hosted):2d} VMs, "
              f"base load {base:7.1f} / {pms[int(pm_idx)].capacity:.1f}")
    if args.output is not None:
        save_placement(args.output, placement)
        print(f"[placement written to {args.output}]")
    return 0


def _cmd_bench(args) -> int:
    """Fan the figure/ablation suite across workers; aggregate results.

    Routing: plain serial runs (``--parallel 1``, no chaos, no resume)
    execute in-process via :func:`repro.perf.bench.run_bench`; everything
    else — ``--parallel N != 1``, ``--chaos``, ``--resume`` — goes through
    the durable worker pool (:mod:`repro.experiments.durability`), which
    adds heartbeats, timeouts, retries, quarantine, and the crash-safe
    journal, and rejects ``N < 1``.
    """
    from repro.perf.bench import iter_job_names, run_bench
    from repro.perf.cache import cache_stats

    if args.list_jobs:
        for name in iter_job_names(args.filter):
            print(name)
        return 0

    def printer(event) -> None:
        if event.kind == "bench_job_finished":
            status = "ok" if event.ok else f"FAILED ({event.error})"
            print(f"  [{event.job}] {status} in {event.seconds:.1f}s",
                  flush=True)
        elif event.kind == "job_retried":
            print(f"  [{event.job}] attempt {event.attempt} failed "
                  f"({event.error}); retrying in {event.backoff_seconds:.1f}s",
                  flush=True)
        elif event.kind == "job_quarantined":
            print(f"  [{event.job}] quarantined after {event.attempts} "
                  f"attempts ({event.error})", flush=True)
        elif event.kind == "run_resumed":
            print(f"  [resume] {event.completed} job(s) restored, "
                  f"{event.remaining} to run", flush=True)

    durable = (args.resume is not None or args.chaos is not None
               or args.parallel != 1)
    interrupted = False
    report = None
    t0 = time.perf_counter()
    try:
        if durable:
            from repro.experiments.durability import (
                BenchRetryPolicy,
                ChaosConfig,
                run_durable_bench,
            )

            chaos = None
            if args.chaos is not None:
                chaos = ChaosConfig.parse(
                    args.chaos, seed=args.seed if args.seed is not None else 0)
            output_dir = (args.resume if args.resume is not None
                          else args.output_dir)
            report = run_durable_bench(
                args.filter,
                parallel=args.parallel,
                output_dir=output_dir,
                base_seed=args.seed,
                retry=BenchRetryPolicy(max_attempts=args.max_attempts),
                job_timeout=args.job_timeout,
                heartbeat_timeout=args.heartbeat_timeout,
                chaos=chaos,
                resume=args.resume is not None,
                progress_path=args.progress_jsonl,
                on_event=printer,
                install_signal_handlers=True,
            )
            results = report.results
            interrupted = report.interrupted
        else:
            output_dir = args.output_dir
            results = run_bench(
                args.filter,
                output_dir=output_dir,
                progress_path=args.progress_jsonl,
                base_seed=args.seed,
                on_event=printer,
            )
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    failed = [r for r in results if not r.ok]
    mode = (f"{args.parallel} workers" if args.parallel > 1 else "serial")
    if durable:
        mode += ", durable"
    print(f"[{len(results)} jobs in {elapsed:.1f}s ({mode}); "
          f"results in {output_dir}]")
    if report is not None and (report.retried or report.quarantined):
        print(f"[recovery: {report.retried} retr"
              f"{'y' if report.retried == 1 else 'ies'}, "
              f"{len(report.quarantined)} quarantined]")
    stats = cache_stats()
    if stats["hits"] + stats["misses"]:
        print(f"[mapcal cache: {stats['hits']:.0f} hits / "
              f"{stats['misses']:.0f} misses "
              f"(hit rate {stats['hit_rate']:.1%})]")
    for r in failed:
        print(f"FAILED {r.name}: {r.error}", file=sys.stderr)
    if interrupted:
        print(f"interrupted; resume with: python -m repro bench "
              f"--resume {output_dir}", file=sys.stderr)
        return 130
    return 1 if failed else 0


def _cmd_autopilot(args) -> int:
    """Run the closed-loop controller (or its baseline/drill variants).

    Three modes share one stack (``build_autopilot_scenario``):

    - default: :class:`repro.autopilot.Autopilot` reacting to the regime
      shift — refit, guarded replan, rollback on regression;
    - ``--never-adapt``: the identical scenario with the controller off,
      recorded as the comparison baseline;
    - ``--force-bad-refit``: the rollback drill — the refit is replaced
      with an adversarially wrong one on a fleet whose real drift is
      harmless, so the only way CVR regresses is the bad replan.  Exits
      1 unless the guard rolled back with byte-for-byte state parity.
    """
    from repro.autopilot import Autopilot, AutopilotConfig, adversarial_refit
    from repro.core.types import PMSpec, VMSpec
    from repro.experiments.autopilot_ablation import (
        build_autopilot_scenario,
        regime_shift_hook,
    )
    from repro.observability import Observatory
    from repro.telemetry import JSONLSink, RingBufferSink, Telemetry
    from repro.workload.patterns import generate_pattern_instance

    if args.force_bad_refit and args.never_adapt:
        print("error: --force-bad-refit needs the controller; drop "
              "--never-adapt", file=sys.stderr)
        return 2
    retention = {}
    if args.keep_checkpoints is not None:
        if args.checkpoint_dir is None:
            print("error: --keep-checkpoints needs --checkpoint-dir",
                  file=sys.stderr)
            return 2
        if args.keep_checkpoints < 1:
            print(f"error: --keep-checkpoints must be >= 1, got "
                  f"{args.keep_checkpoints}", file=sys.stderr)
            return 2
        retention["keep_checkpoints"] = args.keep_checkpoints

    if args.force_bad_refit:
        # generous capacity + a mild true drift: the fleet is healthy
        # unless the (injected, wrong) refit repacks it badly
        vms = [VMSpec(0.05, 0.15, 2.0, 8.0) for _ in range(40)]
        pms = [PMSpec(100.0) for _ in range(10)]
        drift_at, drift_p_on = 30, 0.12
        config = AutopilotConfig(min_refit_samples=40, guard_window=20,
                                 migration_budget=40, **retention)
        refit_override = adversarial_refit
    else:
        vms, pms = generate_pattern_instance("equal", args.n_vms,
                                             seed=args.seed)
        drift_at, drift_p_on = args.drift_at, args.drift_p_on
        config = AutopilotConfig(migration_budget=args.budget, **retention)
        refit_override = None

    sinks = ([JSONLSink(args.jsonl)] if args.jsonl is not None
             else [RingBufferSink()])
    tel = Telemetry(*sinks)
    obs = Observatory(rho=args.rho)
    sc = build_autopilot_scenario(vms, pms, rho=args.rho, telemetry=tel,
                                  observatory=obs)
    hook = regime_shift_hook(sc, shift_at=drift_at, p_on=drift_p_on)
    stats = None
    t0 = time.perf_counter()
    try:
        if args.never_adapt:
            report = sc.run(args.intervals, seed=args.seed, on_tick=hook)
        else:
            pilot = Autopilot(sc, config=config,
                              checkpoint_dir=args.checkpoint_dir,
                              refit_override=refit_override)
            stats = pilot.run(args.intervals, seed=args.seed, on_tick=hook)
            report = stats.report
    finally:
        tel.close()
    elapsed = time.perf_counter() - t0

    mode = ("never-adapt" if args.never_adapt
            else "rollback drill" if args.force_bad_refit else "autopilot")
    print(f"[{args.recipe} ({mode}): {len(vms)} VMs / {len(pms)} PMs, "
          f"{args.intervals} intervals, drift p_on->{drift_p_on} at "
          f"t={drift_at}, {elapsed:.1f}s]")
    if stats is not None:
        print(stats.summary())
        if stats.checkpoints:
            print(f"checkpoints retained: "
                  f"{', '.join(Path(p).name for p in stats.checkpoints)}")
    print(f"post-shift CVR (windowed): {obs.recorder.cvr():.4f}")
    print(f"SLO alerts fired: {obs.slo.fired_total}, "
          f"active at end: {len(obs.slo.active)}")
    print(f"migrations: {report.total_migrations}")
    if args.jsonl is not None:
        print(f"[{tel.events.emitted} events written to {args.jsonl}]")
    if args.force_bad_refit:
        ok = stats.replans_rolled_back >= 1 and stats.rollback_parity
        print(f"drill: rollbacks={stats.replans_rolled_back}, "
              f"parity={'ok' if stats.rollback_parity else 'BROKEN'} -> "
              f"{'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def _cmd_trace(args) -> int:
    """Run one experiment inside a :func:`repro.telemetry.tracing` block.

    The ambient-default mechanism does the instrumentation: every scenario,
    scheduler, injector and placer constructed while the block is active
    resolves the installed context, so experiment code needs no changes.
    """
    from repro.telemetry import JSONLSink, Telemetry, tracing

    fn, _ = EXPERIMENTS[args.experiment]
    sinks = [JSONLSink(args.jsonl)] if args.jsonl is not None else []
    tel = Telemetry(*sinks)
    t0 = time.perf_counter()
    try:
        with tracing(tel):
            result = fn()
    finally:
        tel.close()
    elapsed = time.perf_counter() - t0
    if not args.quiet:
        print(render_result(result))
    print(f"[{args.experiment} traced in {elapsed:.1f}s]")
    print(tel.digest())
    if args.jsonl is not None:
        print(f"[{tel.events.emitted} events written to {args.jsonl}]")
    if args.metrics_json is not None:
        args.metrics_json.parent.mkdir(parents=True, exist_ok=True)
        args.metrics_json.write_text(tel.metrics.to_json(indent=2) + "\n")
        print(f"[metrics snapshot written to {args.metrics_json}]")
    return 0


def _cmd_dashboard(args) -> int:
    from repro.observability.dashboard import run_dashboard

    return run_dashboard(
        args.experiment,
        n_intervals=args.intervals,
        seed=args.seed,
        refresh=args.refresh,
        once=args.once,
        follow=args.follow,
        from_jsonl=args.from_jsonl,
        html=args.html,
        jsonl_out=args.jsonl,
        overcommit=args.overcommit,
        inject_drift=args.inject_drift,
        drift_at=args.drift_at,
        rules_path=args.rules,
        rho=args.rho,
    )


def _cmd_compare(args) -> int:
    from repro.observability.compare import run_compare

    return run_compare(args.baseline, args.candidate, rtol=args.rtol,
                       show_unchanged=args.show_unchanged,
                       ignore=tuple(args.ignore))


def _cmd_explain(args) -> int:
    """Render one explain-query from a recorded trace (no simulator)."""
    from repro.observability.provenance import (
        ProvenanceIndex,
        render_explanation,
    )

    try:
        index = ProvenanceIndex.from_jsonl(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    text = render_explanation(index, vm=args.vm, pm=args.pm,
                              tick=args.tick, decision=args.decision)
    print(text)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text + "\n")
        print(f"[explanation written to {args.output}]")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, (_, desc) in EXPERIMENTS.items():
            print(f"{name:8s} {desc}")
        return 0
    if args.command == "fit":
        return _cmd_fit(args)
    if args.command == "consolidate":
        return _cmd_consolidate(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "autopilot":
        return _cmd_autopilot(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "dashboard":
        return _cmd_dashboard(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "serve":
        from repro.service.cli import run_serve

        return run_serve(args)
    if args.command == "claims":
        from repro.experiments.claims import verify_claims

        report = verify_claims()
        print(render_result(report))
        return 0 if all(r[2] == "PASS" for r in report.rows) else 1

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        fn, _ = EXPERIMENTS[name]
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        text = render_result(result)
        print(text)
        print(f"[{name} regenerated in {elapsed:.1f}s]\n")
        if args.plot:
            art = _plot(result)
            if art:
                print(art + "\n")
        if args.output_dir is not None:
            args.output_dir.mkdir(parents=True, exist_ok=True)
            (args.output_dir / f"{name}.txt").write_text(text + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
