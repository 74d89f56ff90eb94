"""Performance observatory: attribution, budgets, traces, sweep, CLI gate."""

from __future__ import annotations

import json

import pytest

from repro.analysis.regression import metric_tolerance, regression_diff
from repro.experiments.runner import main
from repro.observability.perf import (
    PHASE_ORDER,
    BudgetRule,
    MemoryProbe,
    PerfBudget,
    PerfSnapshot,
    PhaseAttributor,
    chrome_trace_to_spans,
    flatten_metrics,
    run_perf_sweep,
    spans_to_chrome_trace,
)
from repro.telemetry.profiling import Profiler, Span


def synthetic_tree() -> Profiler:
    """A hand-built profiler tree with known per-phase self times."""
    prof = Profiler()
    tick = prof.root.child("tick")
    tick.count, tick.total_seconds = 2, 1.0
    demand = tick.child("phase.demand")
    demand.count, demand.total_seconds = 2, 0.30
    solve = demand.child("mapcal.solve")  # unmapped -> inherits demand
    solve.count, solve.total_seconds = 4, 0.10
    sched = tick.child("phase.scheduler")
    sched.count, sched.total_seconds = 2, 0.25
    mig = sched.child("migration.attempt")  # mapped -> its own phase
    mig.count, mig.total_seconds, mig.errors = 3, 0.05, 1
    emit = tick.child("telemetry.emit")
    emit.count, emit.total_seconds = 10, 0.15
    return prof


class TestPhaseAttribution:
    def test_phases_exactly_partition_tick_time(self):
        report = PhaseAttributor().attribute(synthetic_tree())
        assert report.tick_count == 2
        assert report.tick_seconds == pytest.approx(1.0)
        assert sum(report.phase_seconds.values()) == pytest.approx(
            report.tick_seconds)

    def test_self_time_lands_in_the_mapped_phase(self):
        report = PhaseAttributor().attribute(synthetic_tree())
        # demand span 0.30 total, 0.10 of it in the (inherited) solve child
        assert report.phase_seconds["demand"] == pytest.approx(0.30)
        # migration is mapped away from its scheduler parent
        assert report.phase_seconds["scheduler"] == pytest.approx(0.20)
        assert report.phase_seconds["migration"] == pytest.approx(0.05)
        assert report.phase_seconds["telemetry"] == pytest.approx(0.15)
        # tick's own bookkeeping: 1.0 - 0.30 - 0.25 - 0.15
        assert report.phase_seconds["other"] == pytest.approx(0.30)

    def test_span_calls_and_errors_are_flat_aggregates(self):
        report = PhaseAttributor().attribute(synthetic_tree())
        assert "<root>" not in report.span_calls
        assert report.span_calls["migration.attempt"] == 3
        assert report.span_calls["mapcal.solve"] == 4
        assert report.span_errors == {"migration.attempt": 1}

    def test_fractions_and_table(self):
        report = PhaseAttributor().attribute(synthetic_tree())
        assert sum(report.phase_fraction.values()) == pytest.approx(1.0)
        text = report.table(vm_intervals=100)
        assert "ns/vm-interval" in text
        for phase in PHASE_ORDER:
            assert phase in text

    def test_serving_time_lands_in_the_serving_phase(self):
        from repro.core import QueuingFFD
        from repro.simulation.scenario import Scenario
        from repro.telemetry import Telemetry
        from repro.workload.patterns import generate_pattern_instance

        vms, pms = generate_pattern_instance("equal", 24, seed=7)
        tel = Telemetry()
        Scenario(vms, pms, placer=QueuingFFD(rho=0.01, d=16), serving=True,
                 telemetry=tel).run(20, seed=3)
        span = tel.profiler.root.children["tick"].children["phase.serving"]
        report = PhaseAttributor().attribute(tel.profiler)
        assert span.self_seconds > 0.0
        assert report.phase_seconds["serving"] >= span.self_seconds
        assert report.phase_seconds["other"] < (
            tel.profiler.root.children["tick"].self_seconds
            + span.self_seconds)

    def test_empty_profiler_yields_zero_report(self):
        report = PhaseAttributor().attribute(Profiler())
        assert report.tick_count == 0
        assert report.tick_seconds == 0.0
        assert all(v == 0.0 for v in report.phase_fraction.values())

    def test_snapshot_throughput(self):
        snap = PerfSnapshot.capture(synthetic_tree(), n_vms=50,
                                    elapsed_seconds=2.0)
        # 2 ticks * 50 VMs / 2 s
        assert snap.vm_intervals_per_second == pytest.approx(50.0)


class TestMemoryProbe:
    def test_probe_sees_allocation_and_stops_tracing(self):
        import tracemalloc
        with MemoryProbe() as probe:
            blob = [bytearray(1 << 16) for _ in range(8)]
        del blob
        assert probe.peak_bytes > 8 * (1 << 16) // 2
        assert not tracemalloc.is_tracing()


class TestChromeTrace:
    def roundtrip(self, forests):
        trace = spans_to_chrome_trace(forests)
        json.loads(json.dumps(trace))  # must be plain JSON
        return chrome_trace_to_spans(trace)

    def test_lossless_roundtrip_of_a_real_run(self):
        prof = synthetic_tree()
        forests = {"n50": prof.to_dict()}
        assert self.roundtrip(forests) == forests

    def test_multiple_labels_map_to_processes(self):
        forests = {"a": synthetic_tree().to_dict(),
                   "b": synthetic_tree().to_dict()}
        back = self.roundtrip(forests)
        assert sorted(back) == ["a", "b"]
        assert back["a"] == forests["a"]

    def test_unbalanced_close_rejected(self):
        trace = spans_to_chrome_trace({"x": synthetic_tree().to_dict()})
        bad = [e for e in trace["traceEvents"] if e["ph"] != "E"]
        with pytest.raises(ValueError, match="never closed"):
            chrome_trace_to_spans({"traceEvents": bad})

    def test_mismatched_close_rejected(self):
        trace = spans_to_chrome_trace({"x": synthetic_tree().to_dict()})
        for event in trace["traceEvents"]:
            if event["ph"] == "E" and event["name"] == "tick":
                event["name"] = "not_tick"
        with pytest.raises(ValueError, match="does not close"):
            chrome_trace_to_spans(trace)

    def test_spans_from_dict_accepts_roundtripped_tree(self):
        back = self.roundtrip({"n1": synthetic_tree().to_dict()})
        (tick,) = (Span.from_dict(s) for s in back["n1"]["spans"])
        assert tick.name == "tick" and tick.count == 2
        assert tick.children["phase.scheduler"] \
            .children["migration.attempt"].errors == 1


class TestFlattenMetrics:
    def test_nested_dicts_become_dotted_keys(self):
        flat = flatten_metrics(
            {"sweep": {"50": {"a": 1, "b": {"c": 2.5}}}, "top": 3})
        assert flat == {"sweep.50.a": 1.0, "sweep.50.b.c": 2.5, "top": 3.0}

    def test_non_numeric_leaves_dropped(self):
        assert flatten_metrics({"fmt": "v1", "x": 1, "ok": True}) == {
            "x": 1.0, "ok": 1.0}


class TestPerfBudget:
    def test_max_with_tolerance(self):
        budget = PerfBudget([BudgetRule("a.*", max=10.0, tolerance=0.5)])
        ok, _ = budget.check({"a.x": 14.9})
        assert ok == []
        bad, _ = budget.check({"a.x": 15.1})
        assert [v.metric for v in bad] == ["a.x"]
        assert "max 10" in bad[0].reason

    def test_min_with_tolerance(self):
        budget = PerfBudget([BudgetRule("rate", min=100.0, tolerance=0.2)])
        assert budget.check({"rate": 81.0})[0] == []
        bad, _ = budget.check({"rate": 79.0})
        assert bad and "min 100" in bad[0].reason

    def test_unmatched_rules_reported_not_silently_disarmed(self):
        budget = PerfBudget([BudgetRule("renamed.*", max=1.0)])
        violations, unmatched = budget.check({"other.metric": 99.0})
        assert violations == []
        assert [r.pattern for r in unmatched] == ["renamed.*"]

    def test_metric_must_pass_every_matching_rule(self):
        budget = PerfBudget([BudgetRule("a.*", max=10.0),
                             BudgetRule("*.x", max=5.0)])
        bad, _ = budget.check({"a.x": 7.0})
        assert len(bad) == 1 and bad[0].rule.pattern == "*.x"

    def test_from_file_and_empty_rejected(self, tmp_path):
        path = tmp_path / "budgets.json"
        path.write_text(json.dumps({
            "format": "repro-perf-budget-v1",
            "budgets": {"sweep.*.x": {"max": 2, "tolerance": 0.1}},
        }))
        budget = PerfBudget.from_file(path)
        assert [r.pattern for r in budget.rules] == ["sweep.*.x"]
        assert budget.rules[0].effective_max == pytest.approx(2.2)
        path.write_text(json.dumps({"budgets": {}}))
        with pytest.raises(ValueError, match="no budget rules"):
            PerfBudget.from_file(path)

    def test_committed_budget_file_parses(self):
        budget = PerfBudget.from_file("benchmarks/perf_budgets.json")
        assert any(r.min is not None for r in budget.rules)
        assert any(r.max is not None for r in budget.rules)


class TestToleranceAwareRegression:
    def test_first_matching_pattern_wins(self):
        tolerances = {"sweep.*.median_seconds": 0.5, "sweep.*": 0.1}
        assert metric_tolerance("sweep.50.median_seconds", tolerances,
                                0.01) == 0.5
        assert metric_tolerance("sweep.50.migrations", tolerances,
                                0.01) == 0.1
        assert metric_tolerance("unrelated", tolerances, 0.01) == 0.01

    def test_perf_metric_gets_slack_accuracy_stays_exact(self):
        base = {"sweep.50.median_seconds": 1.0, "cvr_window": 0.010}
        cand = {"sweep.50.median_seconds": 1.3, "cvr_window": 0.011}
        strict = regression_diff(base, cand, rtol=0.0)
        assert {d.metric for d in strict if d.verdict == "regression"} == {
            "sweep.50.median_seconds", "cvr_window"}
        slack = regression_diff(
            base, cand, rtol=0.0,
            tolerances={"*.median_seconds": 0.5})
        regressed = {d.metric for d in slack if d.verdict == "regression"}
        assert "sweep.50.median_seconds" not in regressed
        assert "cvr_window" in regressed

    def test_lower_is_worse_direction_by_leaf(self):
        base = {"sweep.50.vm_intervals_per_second": 1000.0}
        cand = {"sweep.50.vm_intervals_per_second": 500.0}
        (diff,) = regression_diff(base, cand, rtol=0.1)
        assert diff.verdict == "regression"
        (diff,) = regression_diff(cand, base, rtol=0.1)
        assert diff.verdict != "regression"


SWEEP_KW = dict(sweep=(12,), intervals=6, repeats=2, seed=7,
                trace_memory=False)


class TestPerfSweep:
    def test_facts_deterministic_and_wall_clock_free(self):
        first = run_perf_sweep(**SWEEP_KW)
        second = run_perf_sweep(**SWEEP_KW)
        assert json.dumps(first.facts_dict(), sort_keys=True) == \
            json.dumps(second.facts_dict(), sort_keys=True)
        text = json.dumps(first.facts_dict())
        assert "seconds" not in text  # wall clock lives in the sidecar only

    def test_phase_sum_matches_tick_total(self):
        result = run_perf_sweep(**SWEEP_KW)
        point = result.points[12]
        assert point.report.tick_count == 6
        total = sum(point.report.phase_seconds.values())
        assert total == pytest.approx(point.report.tick_seconds, rel=0.05)
        assert point.telemetry_fraction < 0.5

    def test_artifacts_written_and_loadable(self, tmp_path):
        result = run_perf_sweep(**SWEEP_KW)
        paths = result.write(tmp_path)
        facts = json.loads(paths["facts"].read_text())
        assert facts["format"] == "repro-perf-v1"
        timings = json.loads(paths["timings"].read_text())
        assert timings["format"] == "repro-perf-timings-v1"
        assert "median_seconds" in timings["sweep"]["12"]
        trace = json.loads(paths["trace"].read_text())
        assert chrome_trace_to_spans(trace)["n12"] == result.points[12].spans

    def test_plain_baseline_is_the_median_of_plain_repeats(self, tmp_path):
        result = run_perf_sweep(**{**SWEEP_KW, "repeats": 3})
        point = result.points[12]
        assert len(point.plain_repeat_seconds) == 3
        assert point.plain_repeat_seconds == sorted(point.plain_repeat_seconds)
        assert point.plain_seconds == point.plain_repeat_seconds[1]
        timings = json.loads(result.write(tmp_path)["timings"].read_text())
        row = timings["sweep"]["12"]
        assert row["plain_repeat_seconds"] == point.plain_repeat_seconds
        assert row["plain_seconds"] == point.plain_seconds

    def test_slow_phase_shifts_attribution(self):
        slowed = run_perf_sweep(slow_phase=("monitor", 0.002), **SWEEP_KW)
        frac = slowed.points[12].report.phase_fraction["monitor"]
        assert frac > 0.5, f"slowed monitor only {frac:.0%} of tick time"

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            run_perf_sweep(sweep=(10,), mode="turbo")
        with pytest.raises(ValueError, match="positive"):
            run_perf_sweep(sweep=(0,))
        with pytest.raises(ValueError, match="repeats"):
            run_perf_sweep(sweep=(10,), repeats=0)
        with pytest.raises(ValueError, match="unknown --slow-phase"):
            run_perf_sweep(slow_phase=("warp", 1.0), **SWEEP_KW)


class TestParallelSpanIntegrity:
    """`bench --parallel` + REPRO_PROFILE_JOBS: per-job trees stay whole."""

    def run_profiled(self, monkeypatch, tmp_path, parallel):
        from repro.perf.bench import run_bench

        monkeypatch.setenv("REPRO_PROFILE_JOBS", "1")
        return run_bench("[pt]*", parallel=parallel,
                         output_dir=tmp_path / f"p{parallel}")

    def test_each_job_gets_its_own_unmingled_tree(self, monkeypatch,
                                                  tmp_path):
        results = self.run_profiled(monkeypatch, tmp_path, parallel=2)
        assert [r.name for r in results] == ["perf_scaling", "table1"]
        by_name = {r.name: r.spans for r in results}
        for name, spans in by_name.items():
            assert spans is not None, f"{name} was not profiled"
        # perf_scaling runs simulations -> has tick spans; table1 only
        # solves MapCal models.  Interleaving or double-counting across
        # the pool would leak tick spans into table1's tree.
        names_of = {
            name: {s["name"] for s in spans["spans"]}
            for name, spans in by_name.items()
        }
        assert not any("tick" in top for top in names_of["table1"])

        def count_ticks(node):
            own = node["count"] if node["name"] == "tick" else 0
            return own + sum(count_ticks(c) for c in node["children"])

        ticks = sum(count_ticks(s) for s in by_name["perf_scaling"]["spans"])
        # perf_scaling: sweep (20, 40) x 10 intervals x (1 plain is
        # untraced + 1 instrumented repeat) = 2 sizes * 10 ticks
        assert ticks == 20

    def test_parallel_matches_serial_and_stays_out_of_results_json(
            self, monkeypatch, tmp_path):
        fanned = self.run_profiled(monkeypatch, tmp_path, parallel=2)
        serial = self.run_profiled(monkeypatch, tmp_path, parallel=1)

        def shape(node):
            """Structure + call counts, wall-clock stripped."""
            return (node["name"], node["count"], node.get("errors", 0),
                    tuple(shape(c) for c in node["children"]))

        for a, b in zip(serial, fanned):
            assert a.name == b.name
            assert tuple(shape(s) for s in a.spans["spans"]) == \
                tuple(shape(s) for s in b.spans["spans"])
            assert "spans" not in a.summary_dict()
        assert (tmp_path / "p1" / "BENCH_results.json").read_text() == \
            (tmp_path / "p2" / "BENCH_results.json").read_text()

    def test_forked_worker_trees_roundtrip_through_chrome_trace(
            self, monkeypatch, tmp_path):
        results = self.run_profiled(monkeypatch, tmp_path, parallel=2)
        forests = {f"worker:{r.name}": r.spans for r in results}
        trace = spans_to_chrome_trace(forests)
        assert chrome_trace_to_spans(trace) == forests

    def test_unprofiled_by_default(self, tmp_path):
        from repro.perf.bench import run_bench

        (result,) = run_bench("table1", output_dir=tmp_path)
        assert result.spans is None


class TestPerfCLI:
    def cli(self, tmp_path, *extra):
        return main(["perf", "--sweep", "15", "-n", "6", "--repeats", "1",
                     "--seed", "7", "--no-memory",
                     "-o", str(tmp_path), *extra])

    def test_perf_writes_artifacts_and_reports(self, tmp_path, capsys):
        assert self.cli(tmp_path) == 0
        out = capsys.readouterr().out
        assert "scaling sweep" in out
        assert "phase attribution" in out
        assert "observer-effect check" in out
        for name in ("BENCH_PERF.json", "BENCH_PERF_timings.json",
                     "BENCH_PERF_trace.json"):
            assert (tmp_path / name).exists(), name

    def test_budget_gate_trips_on_slowed_phase(self, tmp_path, capsys):
        rc = self.cli(tmp_path, "--slow-phase", "monitor=0.004",
                      "--budget", "benchmarks/perf_budgets.json")
        assert rc == 1
        out = capsys.readouterr().out
        assert "BUDGET VIOLATION" in out
        assert "phase_fraction.monitor" in out

    def test_budget_gate_passes_nominal_run(self, tmp_path, capsys):
        rc = self.cli(tmp_path, "--budget", "benchmarks/perf_budgets.json")
        assert rc == 0
        assert "within budget" in capsys.readouterr().out

    def test_observer_effect_ceiling_enforced(self, tmp_path, capsys):
        rc = self.cli(tmp_path, "--max-telemetry-fraction", "0.000001")
        assert rc == 1
        assert "observer-effect check" in capsys.readouterr().err

    def test_bad_sweep_and_slow_phase_rejected(self, tmp_path, capsys):
        assert main(["perf", "--sweep", "ten", "-o", str(tmp_path)]) == 2
        assert main(["perf", "--sweep", "15", "--slow-phase", "nope",
                     "-o", str(tmp_path)]) == 2
        capsys.readouterr()


class TestCompareCLI:
    def timings_pair(self, tmp_path, *, scale=1.0):
        """Baseline timings plus a copy with the medians scaled."""
        data = run_perf_sweep(**SWEEP_KW).timings_dict()
        a = tmp_path / "a.json"
        a.write_text(json.dumps(data, indent=2, sort_keys=True))
        for point in data["sweep"].values():
            point["median_seconds"] *= scale
            point["vm_intervals_per_second"] /= scale
        b = tmp_path / "b.json"
        b.write_text(json.dumps(data, indent=2, sort_keys=True))
        return a, b

    def test_identical_perf_files_pass(self, tmp_path, capsys):
        a, _ = self.timings_pair(tmp_path)
        assert main(["compare", str(a), str(a)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_perf_regression_flagged_and_tolerance_waives_it(
            self, tmp_path, capsys):
        a, b = self.timings_pair(tmp_path, scale=3.0)
        assert main(["compare", str(a), str(b)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        rc = main(["compare", str(a), str(b),
                   "--tolerance", "sweep.*.median_seconds=400",
                   "--tolerance", "sweep.*.vm_intervals_per_second=400"])
        assert rc == 0
        capsys.readouterr()

    def test_bad_tolerance_spec_rejected(self, tmp_path, capsys):
        a, _ = self.timings_pair(tmp_path)
        assert main(["compare", str(a), str(a),
                     "--tolerance", "no-equals-sign"]) == 2
        capsys.readouterr()

    def test_budget_mode_gates_on_exit_code(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        budgets = tmp_path / "b.json"
        metrics.write_text(json.dumps(
            {"format": "repro-perf-timings-v1",
             "sweep": {"50": {"telemetry_fraction": 0.9}}}))
        budgets.write_text(json.dumps(
            {"budgets": {"sweep.*.telemetry_fraction":
                         {"max": 0.15, "tolerance": 0.5}}}))
        assert main(["compare", "--budget", str(budgets), str(metrics)]) == 1
        assert "BUDGET VIOLATION" in capsys.readouterr().out
        metrics.write_text(json.dumps(
            {"format": "repro-perf-timings-v1",
             "sweep": {"50": {"telemetry_fraction": 0.01}}}))
        assert main(["compare", "--budget", str(budgets), str(metrics)]) == 0
        assert "within budget" in capsys.readouterr().out

    def test_budget_mode_missing_file_is_exit_2(self, tmp_path, capsys):
        budgets = tmp_path / "b.json"
        budgets.write_text(json.dumps({"budgets": {"x": {"max": 1}}}))
        rc = main(["compare", "--budget", str(budgets),
                   str(tmp_path / "missing.json")])
        assert rc == 2
        capsys.readouterr()
