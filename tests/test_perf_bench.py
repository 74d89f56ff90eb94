"""The serial experiment runner: filtering, seeding, aggregation, progress."""

from __future__ import annotations

import json

import pytest

from repro.perf.bench import iter_job_names, job_seed, run_bench
from repro.telemetry import RingBufferSink, Telemetry, tracing


class TestJobSelection:
    def test_star_matches_whole_registry(self):
        from repro.experiments.runner import EXPERIMENTS
        assert iter_job_names("*") == sorted(EXPERIMENTS)

    def test_glob_filters(self):
        figs = iter_job_names("fig*")
        assert figs == ["fig10", "fig5", "fig6", "fig7", "fig8", "fig9"]
        assert iter_job_names("ablation_r*") == [
            "ablation_reconsolidation", "ablation_reservation_shape",
            "ablation_resilience", "ablation_rho_sweep", "ablation_rounding",
        ]

    def test_no_match_raises(self):
        with pytest.raises(ValueError, match="no experiment matches"):
            run_bench("no_such_job_*")


class TestSeeding:
    def test_job_seed_deterministic_and_name_sensitive(self):
        assert job_seed(2013, "fig9") == job_seed(2013, "fig9")
        assert job_seed(2013, "fig9") != job_seed(2013, "fig8")
        assert job_seed(2013, "fig9") != job_seed(2014, "fig9")

    def test_default_seed_matches_published_run(self):
        from repro.analysis.report import render_result
        from repro.experiments.runner import EXPERIMENTS
        (result,) = run_bench("table1")
        fn, _ = EXPERIMENTS["table1"]
        assert result.text == render_result(fn())
        assert result.ok and result.error == ""
        assert result.seed is None


class TestAggregation:
    def test_results_layout(self, tmp_path):
        run_bench("table1", output_dir=tmp_path)
        summary = json.loads((tmp_path / "BENCH_results.json").read_text())
        assert summary["pattern"] == "table1"
        job = summary["jobs"]["table1"]
        assert job["ok"] is True
        assert len(job["rows_sha256"]) == 64
        assert "text" not in job  # tables live in the .txt, not the summary
        # wall-clock noise lives in BENCH_timings.json, never the summary —
        # that is what makes BENCH_results.json byte-comparable across runs
        assert "seconds" not in job
        timings = json.loads((tmp_path / "BENCH_timings.json").read_text())
        assert timings["parallel"] == 1
        assert timings["jobs"]["table1"] > 0
        assert (tmp_path / "table1.txt").read_text().rstrip()


class TestProgressStream:
    def test_jsonl_and_bus_events(self, tmp_path):
        progress = tmp_path / "progress.jsonl"
        sink = RingBufferSink()
        seen = []
        with tracing(Telemetry(sink)):
            run_bench("table1", progress_path=progress,
                      on_event=seen.append)
        lines = [json.loads(line)
                 for line in progress.read_text().splitlines()]
        kinds = [d["kind"] for d in lines]
        assert kinds == ["bench_job_started", "bench_job_finished"]
        assert lines[0]["job"] == "table1"
        assert lines[1]["ok"] is True
        assert [e.kind for e in sink.events] == kinds
        assert [type(e).__name__ for e in seen] == [
            "BenchJobStarted", "BenchJobFinished"]

    def test_failing_job_reports_not_raises(self, monkeypatch, tmp_path):
        import repro.experiments.runner as runner_mod

        def boom():
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(runner_mod.EXPERIMENTS, "table1",
                            (boom, "broken on purpose"))
        (result,) = run_bench("table1", output_dir=tmp_path)
        assert not result.ok
        assert "RuntimeError: synthetic failure" in result.error
        assert result.rows_sha256 == ""
        assert not (tmp_path / "table1.txt").exists()  # no table to persist
        summary = json.loads((tmp_path / "BENCH_results.json").read_text())
        assert summary["jobs"]["table1"]["ok"] is False


class TestCLI:
    def test_bench_list(self, capsys):
        from repro.experiments.runner import main
        assert main(["bench", "--list", "--filter", "fig*"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "fig9" in out and "table1" not in out

    def test_bench_run_writes_results(self, tmp_path, capsys):
        from repro.experiments.runner import main
        code = main(["bench", "--filter", "table1", "-o", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "BENCH_results.json").exists()
        out = capsys.readouterr().out
        assert "table1" in out

    def test_bench_bad_filter_exit_code(self, capsys):
        from repro.experiments.runner import main
        assert main(["bench", "--filter", "zzz*"]) == 2
