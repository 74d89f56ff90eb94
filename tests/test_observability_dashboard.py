"""Observatory end-to-end: live runs, JSONL replay, dashboard, compare."""

from __future__ import annotations

import io

import pytest

from repro.analysis.regression import regression_diff
from repro.experiments.runner import main
from repro.observability import Observatory, render_frame, render_html
from repro.observability.dashboard import (
    EXPERIMENT_ALIASES,
    RECIPES,
    build_scenario,
    resolve_experiment,
)
from repro.telemetry import JSONLSink, Telemetry


def observed_run(tmp_path, *, overcommit=1.0, n_intervals=60, seed=11,
                 name="run.jsonl"):
    """Run a small observed scenario; return (observatory, trace path)."""
    trace = tmp_path / name
    obs = Observatory()
    tel = Telemetry(JSONLSink(trace))
    scenario = build_scenario("fig6", observatory=obs, telemetry=tel,
                              overcommit=overcommit, seed=seed)
    scenario.run(n_intervals, seed=seed)
    tel.close()
    return obs, trace


class TestLiveObservation:
    def test_observatory_tracks_every_interval(self, tmp_path):
        obs, _ = observed_run(tmp_path)
        assert obs.recorder.ticks == 60
        assert obs.recorder.last_time == 59
        assert obs.recorder.pms  # per-PM state populated

    def test_overcommitted_run_fires_cvr_alert(self, tmp_path):
        obs, _ = observed_run(tmp_path, overcommit=1.6)
        assert obs.slo.fired_total >= 1
        assert any(s.rule == "cvr_burn" for s in obs.slo.timeline)
        # burn far above budget: CVR near 0.5 against rho=0.01
        assert obs.recorder.cvr() > 0.05

    def test_nominal_run_is_quiet(self, tmp_path):
        obs, _ = observed_run(tmp_path)
        assert obs.slo.fired_total == 0
        assert obs.drift.flagged_pms == []


class TestReplay:
    def test_replay_matches_live_state(self, tmp_path):
        obs, trace = observed_run(tmp_path, overcommit=1.6)
        replayed = Observatory.from_jsonl(trace)
        assert replayed.recorder.ticks == obs.recorder.ticks
        assert replayed.recorder.cvr() == pytest.approx(obs.recorder.cvr())
        # the replay recomputes the same alert timeline...
        assert ([(s.rule, s.fired_at, s.resolved_at)
                 for s in replayed.slo.timeline]
                == [(s.rule, s.fired_at, s.resolved_at)
                    for s in obs.slo.timeline])
        # ...and also sees the recorded alert events in the stream
        recorded_fired = [e for e in replayed.recorded_alerts
                          if e.kind == "alert_fired"]
        assert len(recorded_fired) == obs.slo.fired_total

    def test_replay_runs_no_simulator(self, tmp_path, monkeypatch):
        _, trace = observed_run(tmp_path)
        import repro.simulation.engine as engine_mod

        def boom(self, *a, **k):  # pragma: no cover - must not be reached
            raise AssertionError("simulator executed during replay")

        monkeypatch.setattr(engine_mod.SimulationEngine, "run", boom)
        replayed = Observatory.from_jsonl(trace)
        assert replayed.recorder.ticks == 60

    def test_replay_tolerates_corrupt_lines(self, tmp_path):
        _, trace = observed_run(tmp_path)
        text = trace.read_text().splitlines()
        text.insert(3, "{truncated")
        text.insert(10, '{"kind": "no_such_kind", "time": 1}')
        trace.write_text("\n".join(text) + "\n")
        replayed = Observatory.from_jsonl(trace)
        assert replayed.skipped_lines == 2
        assert replayed.recorder.ticks == 60


class TestRendering:
    def test_frame_renders_alerts_and_offenders(self, tmp_path):
        obs, _ = observed_run(tmp_path, overcommit=1.6)
        frame = render_frame(obs)
        assert "cvr_burn" in frame
        assert "worst offenders" in frame
        assert "utilization" in frame

    def test_frame_on_empty_observatory(self):
        frame = render_frame(Observatory())
        assert "(no data)" in frame
        assert "alerts: none firing" in frame

    def test_html_self_contained_and_escaped(self, tmp_path):
        obs, _ = observed_run(tmp_path)
        html = render_html(obs, title="smoke <test>")
        assert html.startswith("<!DOCTYPE html>")
        assert "smoke <test>" not in html  # title is not escaped into <pre>
        assert "http" not in html  # no external assets
        assert "<pre>" in html


class TestRecipes:
    def test_aliases_resolve(self):
        assert resolve_experiment("fig6_cvr") == "fig6"
        for alias, target in EXPERIMENT_ALIASES.items():
            assert target in RECIPES
        with pytest.raises(ValueError, match="unknown experiment"):
            resolve_experiment("fig99")

    def test_overcommit_validated(self):
        with pytest.raises(ValueError, match="overcommit"):
            build_scenario("fig6", observatory=Observatory(), overcommit=0.5)


class TestCLI:
    def test_dashboard_once_with_html_and_jsonl(self, tmp_path, capsys):
        html = tmp_path / "obs.html"
        jsonl = tmp_path / "run.jsonl"
        rc = main(["dashboard", "fig6_cvr", "--once", "-n", "40",
                   "--html", str(html), "--jsonl", str(jsonl)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "run observatory" in out or "live:" in out
        assert html.exists() and "<pre>" in html.read_text()
        assert jsonl.exists() and jsonl.stat().st_size > 0

    def test_dashboard_from_jsonl(self, tmp_path, capsys):
        _, trace = observed_run(tmp_path, overcommit=1.6)
        rc = main(["dashboard", "x", "--from-jsonl", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cvr_burn" in out

    def test_dashboard_inject_drift_flags_pms(self, capsys):
        rc = main(["dashboard", "fig6", "--once", "-n", "200",
                   "--inject-drift", "0.08", "--drift-at", "40"])
        assert rc == 0
        assert "MODEL DRIFT" in capsys.readouterr().out

    def test_compare_identical_traces_no_regression(self, tmp_path, capsys):
        _, a = observed_run(tmp_path, name="a.jsonl")
        rc = main(["compare", str(a), str(a)])
        assert rc == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_flags_regression(self, tmp_path, capsys):
        _, a = observed_run(tmp_path, name="a.jsonl")
        _, b = observed_run(tmp_path, overcommit=1.6, name="b.jsonl")
        rc = main(["compare", str(a), str(b)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "cvr_window" in out

    def test_compare_missing_file(self, tmp_path, capsys):
        """A candidate that does not exist, recorded nothing or stopped
        early cannot be compared: exit 2, never "no regressions"."""
        _, a = observed_run(tmp_path, name="a.jsonl")
        lines = a.read_text().splitlines(keepends=True)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        shorter = tmp_path / "shorter.jsonl"
        shorter.write_text("".join(lines[:len(lines) // 3]))
        for candidate, error in (
                (tmp_path / "nope.jsonl", "no such trace file"),
                (empty, f"{empty} replays to zero events"),
                (shorter, f"{a} has 60 ticks")):
            rc = main(["compare", str(a), str(candidate)])
            assert rc == 2, candidate
            assert error in capsys.readouterr().out

    def test_dashboard_follow_renders_frames(self, tmp_path):
        from repro.observability.dashboard import run_dashboard

        buf = io.StringIO()
        rc = run_dashboard("fig6", n_intervals=30, refresh=10, follow=True,
                           stream=buf)
        assert rc == 0
        # intermediate frames plus the final one
        assert buf.getvalue().count("live: fig6") >= 3

    def test_dashboard_custom_rules_file(self, tmp_path, capsys):
        import json

        rules = [{
            "name": "always_cvr", "metric": "cvr", "budget": 0.5,
            "fast": {"window": 2, "factor": 0.001},
            "slow": {"window": 4, "factor": 0.001},
        }]
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": rules}))
        rc = main(["dashboard", "fig6", "--once", "-n", "30",
                   "--rules", str(path), "--overcommit", "1.6"])
        assert rc == 0
        assert "always_cvr" in capsys.readouterr().out


class TestRegressionDiff:
    @pytest.mark.parametrize("metric", [
        "sla_violation_window", "loss_rate_window", "shed_rate_window",
        "svc_wal_lag"])
    def test_slo_metric_rise_is_a_regression(self, metric):
        """The serving and service SLO rules burn on these keys."""
        (rise,) = regression_diff({metric: 0.1}, {metric: 0.2})
        assert rise.verdict == "regression"
        (fall,) = regression_diff({metric: 0.2}, {metric: 0.1})
        assert fall.verdict == "improvement"
