"""End-to-end telemetry: determinism, replay consistency, CLI, overhead."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.types import PMSpec, VMSpec
from repro.experiments.runner import main
from repro.placement.ffd import ffd_by_base
from repro.simulation.scenario import Scenario
from repro.telemetry import (
    JSONLSink,
    NullSink,
    RingBufferSink,
    Telemetry,
    read_events_tolerant,
    tracing,
)
from tests.helpers import count_by_kind, get_telemetry, replay_summary


def _fleet(n_vms: int = 30, n_pms: int = 20, seed: int = 5):
    rng = np.random.default_rng(seed)
    vms = [VMSpec(0.3, 0.4, r_base=float(rng.uniform(5, 20)),
                  r_extra=float(rng.uniform(5, 20))) for _ in range(n_vms)]
    pms = [PMSpec(capacity=60.0) for _ in range(n_pms)]
    return vms, pms


def _run(telemetry: Telemetry | None, *, seed: int = 11):
    vms, pms = _fleet()
    return Scenario(
        vms, pms, placer=ffd_by_base(), failures=True,
        migration_failure_probability=0.3, telemetry=telemetry,
    ).run(n_intervals=50, seed=seed)


class TestDeterminism:
    def test_same_seed_same_event_stream(self):
        streams = []
        for _ in range(2):
            sink = RingBufferSink()
            _run(Telemetry(sink))
            streams.append([e.to_dict() for e in sink.events])
        assert streams[0] == streams[1]
        assert streams[0]  # non-trivial

    def test_different_seed_different_stream(self):
        sinks = [RingBufferSink(), RingBufferSink()]
        _run(Telemetry(sinks[0]), seed=11)
        _run(Telemetry(sinks[1]), seed=12)
        assert ([e.to_dict() for e in sinks[0].events]
                != [e.to_dict() for e in sinks[1].events])


class TestNullSinkOverhead:
    def test_null_sink_emits_nothing(self):
        tel = Telemetry(NullSink())
        report = _run(tel)
        assert tel.events.emitted == 0
        # metrics and spans still flow: that's the cheap always-on plane
        assert tel.metrics.counter("migration_attempts_total").value > 0
        assert not tel.profiler.empty
        assert report.total_migrations > 0

    def test_untraced_run_matches_traced_run(self):
        untraced = _run(None)
        traced = _run(Telemetry(RingBufferSink()))
        assert untraced.total_migrations == traced.total_migrations
        assert untraced.final_pms_used == traced.final_pms_used
        assert np.array_equal(untraced.record.violation_counts,
                              traced.record.violation_counts)


class TestReplayConsistency:
    def test_jsonl_round_trip_recomputes_the_report(self, tmp_path):
        path = tmp_path / "events.jsonl"
        tel = Telemetry(JSONLSink(path))
        report = _run(tel)
        tel.close()

        events, skipped = read_events_tolerant(path)
        assert skipped == 0
        assert len(events) == tel.events.emitted
        counts = replay_summary(events)
        assert counts["migrations"] == report.total_migrations
        assert (counts["failed_migrations"]
                == report.record.failed_migration_attempts)
        assert counts["crashes"] == report.failures.failures
        assert (counts["capacity_violations"]
                == int(report.record.violation_counts.sum()))
        assert counts["vms_placed"] == 30

    def test_count_by_kind(self):
        sink = RingBufferSink()
        _run(Telemetry(sink))
        kinds = count_by_kind(sink.events)
        assert kinds["vm_placed"] == 30
        assert sum(kinds.values()) == len(sink.events)


class TestScenarioSurface:
    def test_summary_includes_digest_when_traced(self):
        tel = Telemetry(RingBufferSink())
        report = _run(tel)
        assert report.telemetry is tel
        assert "telemetry:" in report.summary()
        assert "events emitted" in report.summary()

    def test_summary_silent_when_untraced(self):
        report = _run(None)
        assert report.telemetry is None
        assert "telemetry:" not in report.summary()

    def test_ambient_tracing_reaches_scenario(self):
        sink = RingBufferSink()
        with tracing(Telemetry(sink)) as tel:
            _run(None)  # never sees the handle explicitly
        assert tel.events.emitted == len(sink.events) > 0
        assert get_telemetry() is None  # context restored


class TestTraceCLI:
    def test_trace_fig10_writes_replayable_jsonl(self, tmp_path, capsys):
        jsonl = tmp_path / "fig10.jsonl"
        metrics = tmp_path / "metrics.json"
        rc = main(["trace", "fig10", "--quiet",
                   "--jsonl", str(jsonl), "--metrics-json", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "span" in out
        events, skipped = read_events_tolerant(jsonl)
        assert events, "simulated experiment should emit events"
        assert skipped == 0
        assert metrics.exists()
        # the stream is internally consistent: every completed migration
        # has a matching start
        kinds = count_by_kind(events)
        assert kinds["migration_completed"] <= kinds["migration_started"]

    def test_trace_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["trace", "nope"])
