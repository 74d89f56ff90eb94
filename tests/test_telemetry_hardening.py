"""Telemetry hardening: rate-limited logs, tolerant replay, bus
subscriptions and the observability event kinds."""

from __future__ import annotations

import json
import logging

from repro.telemetry import (
    AlertFired,
    DriftDetected,
    IntervalSnapshot,
    LogRateLimiter,
    MetricsRegistry,
    Telemetry,
    event_from_dict,
    read_events_tolerant,
)
from repro.telemetry.events import CapacityViolation, MigrationCompleted
from tests.helpers import replay_summary


class TestLogRateLimiter:
    def test_one_line_per_window(self):
        lim = LogRateLimiter(window=10)
        assert lim.allow("monitor", "violation", 0)
        for t in range(1, 10):
            assert not lim.allow("monitor", "violation", t)
        assert lim.allow("monitor", "violation", 10)
        assert lim.suppressed == 9

    def test_keys_are_independent(self):
        lim = LogRateLimiter(window=10)
        assert lim.allow("a", "x", 0)
        assert lim.allow("b", "x", 0)
        assert lim.allow("a", "y", 0)

    def test_time_moving_backwards_reopens(self):
        lim = LogRateLimiter(window=10)
        assert lim.allow("a", "x", 100)
        assert lim.allow("a", "x", 0)  # fresh run reusing the limiter

    def test_warning_appends_suppressed_count(self, caplog):
        lim = LogRateLimiter(window=5)
        log = logging.getLogger("test.ratelimit")
        with caplog.at_level(logging.WARNING, logger="test.ratelimit"):
            assert lim.warning(log, "m", "k", 0, "overload on PM %d", 3)
            for t in range(1, 5):
                assert not lim.warning(log, "m", "k", t, "overload on PM %d", t)
            assert lim.warning(log, "m", "k", 5, "overload on PM %d", 9)
        assert len(caplog.records) == 2
        assert "(+4 similar suppressed)" in caplog.records[1].getMessage()

    def test_counter_integration(self):
        reg = MetricsRegistry()
        counter = reg.counter("log_suppressed_total")
        lim = LogRateLimiter(window=10, counter=counter)
        lim.allow("a", "x", 0)
        lim.allow("a", "x", 1)
        lim.allow("a", "x", 2)
        assert counter.value == 2

    def test_monitor_rate_limits_violation_warns(self, caplog):
        # 30 violating intervals must not produce 30 WARN lines
        import numpy as np

        from repro.core.types import Placement, PMSpec, VMSpec
        from repro.simulation.datacenter import Datacenter
        from repro.simulation.monitor import Monitor

        vms = [VMSpec(0.5, 0.01, 60.0, 30.0), VMSpec(0.5, 0.01, 60.0, 30.0)]
        pms = [PMSpec(100.0)]
        dc = Datacenter(vms, pms, Placement(2, 1, np.array([0, 0])), seed=1)
        monitor = Monitor(1, n_vms=2, log_window=50)
        with caplog.at_level(logging.WARNING,
                             logger="repro.simulation.monitor"):
            for _ in range(30):
                dc.step()
                monitor.record_interval(dc, [])
        warns = [r for r in caplog.records if "capacity" in r.getMessage()]
        assert 0 < len(warns) <= 2


class TestTolerantReplay:
    def write_trace(self, path, n=3):
        events = [MigrationCompleted(time=t, vm_id=t, source_pm=0,
                                     target_pm=1) for t in range(n)]
        path.write_text(
            "\n".join(json.dumps(e.to_dict()) for e in events) + "\n")
        return events

    def test_clean_file_no_skips(self, tmp_path):
        path = tmp_path / "t.jsonl"
        originals = self.write_trace(path)
        events, skipped = read_events_tolerant(path)
        assert skipped == 0
        assert events == originals

    def test_truncated_and_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self.write_trace(path)
        with path.open("a") as fh:
            fh.write('{"kind": "migration_comp')  # crashed writer
            fh.write("\n\n")  # blank lines are fine
            fh.write('{"kind": "unknown_kind", "time": 0}\n')
            fh.write('{"kind": "migration_completed", "nope": 1}\n')
        events, skipped = read_events_tolerant(path)
        assert len(events) == 3
        assert skipped == 3

    def test_replay_summary_accepts_path_and_counts_skips(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self.write_trace(path, n=4)
        with path.open("a") as fh:
            fh.write("garbage\n")
        summary = replay_summary(path)
        assert summary["migrations"] == 4
        assert summary["skipped_lines"] == 1

    def test_replay_summary_iterable_unchanged(self):
        events = [CapacityViolation(time=0, pm_id=0, load=1.0, capacity=0.5)]
        summary = replay_summary(events)
        assert summary["capacity_violations"] == 1
        assert summary["skipped_lines"] == 0


class TestObservabilityEventKinds:
    def test_interval_snapshot_round_trip(self):
        snap = IntervalSnapshot(
            time=7, pm_ids=(0, 2), loads=(10.0, 20.0),
            capacities=(100.0, 100.0), hosted=(3, 4), on_vms=(1, 0),
            expected_on=(0.3, 0.4), expected_var=(0.5, 0.7),
            migrations=2, overloaded=1)
        replayed = event_from_dict(json.loads(json.dumps(snap.to_dict())))
        assert replayed == snap
        assert isinstance(replayed.pm_ids, tuple)

    def test_alert_and_drift_round_trip(self):
        for event in (
            AlertFired(time=3, rule="cvr_burn", metric="cvr",
                       severity="page", burn_fast=14.5, burn_slow=2.2,
                       budget=0.01),
            DriftDetected(time=9, pm_id=4, statistic=15.2, threshold=10.83,
                          observed_on_fraction=0.3,
                          expected_on_fraction=0.1, windows=2),
        ):
            replayed = event_from_dict(json.loads(json.dumps(event.to_dict())))
            assert replayed == event


class TestBusSubscribe:
    def test_subscriber_sees_events_and_unsubscribes(self):
        tel = Telemetry()
        seen = []
        unsubscribe = tel.events.subscribe(seen.append)
        event = CapacityViolation(time=0, pm_id=0, load=1.0, capacity=0.5)
        tel.events.emit(event)
        assert seen == [event]
        unsubscribe()
        tel.events.emit(event)
        assert len(seen) == 1

    def test_bus_disabled_without_consumers(self):
        tel = Telemetry()
        unsubscribe = tel.events.subscribe(lambda e: None)
        assert tel.events.enabled
        unsubscribe()
        assert not tel.events.enabled

    def test_nested_emit_from_subscriber_is_delivered(self):
        # a subscriber that emits (the SLO engine pattern) must not recurse
        # forever and the nested event must reach sinks
        tel = Telemetry()
        seen = []

        def reactor(event):
            seen.append(event.kind)
            if event.kind == "capacity_violation":
                tel.events.emit(AlertFired(time=event.time, rule="r"))

        tel.events.subscribe(reactor)
        tel.events.emit(CapacityViolation(time=0, pm_id=0, load=1.0,
                                          capacity=0.5))
        assert seen == ["capacity_violation", "alert_fired"]
