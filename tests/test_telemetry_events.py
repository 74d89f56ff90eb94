"""Event model: typing, registry, serialization, bus semantics."""

from __future__ import annotations

import pytest

from repro.telemetry import (
    EVENT_TYPES,
    PRE_RUN,
    AdmissionRejected,
    AlertFired,
    AlertResolved,
    BenchJobFinished,
    BenchJobInterrupted,
    BenchJobQuarantined,
    BenchJobRetried,
    BenchJobStarted,
    BenchRunStarted,
    CapacityViolation,
    CheckpointWritten,
    DegradationApplied,
    DriftDetected,
    EventBus,
    IntervalSnapshot,
    MigrationCompleted,
    MigrationDecided,
    MigrationFailed,
    MigrationStarted,
    NullSink,
    PlacementDecided,
    PMCrashed,
    PMRepaired,
    PoolScaled,
    ReconsolidationDecided,
    ReconsolidationTriggered,
    RefitCompleted,
    RefitRejected,
    ReplanCommitted,
    ReplanDecided,
    ReplanRolledBack,
    ReplanStarted,
    RingBufferSink,
    RunResumed,
    ServiceRestored,
    ServiceSnapshot,
    ServingSnapshot,
    SolverDegraded,
    TargetBlacklisted,
    TelemetryEvent,
    VMPlaced,
    VMStranded,
    WALReplayed,
    event_from_dict,
)

SAMPLES = [
    VMPlaced(time=PRE_RUN, vm_id=3, pm_id=1, placer="QUEUE"),
    MigrationStarted(time=0, vm_id=1, source_pm=0, target_pm=2),
    MigrationCompleted(time=0, vm_id=1, source_pm=0, target_pm=2),
    MigrationFailed(time=1, vm_id=1, source_pm=0, target_pm=2,
                    consecutive_failures=2, backoff_intervals=4),
    TargetBlacklisted(time=2, pm_id=2, until_time=7),
    PMCrashed(time=3, pm_id=0, blast_radius=4, domain=1),
    PMRepaired(time=9, pm_id=0, downtime_intervals=6),
    VMStranded(time=3, vm_id=5, pm_id=0),
    DegradationApplied(time=3, vm_id=5, pm_id=1),
    ServingSnapshot(time=4, arrivals=310, completions=280, slow=12,
                    lost_queue=5, lost_tier=3, dlq=1, backlog=40,
                    tier_backlog=120, p50=2.0, p95=6.0, p99=9.0),
    ServiceRestored(time=8, vm_id=5, pm_id=1, reason="headroom"),
    CapacityViolation(time=4, pm_id=1, load=120.0, capacity=100.0),
    ReconsolidationTriggered(time=10, planned_moves=3, executed_moves=2),
    IntervalSnapshot(time=5, pm_ids=(0, 1), loads=(50.0, 60.0),
                     capacities=(100.0, 100.0), hosted=(4, 4),
                     on_vms=(1, 2), expected_on=(0.4, 0.4),
                     expected_var=(7.6, 7.6), migrations=1, overloaded=0),
    AlertFired(time=6, rule="cvr_burn", metric="cvr", severity="page",
               burn_fast=15.0, burn_slow=2.5, budget=0.01),
    AlertResolved(time=12, rule="cvr_burn", active_intervals=6),
    DriftDetected(time=30, pm_id=2, statistic=12.5, threshold=10.83,
                  observed_on_fraction=0.2, expected_on_fraction=0.1,
                  windows=2),
    BenchRunStarted(time=0, pattern="fig*", base_seed=2013,
                    jobs=("fig6_cvr", "fig9"), parallel=2,
                    chaos="kill-worker:p=0.2"),
    BenchJobStarted(time=0, job="fig9", seed=2013, worker_count=4, attempt=2),
    BenchJobFinished(time=1, job="fig9", seconds=3.5, ok=True, error="",
                     rows_sha256="ab" * 32, seed=2013),
    BenchJobRetried(time=1, job="fig9", attempt=2, error="worker died",
                    backoff_seconds=0.5),
    BenchJobQuarantined(time=2, job="fig9", attempts=3, error="poison"),
    BenchJobInterrupted(time=2, job="fig9", attempt=1),
    RunResumed(time=0, run_dir="out/bench", completed=3, remaining=2,
               skipped_journal_lines=1),
    CheckpointWritten(time=50, path="ck.json", sha256="cd" * 32,
                      size_bytes=4096),
    RefitCompleted(time=90, n_vms=48, converged=40, fallback=8,
                   fingerprint="ab12cd34ef56", cause="drift"),
    RefitRejected(time=95, fingerprint="ab12cd34ef56",
                  reason="blacklisted"),
    ReplanStarted(time=92, cause="slo_burn", fingerprint="ab12cd34ef56",
                  checkpoint="ckpt-000000-t92.json", baseline_cvr=0.01,
                  deadline=112, budget=24),
    ReplanCommitted(time=112, fingerprint="ab12cd34ef56",
                    baseline_cvr=0.01, post_cvr=0.005, migrations=12),
    ReplanRolledBack(time=92, fingerprint="ab12cd34ef56",
                     baseline_cvr=0.01, post_cvr=0.2, restored_time=92,
                     parity=True),
    PlacementDecided(time=PRE_RUN, decision_id=0, vm_id=3, placer="QUEUE",
                     chosen_pm=1, context="batch", p_on=0.2, p_off=0.4,
                     table_fingerprint="7a74bbf2cfec", cache_hit=True,
                     score_kind="reservation_headroom",
                     cand_pms=(0, 1, 2), cand_scores=(-1.5, 3.0, 3.0),
                     cand_verdicts=("cvr_threshold", "chosen", "feasible"),
                     dropped_candidates=4, total_pms=7),
    MigrationDecided(time=16, decision_id=5, vm_id=3, source_pm=1,
                     chosen_pm=2, policy="StandardPolicy", cause="overload",
                     cand_pms=(0, 1, 2),
                     cand_scores=(-56.7, 0.0, 12.4),
                     cand_verdicts=("capacity", "source_pm", "chosen"),
                     dropped_candidates=0, total_pms=3),
    ReconsolidationDecided(time=50, decision_id=9, cause="requested",
                           placer="QUEUE", planned_moves=5, executed_moves=3,
                           move_vms=(1, 4, 7), move_sources=(0, 2, 2),
                           move_targets=(3, 3, 0), dropped_moves=0),
    ReplanDecided(time=92, decision_id=10, cause="drift",
                  fingerprint="ab12cd34ef56", drift_detections=3,
                  drift_pms=(1, 4), alert_streak=0,
                  active_alerts=("cvr_burn",), baseline_cvr=0.01,
                  budget=24, deadline=112),
    AdmissionRejected(time=40, request_key="a-5-2", vm_class="standard",
                      reason="fleet_full", inbox_depth=3, active_pms=8,
                      free_slots=0, max_headroom=0.0),
    WALReplayed(time=0, path="wal.jsonl", checkpoint_seq=128, records=37,
                truncated_tail=1, fingerprint="946937cf72a028df"),
    PoolScaled(time=41, action="down_prepare", pm_id=6, active_pms=7,
               draining_pms=1, cause="hysteresis"),
    SolverDegraded(time=42, state="open", failures=3, staleness=5,
                   error="injected solver stall"),
    ServiceSnapshot(time=43, requests=200, admitted=150, shed=50,
                    departed=118, active_pms=16, draining_pms=0,
                    retired_pms=0, hosted_vms=32, used_pms=16,
                    wal_lag=62, staleness=0),
]


class TestEventModel:
    def test_every_registered_kind_round_trips(self):
        assert {e.kind for e in SAMPLES} == set(EVENT_TYPES)
        for event in SAMPLES:
            restored = event_from_dict(event.to_dict())
            assert restored == event
            assert type(restored) is type(event)

    def test_to_dict_carries_kind(self):
        e = VMPlaced(time=PRE_RUN, vm_id=3, pm_id=1, placer="FFD")
        d = e.to_dict()
        assert d["kind"] == "vm_placed"
        assert d["vm_id"] == 3 and d["pm_id"] == 1 and d["time"] == PRE_RUN

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"kind": "no_such_event", "time": 0})

    def test_events_are_frozen(self):
        e = PMCrashed(time=4, pm_id=2)
        with pytest.raises(AttributeError):
            e.pm_id = 9

    def test_registry_covers_paper_lifecycle(self):
        # The kinds the replay layer depends on must stay registered.
        for kind in ("vm_placed", "migration_started", "migration_completed",
                     "migration_failed", "pm_crashed", "pm_repaired",
                     "capacity_violation", "degradation_applied",
                     "vm_stranded", "service_restored", "target_blacklisted",
                     "reconsolidation_triggered"):
            assert kind in EVENT_TYPES
            assert issubclass(EVENT_TYPES[kind], TelemetryEvent)


class TestEventBus:
    def test_disabled_without_sinks(self):
        bus = EventBus([])
        assert not bus.enabled
        bus.emit(PMCrashed(time=0, pm_id=0))
        assert bus.emitted == 0

    def test_null_sink_counts_as_absence(self):
        bus = EventBus([NullSink()])
        assert not bus.enabled
        bus.emit(PMCrashed(time=0, pm_id=0))
        assert bus.emitted == 0

    def test_fan_out_to_every_sink(self):
        a, b = RingBufferSink(), RingBufferSink()
        bus = EventBus([a, b])
        assert bus.enabled
        bus.emit(MigrationCompleted(time=1, vm_id=0, source_pm=0, target_pm=1))
        assert len(a) == len(b) == 1
        assert bus.emitted == 1

    def test_ring_buffer_capacity(self):
        sink = RingBufferSink(capacity=3)
        for t in range(10):
            sink.emit(PMCrashed(time=t, pm_id=0))
        assert len(sink) == 3
        assert [e.time for e in sink.events] == [7, 8, 9]

    def test_migration_failed_carries_backoff_facts(self):
        e = MigrationFailed(time=2, vm_id=1, source_pm=0, target_pm=3,
                            consecutive_failures=2, backoff_intervals=4)
        d = e.to_dict()
        assert d["consecutive_failures"] == 2
        assert d["backoff_intervals"] == 4


class TestRingOverflowAccounting:
    def test_eviction_counted_and_reported(self):
        drops = []
        sink = RingBufferSink(capacity=3, on_drop=drops.append)
        for t in range(10):
            sink.emit(PMCrashed(time=t, pm_id=0))
        assert sink.dropped == 7
        assert sum(drops) == 7

    def test_unbounded_sink_never_drops(self):
        sink = RingBufferSink()
        for t in range(100):
            sink.emit(PMCrashed(time=t, pm_id=0))
        assert sink.dropped == 0

    def test_telemetry_wires_spans_dropped_total(self):
        from repro.telemetry import Telemetry

        tel = Telemetry(RingBufferSink(capacity=2))
        for t in range(5):
            tel.emit(PMCrashed(time=t, pm_id=0))
        counter = tel.metrics.counter("spans_dropped_total")
        assert counter.value == 3
        assert "spans_dropped_total" in tel.digest()

    def test_explicit_on_drop_not_overridden(self):
        from repro.telemetry import Telemetry

        mine = []
        tel = Telemetry(RingBufferSink(capacity=1, on_drop=mine.append))
        for t in range(3):
            tel.emit(PMCrashed(time=t, pm_id=0))
        assert sum(mine) == 2
        assert tel.metrics.counter("spans_dropped_total").value == 0
