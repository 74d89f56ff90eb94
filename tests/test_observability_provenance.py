"""Decision provenance: index queries, explain rendering, determinism."""

import json

import pytest

from repro.observability import Observatory
from repro.observability.provenance import (
    REASON_TEXT,
    ProvenanceIndex,
    render_decision,
    render_explanation,
)
from repro.placement.base import PLACEMENT_REASONS
from repro.telemetry import (
    MigrationCompleted,
    MigrationDecided,
    PlacementDecided,
    ReconsolidationDecided,
    ReplanCommitted,
    ReplanDecided,
    ReplanRolledBack,
    ReplanStarted,
)
from tests.helpers import replay_summary


def placement(vm_id=3, chosen=1, decision_id=0):
    return PlacementDecided(
        time=-1, decision_id=decision_id, vm_id=vm_id, placer="QUEUE",
        chosen_pm=chosen, context="batch", p_on=0.2, p_off=0.4,
        table_fingerprint="7a74bbf2cfec", cache_hit=True,
        score_kind="reservation_headroom",
        cand_pms=(0, 1, 2), cand_scores=(-1.5, 3.0, 3.0),
        cand_verdicts=("cvr_threshold", "chosen", "feasible"),
        dropped_candidates=4, total_pms=7)


def migration(vm_id=5, decision_id=1):
    return MigrationDecided(
        time=16, decision_id=decision_id, vm_id=vm_id, source_pm=1,
        chosen_pm=2, policy="StandardPolicy", cause="overload",
        cand_pms=(0, 1, 2), cand_scores=(-56.7, 0.0, 12.4),
        cand_verdicts=("capacity", "source_pm", "chosen"),
        dropped_candidates=0, total_pms=3)


def reconsolidation(decision_id=2):
    return ReconsolidationDecided(
        time=50, decision_id=decision_id, cause="requested", placer="QUEUE",
        planned_moves=5, executed_moves=3, move_vms=(1, 4, 7),
        move_sources=(0, 2, 2), move_targets=(3, 3, 0), dropped_moves=2)


def replan(decision_id=3):
    return ReplanDecided(
        time=92, decision_id=decision_id, cause="slo_burn",
        fingerprint="ab12cd34ef56", drift_detections=3, drift_pms=(1, 4),
        alert_streak=5, active_alerts=("cvr_burn",), baseline_cvr=0.108,
        budget=24, deadline=117)


STREAM = [
    placement(),
    migration(),
    MigrationCompleted(time=16, vm_id=5, source_pm=1, target_pm=2),
    reconsolidation(),
    replan(),
    ReplanStarted(time=92, cause="slo_burn", fingerprint="ab12cd34ef56",
                  checkpoint="", baseline_cvr=0.108, deadline=117,
                  budget=24),
    ReplanCommitted(time=117, fingerprint="ab12cd34ef56",
                    baseline_cvr=0.108, post_cvr=0.08, migrations=24),
]


class TestProvenanceIndex:
    def test_decision_extraction_preserves_order(self):
        idx = ProvenanceIndex(STREAM)
        assert [e.kind for e in idx.decisions] == [
            "placement_decided", "migration_decided",
            "reconsolidation_decided", "replan_decided"]
        assert len(idx.events) == len(STREAM)

    def test_for_vm_spans_all_decision_kinds(self):
        idx = ProvenanceIndex(STREAM)
        assert [s for s, _ in idx.for_vm(3)] == [0]   # placed
        assert [s for s, _ in idx.for_vm(5)] == [1]   # migrated
        assert [s for s, _ in idx.for_vm(4)] == [2]   # reconsolidation move
        assert idx.for_vm(99) == []

    def test_for_pm_matches_every_role(self):
        idx = ProvenanceIndex(STREAM)
        seqs = [s for s, _ in idx.for_pm(1)]
        # candidate in placement, source in migration, drift PM in replan
        assert seqs == [0, 1, 3]
        assert [s for s, _ in idx.for_pm(3)] == [2]  # move target only

    def test_at_tick_and_by_id(self):
        idx = ProvenanceIndex(STREAM)
        assert [s for s, _ in idx.at_tick(16)] == [1]
        assert [s for s, _ in idx.by_id(3)] == [3]
        assert idx.by_seq(0)[0][1].kind == "placement_decided"
        assert idx.by_seq(99) == []

    def test_duplicate_ids_all_returned(self):
        # A rollback rewinds the scheduler's decision sequence, so ids can
        # legitimately repeat; queries must surface every occurrence.
        idx = ProvenanceIndex([migration(decision_id=7),
                               migration(vm_id=9, decision_id=7)])
        assert len(idx.by_id(7)) == 2

    def test_from_jsonl_tolerates_corrupt_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = [json.dumps(e.to_dict()) for e in STREAM]
        path.write_text("\n".join(lines) + '\n{"kind": "placement_dec')
        idx = ProvenanceIndex.from_jsonl(path)
        assert len(idx.decisions) == 4
        assert idx.skipped_lines == 1
        assert "malformed" in render_explanation(idx, vm=3)


class TestOutcomeLinking:
    def test_migration_outcome_completed(self):
        idx = ProvenanceIndex(STREAM)
        assert idx.migration_outcome(idx.decisions[1]) == "completed"

    def test_migration_without_target(self):
        e = MigrationDecided(time=4, decision_id=0, vm_id=1, source_pm=0,
                             chosen_pm=-1, policy="StandardPolicy",
                             cand_pms=(0,), cand_scores=(0.0,),
                             cand_verdicts=("source_pm",), total_pms=1)
        idx = ProvenanceIndex([e])
        assert "no feasible target" in idx.migration_outcome(e)

    def test_replan_linked_to_commit_by_fingerprint(self):
        idx = ProvenanceIndex(STREAM)
        lines = idx.replan_outcome(idx.decisions[3])
        assert any("replan started" in s for s in lines)
        assert any("COMMITTED" in s and "0.0800" in s for s in lines)

    def test_replan_rollback_and_pending(self):
        rolled = [replan(), ReplanRolledBack(
            time=117, fingerprint="ab12cd34ef56", baseline_cvr=0.108,
            post_cvr=0.2, restored_time=92, parity=True)]
        idx = ProvenanceIndex(rolled)
        assert any("ROLLED BACK" in s
                   for s in idx.replan_outcome(idx.decisions[0]))
        pending = ProvenanceIndex([replan()])
        assert any("pending" in s
                   for s in pending.replan_outcome(pending.decisions[0]))


class TestRendering:
    def test_every_verdict_has_reason_text(self):
        assert set(REASON_TEXT) == PLACEMENT_REASONS

    def test_placement_block_has_counterfactuals(self):
        idx = ProvenanceIndex(STREAM)
        text = render_decision(0, idx.decisions[0], idx)
        assert "VM 3 -> PM 1" in text
        assert "predicted CVR above threshold" in text   # why not PM 0
        assert "feasible, but a preferred PM won" in text  # why not PM 2
        assert "table=7a74bbf2cfec" in text
        assert "4 more candidate PM(s) omitted (7 total)" in text

    def test_replan_block_carries_evidence(self):
        idx = ProvenanceIndex(STREAM)
        text = render_decision(3, idx.decisions[3], idx)
        assert "3 new drift detection(s) [PMs: 1, 4]" in text
        assert "alert streak 5 [active: cvr_burn]" in text
        assert "COMMITTED" in text

    def test_overview_lists_and_caps(self):
        many = [placement(vm_id=i, decision_id=i) for i in range(45)]
        idx = ProvenanceIndex(many)
        text = render_explanation(idx)
        assert "45 decision(s) in trace" in text
        assert "... 5 more" in text

    def test_render_is_deterministic(self):
        a = render_explanation(ProvenanceIndex(STREAM), vm=5)
        b = render_explanation(ProvenanceIndex(list(STREAM)), vm=5)
        assert a == b

    def test_no_matches_says_so(self):
        text = render_explanation(ProvenanceIndex(STREAM), vm=99)
        assert "0 match(es)" in text


class TestObservatorySummary:
    def test_dropped_total_sums_candidates_and_moves(self):
        obs = Observatory(rho=0.01)
        for event in STREAM:
            obs.observe(event)
        summary = obs.summary()
        assert summary["decisions_recorded"] == 4
        assert summary["decisions_dropped_total"] == 4 + 2


class TestReplaySummaryDecisions:
    def test_decision_counters(self):
        counts = replay_summary(STREAM)
        assert counts["placement_decisions"] == 1
        assert counts["migration_decisions"] == 1
        assert counts["reconsolidation_decisions"] == 1
        assert counts["replan_decisions"] == 1
        assert counts["decisions_dropped_total"] == 6

    def test_decision_counters_zero_on_plain_stream(self):
        counts = replay_summary(
            [MigrationCompleted(time=0, vm_id=0, source_pm=0, target_pm=1)])
        assert counts["placement_decisions"] == 0
        assert counts["decisions_dropped_total"] == 0


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        from repro.core.queuing_ffd import QueuingFFD
        from repro.simulation.scenario import Scenario
        from repro.telemetry import JSONLSink, Telemetry
        from repro.workload.patterns import generate_pattern_instance

        path = tmp_path_factory.mktemp("prov") / "events.jsonl"
        vms, pms = generate_pattern_instance("equal", 24, seed=7)
        tel = Telemetry(JSONLSink(path))
        Scenario(vms, pms, placer=QueuingFFD(), telemetry=tel).run(
            40, seed=7)
        tel.close()
        return path

    def test_live_trace_explains_batch_placements(self, trace):
        idx = ProvenanceIndex.from_jsonl(trace)
        placements = [e for e in idx.decisions
                      if e.kind == "placement_decided"]
        assert len(placements) == 24
        for e in placements:
            assert e.table_fingerprint
            assert set(e.cand_verdicts) <= PLACEMENT_REASONS
        # every placed VM is explainable
        text = render_explanation(idx, vm=placements[0].vm_id)
        assert "decision #" in text

    def test_explain_output_byte_identical_across_reads(self, trace):
        for query in ({"vm": 0}, {"tick": -1}, {"decision": 0}, {}):
            a = render_explanation(ProvenanceIndex.from_jsonl(trace),
                                   **query)
            b = render_explanation(ProvenanceIndex.from_jsonl(trace),
                                   **query)
            assert a == b
