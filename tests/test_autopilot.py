"""Tests for repro.autopilot — the closed-loop controller.

Covers the config surface, the telemetry buffer, the refit fingerprint,
the happy path (drift -> refit -> committed replan with the refitted law
installed as the new null), and the forced-rollback drill (adversarial
refit -> guard trip -> bit-identical restore + blacklist).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autopilot import (
    Autopilot,
    AutopilotConfig,
    TelemetryWindow,
    adversarial_refit,
    refit_fingerprint,
)
from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.experiments.autopilot_ablation import (
    build_autopilot_scenario,
    regime_shift_hook,
)
from repro.observability import Observatory
from repro.simulation import Scenario
from repro.telemetry import (
    ReplanCommitted,
    ReplanRolledBack,
    RingBufferSink,
    Telemetry,
)
from repro.workload.estimation import fit_onoff


def _drill_fleet():
    """Generous capacity: healthy unless a bad refit over-consolidates."""
    vms = [VMSpec(0.05, 0.15, 2.0, 8.0) for _ in range(40)]
    pms = [PMSpec(100.0) for _ in range(10)]
    return vms, pms


def _mild_fleet():
    vms = [VMSpec(0.01, 0.09, 2.0, 8.0) for _ in range(40)]
    pms = [PMSpec(100.0) for _ in range(10)]
    return vms, pms


class TestAutopilotConfig:
    def test_defaults_valid(self):
        AutopilotConfig()

    @pytest.mark.parametrize("kwargs", [
        {"telemetry_window": 1},
        {"min_refit_samples": 1},
        {"min_refit_samples": 200, "telemetry_window": 100},
        {"migration_budget": 0},
        {"alert_sustain": 0},
        {"drift_min_detections": 0},
        {"drift_cooldown": 0},
        {"alert_cooldown": 0},
        {"rollback_cooldown": 0},
        {"max_replans": 0},
        {"guard_window": 0},
        {"guard_factor": 0.5},
        {"guard_slack": -0.1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AutopilotConfig(**kwargs)


class TestTelemetryWindow:
    def test_partial_fill_returns_seen_samples(self):
        w = TelemetryWindow(2, window=4)
        w.push(np.array([1.0, 10.0]))
        w.push(np.array([2.0, 20.0]))
        assert w.count == 2
        np.testing.assert_allclose(w.traces(),
                                   [[1.0, 2.0], [10.0, 20.0]])

    def test_wraparound_is_chronological(self):
        w = TelemetryWindow(1, window=3)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            w.push(np.array([v]))
        assert w.count == 3
        np.testing.assert_allclose(w.traces(), [[3.0, 4.0, 5.0]])


class TestRefitFingerprint:
    def test_stable_under_sub_rounding_noise(self):
        base = [fit_onoff(np.array([0.0, 10.0, 0.0, 10.0, 0.0, 0.0]))]
        assert refit_fingerprint(base) == refit_fingerprint(list(base))

    def test_sensitive_to_parameters(self):
        trace = np.array([0.0, 10.0, 0.0, 10.0, 0.0, 0.0])
        a = [fit_onoff(trace)]
        b = [fit_onoff(trace * 2.0)]
        assert refit_fingerprint(a) != refit_fingerprint(b)

    def test_adversarial_refit_fingerprint_is_reproducible(self):
        traces = np.tile(np.array([0.0, 10.0, 0.0, 0.0, 10.0, 0.0]), (3, 1))
        assert (refit_fingerprint(adversarial_refit(traces))
                == refit_fingerprint(adversarial_refit(traces)))


class TestAutopilotWiring:
    def test_requires_reconsolidation(self):
        vms, pms = _mild_fleet()
        sc = Scenario(vms, pms, placer=QueuingFFD(rho=0.01, d=16),
                      observatory=Observatory(rho=0.01),
                      telemetry=Telemetry(RingBufferSink()))
        with pytest.raises(ValueError, match="reconsolidation"):
            Autopilot(sc)

    def test_requires_observatory(self):
        vms, pms = _mild_fleet()
        sc = Scenario(vms, pms, placer=QueuingFFD(rho=0.01, d=16),
                      telemetry=Telemetry(RingBufferSink()),
                      reconsolidation=True)
        with pytest.raises(ValueError, match="observatory"):
            Autopilot(sc)


class TestCommitPath:
    def test_drift_triggers_committed_replan(self):
        vms, pms = _mild_fleet()
        obs = Observatory(rho=0.01)
        sc = build_autopilot_scenario(vms, pms, observatory=obs)
        hook = regime_shift_hook(sc, shift_at=40, p_on=0.08)
        cfg = AutopilotConfig(min_refit_samples=40, guard_window=20)
        pilot = Autopilot(sc, config=cfg)
        stats = pilot.run(400, seed=7, on_tick=hook)

        assert stats.replans_started >= 1
        assert stats.replans_committed >= 1
        assert stats.replans_rolled_back == 0
        assert stats.rollback_parity is True
        assert stats.refits == stats.replans_started
        assert stats.replans_started <= cfg.max_replans
        # budget respected per replan
        assert (stats.planned_migrations
                <= cfg.migration_budget * stats.replans_started)
        # the commit reached the observatory's control-loop view
        committed = [e for e in obs.autopilot_events
                     if isinstance(e, ReplanCommitted)]
        assert len(committed) == stats.replans_committed
        assert obs.summary()["replans_committed"] == stats.replans_committed

    def test_commit_installs_refitted_null(self):
        vms, pms = _mild_fleet()
        obs = Observatory(rho=0.01)
        sc = build_autopilot_scenario(vms, pms, observatory=obs)
        hook = regime_shift_hook(sc, shift_at=40, p_on=0.08)
        pilot = Autopilot(sc, config=AutopilotConfig(min_refit_samples=40,
                                                     guard_window=20))
        stats = pilot.run(400, seed=7, on_tick=hook)
        assert stats.replans_committed >= 1
        # the assumed law moved off the construction-time specs toward the
        # shifted truth, so drift evidence stops accumulating
        dc = sc.datacenter
        assert not np.allclose(dc._assumed_p_on,
                               [v.p_on for v in vms])
        assert float(np.mean(dc._assumed_p_on)) > 0.02

    def test_max_replans_rate_limit(self):
        vms, pms = _mild_fleet()
        obs = Observatory(rho=0.01)
        sc = build_autopilot_scenario(vms, pms, observatory=obs)
        hook = regime_shift_hook(sc, shift_at=40, p_on=0.08)
        cfg = AutopilotConfig(min_refit_samples=40, guard_window=10,
                              max_replans=1, drift_cooldown=1,
                              alert_cooldown=1)
        pilot = Autopilot(sc, config=cfg)
        stats = pilot.run(400, seed=7, on_tick=hook)
        assert stats.replans_started == 1


class TestRollbackDrill:
    def _run_drill(self, checkpoint_dir=None, keep=3):
        vms, pms = _drill_fleet()
        obs = Observatory(rho=0.01)
        sc = build_autopilot_scenario(vms, pms, observatory=obs)
        hook = regime_shift_hook(sc, shift_at=30, p_on=0.12)
        cfg = AutopilotConfig(min_refit_samples=40, guard_window=20,
                              migration_budget=40, keep_checkpoints=keep)
        pilot = Autopilot(sc, config=cfg, refit_override=adversarial_refit,
                          checkpoint_dir=checkpoint_dir)
        return pilot.run(300, seed=7, on_tick=hook), obs, pilot

    def test_bad_refit_rolls_back_with_parity(self, tmp_path):
        stats, obs, pilot = self._run_drill(checkpoint_dir=tmp_path)
        assert stats.replans_rolled_back >= 1
        assert stats.rollback_parity is True
        assert stats.replans_committed == 0
        # the guilty fingerprint is blacklisted and later refits rejected
        assert stats.blacklist
        assert stats.refits_rejected >= 1
        rolled = [e for e in obs.autopilot_events
                  if isinstance(e, ReplanRolledBack)]
        assert rolled and all(e.parity for e in rolled)
        assert obs.summary()["replans_rolled_back"] >= 1

    def test_drill_persists_bounded_checkpoints(self, tmp_path):
        stats, _, pilot = self._run_drill(checkpoint_dir=tmp_path, keep=1)
        assert stats.checkpoints  # every replan wrote a rollback point
        kept = sorted(p.name for p in tmp_path.glob("ckpt-*.json"))
        assert len(kept) == 1
        assert (tmp_path / "index.json").exists()

    def test_rollback_without_checkpoint_dir_still_works(self):
        stats, _, _ = self._run_drill(checkpoint_dir=None)
        assert stats.replans_rolled_back >= 1
        assert stats.rollback_parity is True
        assert stats.checkpoints == []

    def test_rollback_resets_drift_evidence(self, tmp_path):
        _, obs, _ = self._run_drill(checkpoint_dir=tmp_path)
        # evidence against the superseded null was dropped: no PM stays
        # flagged with a live streak inherited from the aborted branch
        for state in obs.drift.pms.values():
            assert state.streak == 0 or state.flagged
