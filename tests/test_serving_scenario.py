"""The serving plane wired through scenarios: parity, checkpoints, SLOs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import QueuingFFD
from repro.observability import BurnWindow, Observatory, SLORule
from repro.placement.ffd import ffd_by_base
from repro.serving import ServingLayer
from repro.simulation.checkpoint import (
    canonical_state_bytes,
    restore_checkpoint,
    save_checkpoint,
)
from repro.simulation.scenario import Scenario
from repro.simulation.triggers import SlidingWindowCVRTrigger
from repro.telemetry import RingBufferSink, Telemetry
from repro.workload.patterns import generate_pattern_instance
from tests.helpers import tail_probability


def serving_rules(tail_budget=0.01, loss_budget=0.01):
    """Burn rules on the recorder's request-level metrics.

    ``p99_latency`` alerts on the empirical tail ``P(T_S > t)`` exceeding
    ``tail_budget`` (with the 1% default, "p99 latency stays at or below
    the SLA threshold t"); ``request_loss`` guards the loss budget.  A
    ``repro dashboard --rules`` file names the same metrics to alert on them.
    """
    return [
        SLORule(name="p99_latency", metric="latency_sla", budget=tail_budget,
                fast=BurnWindow(5, 10.0), slow=BurnWindow(60, 2.0),
                severity="page"),
        SLORule(name="request_loss", metric="request_loss", budget=loss_budget,
                fast=BurnWindow(5, 10.0), slow=BurnWindow(60, 2.0),
                severity="page"),
    ]


def small_instance(n_vms=24, seed=7):
    return generate_pattern_instance("equal", n_vms, seed=seed)


def make_scenario(vms, pms, *, serving=True, **kwargs):
    return Scenario(vms, pms, placer=QueuingFFD(rho=0.01, d=16),
                    serving=serving, **kwargs)


class TestConfig:
    def test_serving_true_uses_defaults(self):
        vms, pms = small_instance()
        sc = make_scenario(vms, pms, serving=True)
        assert sc.serving == Scenario.SERVING_DEFAULTS

    def test_serving_dict_overrides_merge(self):
        vms, pms = small_instance()
        sc = make_scenario(vms, pms, serving={"tier": True, "sla_t": 4})
        assert sc.serving["tier"] is True
        assert sc.serving["sla_t"] == 4
        assert sc.serving["service_rate"] == \
            Scenario.SERVING_DEFAULTS["service_rate"]

    def test_unknown_serving_option_rejected(self):
        vms, pms = small_instance()
        with pytest.raises(ValueError, match="unknown serving option"):
            make_scenario(vms, pms, serving={"typo_knob": 1})

    def test_serving_off_by_default(self):
        vms, pms = small_instance()
        sc = Scenario(vms, pms, placer=QueuingFFD(rho=0.01, d=16))
        assert sc.serving is None
        report = sc.run(10, seed=3)
        assert report.serving is None


class TestDeterminism:
    def test_same_seed_same_serving_report(self):
        vms, pms = small_instance()
        a = make_scenario(vms, pms).run(25, seed=11).serving
        b = make_scenario(vms, pms).run(25, seed=11).serving
        assert a == b

    def test_serving_does_not_perturb_consolidation_stream(self):
        """Enabling serving must not change what the datacenter does."""
        vms, pms = small_instance()
        base = Scenario(vms, pms, placer=QueuingFFD(rho=0.01, d=16)).run(
            25, seed=11)
        with_serving = make_scenario(vms, pms).run(25, seed=11)
        assert with_serving.final_pms_used == base.final_pms_used
        assert with_serving.total_migrations == base.total_migrations
        assert with_serving.mean_cvr == base.mean_cvr


#: serving configs of the parity suite, each run in direct and tier mode
PARITY_CONFIGS = {
    "defaults": {},
    "slow_service": {"service_rate": 40},
    "tight_sla": {"sla_t": 1, "max_latency": 4, "max_depth": 50},
    "never_drains": {"service_rate": 0.9},
}


class TestServingParity:
    """The vectorized queue store against the scalar ``VMQueue`` reference.

    FFD-by-base under the tolerant sliding-window trigger leaves capacity
    violations for the serving plane, so degraded and thrashing capacities,
    multi-batch pops, store growth and (in tier mode) tail merges all occur.
    """

    @staticmethod
    def scenario(config, tier, mode="vectorized"):
        vms, pms = generate_pattern_instance("large", 40, seed=7)
        return Scenario(vms, pms, placer=ffd_by_base(max_vms_per_pm=16),
                        trigger=SlidingWindowCVRTrigger(len(pms), rho=0.05),
                        serving={**PARITY_CONFIGS[config], "tier": tier},
                        tick_mode=mode)

    @pytest.mark.parametrize("tier", [False, True], ids=["direct", "tier"])
    @pytest.mark.parametrize("config", list(PARITY_CONFIGS))
    def test_scalar_and_vectorized_agree_bit_for_bit(self, config, tier):
        states, reports = {}, {}
        for mode in ("vectorized", "scalar"):
            run = self.scenario(config, tier, mode).start(seed=11)
            run.advance(60)
            states[mode] = canonical_state_bytes(
                run.capture_state()["serving"])
            run.close()
            # repr: a run without completions reports NaN percentiles
            reports[mode] = repr(run.finish().serving)
        assert states["vectorized"] == states["scalar"]
        assert reports["vectorized"] == reports["scalar"]

    @pytest.mark.parametrize("tier", [False, True], ids=["direct", "tier"])
    @pytest.mark.parametrize("config", list(PARITY_CONFIGS))
    def test_vectorized_checkpoint_round_trip(self, config, tier, tmp_path):
        run = self.scenario(config, tier).start(seed=11)
        run.advance(30)
        path = tmp_path / "serving.ckpt.json"
        save_checkpoint(run, path)
        run.advance(30)
        want = canonical_state_bytes(run.capture_state())
        run.close()

        resumed = restore_checkpoint(path)
        resumed.advance(30)
        got = canonical_state_bytes(resumed.capture_state())
        resumed.close()
        assert got == want

    @pytest.mark.parametrize("source, target", [
        ("scalar", "vectorized"), ("vectorized", "scalar")])
    def test_state_restores_across_modes(self, source, target):
        """Both modes snapshot queues as per-VM batch lists, so state from
        either (and from checkpoints older than the store) resumes in the
        other bit-identically."""
        ahead = self.scenario("slow_service", False, source).start(seed=11)
        ahead.advance(30)
        resumed = self.scenario("slow_service", False, target).start(seed=11)
        resumed.restore_state(ahead.capture_state())
        ahead.advance(30)
        resumed.advance(30)
        assert canonical_state_bytes(resumed.capture_state()) == \
            canonical_state_bytes(ahead.capture_state())
        ahead.close()
        resumed.close()

    def test_store_stays_bounded_when_queues_never_drain(self):
        """floor(0.9) = 0: nothing is ever served, yet the store stops
        growing once every queue is full."""
        n = 8
        layer = ServingLayer(n, seed=3, service_rate=0.9)
        rng = np.random.default_rng(5)
        violated = np.zeros(n, dtype=bool)
        for t in range(2000):
            layer.step(t, rng.random(n) < 0.5, violated)
            if t == 199:
                width = layer.store.width
        assert layer.completions_total == 0
        assert layer.backlog == n * layer.store.max_depth
        assert layer.store.width <= width


class TestSlaFraction:
    def test_exact_when_sla_t_reaches_max_latency(self):
        """Sojourns above max_latency are clamped into its bucket, so the
        histogram tail cannot see past it; the report counts them."""
        vms, pms = small_instance()
        report = make_scenario(
            vms, pms, serving={"sla_t": 4, "max_latency": 4},
        ).run(40, seed=7).serving
        assert report.slow == 2180
        assert report.completions == 57864
        assert report.sla_violation_fraction == 2180 / 57864

    def test_equals_histogram_tail_below_max_latency(self):
        vms, pms = small_instance()
        run = make_scenario(
            vms, pms, serving={"sla_t": 4, "max_latency": 5}).start(seed=7)
        run.advance(40)
        run.close()
        tail = tail_probability(run.serving.histogram, 4)
        assert run.finish().serving.sla_violation_fraction == tail == \
            2180 / 57864


class TestCheckpoint:
    def test_round_trip_resumes_bit_identically(self, tmp_path):
        vms, pms = small_instance()
        sc = make_scenario(vms, pms, serving={"tier": True})
        run = sc.start(seed=11)
        run.advance(12)
        path = tmp_path / "serving.ckpt.json"
        save_checkpoint(run, path)
        run.advance(12)
        want = canonical_state_bytes(run.capture_state())
        run.close()

        resumed = restore_checkpoint(path)
        resumed.advance(12)
        got = canonical_state_bytes(resumed.capture_state())
        resumed.close()
        assert got == want

    def test_serving_mismatch_rejected(self, tmp_path):
        vms, pms = small_instance()
        run = make_scenario(vms, pms).start(seed=11)
        run.advance(5)
        state = run.capture_state()
        run.close()
        plain = Scenario(vms, pms, placer=QueuingFFD(rho=0.01, d=16))
        bare = plain.start(seed=11)
        with pytest.raises(ValueError, match="serving"):
            bare.restore_state(state)
        bare.close()

    def test_pre_serving_checkpoint_state_still_restores(self):
        """A state dict without a 'serving' key (older format) restores."""
        vms, pms = small_instance()
        sc = Scenario(vms, pms, placer=QueuingFFD(rho=0.01, d=16))
        run = sc.start(seed=11)
        run.advance(5)
        state = run.capture_state()
        state.pop("serving")
        run2 = sc.start(seed=11)
        run2.restore_state(state)  # must not raise
        assert run2.time == 5
        run.close()
        run2.close()


class TestTierValue:
    def test_tier_lowers_p99_and_loss_on_bursty_small_config(self):
        """The load-leveling tier prevents thrash collapse: lower tail
        latency AND lower loss than direct admission on the same seed."""
        vms, pms = small_instance(n_vms=24, seed=7)
        without = make_scenario(vms, pms, serving={"tier": False}).run(
            40, seed=7).serving
        with_tier = make_scenario(vms, pms, serving={"tier": True}).run(
            40, seed=7).serving
        assert with_tier.p99 < without.p99
        assert with_tier.loss_rate < without.loss_rate
        assert with_tier.sla_violation_fraction < \
            without.sla_violation_fraction


class TestObservability:
    def run_observed(self, *, rules, n_intervals=40, serving=True):
        vms, pms = small_instance()
        tel = Telemetry(RingBufferSink())
        obs = Observatory(window=120, rules=rules)
        sc = make_scenario(vms, pms, serving=serving,
                           telemetry=tel, observatory=obs)
        report = sc.run(n_intervals, seed=7)
        return report, obs

    def test_recorder_folds_serving_snapshots(self):
        report, obs = self.run_observed(rules=[])
        rec = obs.recorder
        assert rec.serving_seen
        assert rec.req_arrivals.sum > 0
        assert rec.req_completions.sum > 0
        # recorder totals match the run report
        assert int(rec.req_arrivals.sum) == report.serving.arrivals
        assert int(rec.req_completions.sum) == report.serving.completions
        assert rec.charts["latency_p99"].last == report.serving.p99
        summary = rec.fleet_summary()
        assert "latency_p50" in summary
        assert "loss_rate_window" in summary
        assert summary["latency_p99"] == report.serving.p99

    def test_p99_latency_rule_fires_under_overload(self):
        # tight SLA + tiny tail budget: the rule must page
        vms, pms = small_instance()
        tel = Telemetry(RingBufferSink())
        rules = serving_rules(tail_budget=0.0001)
        obs = Observatory(window=120, rules=rules)
        sc = make_scenario(vms, pms, serving={"sla_t": 1},
                           telemetry=tel, observatory=obs)
        sc.run(40, seed=7)
        fired = [s for s in obs.slo.timeline if s.rule == "p99_latency"]
        assert fired, "p99_latency rule never fired under forced overload"

    def test_serving_rules_stay_quiet_without_serving(self):
        _, obs = self.run_observed(rules=serving_rules(),
                                   serving=False)
        assert not obs.recorder.serving_seen
        assert obs.slo.fired_total == 0

    def test_summary_line_mentions_serving(self):
        vms, pms = small_instance()
        report = make_scenario(vms, pms).run(10, seed=3)
        assert "serving:" in report.summary()
