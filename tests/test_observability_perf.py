"""Phase attribution of the span tree and the dashboard's PERF snapshot."""

from __future__ import annotations

import pytest

from repro.observability.perf import PHASE_ORDER, PerfSnapshot, PhaseAttributor
from repro.telemetry.profiling import Profiler


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
    mig.count, mig.total_seconds = 3, 0.05
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

    def test_fractions_sum_to_one(self):
        report = PhaseAttributor().attribute(synthetic_tree())
        assert list(report.phase_fraction) == list(PHASE_ORDER)
        assert sum(report.phase_fraction.values()) == pytest.approx(1.0)

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

    def test_traced_run_phases_sum_to_tick_time(self):
        """A real run with a live sink, failures and one replan: the phases
        still add up to tick time, and the observer stays a minority."""
        from repro.core import QueuingFFD
        from repro.simulation.energy import EnergyModel
        from repro.simulation.scenario import Scenario
        from repro.telemetry import RingBufferSink, Telemetry
        from repro.workload.patterns import generate_pattern_instance

        vms, pms = generate_pattern_instance("large", 12, seed=7)
        tel = Telemetry(RingBufferSink(capacity=4096))
        Scenario(vms, pms, placer=QueuingFFD(rho=0.01, d=16), failures=True,
                 migration_failure_probability=0.05,
                 energy_model=EnergyModel(), start_stationary=True,
                 reconsolidation={"period": 3},
                 telemetry=tel).run(6, seed=7)
        report = PhaseAttributor().attribute(tel.profiler)
        assert report.tick_count == 6
        assert report.phase_seconds["reconsolidation"] > 0.0
        assert report.phase_seconds["telemetry"] > 0.0
        assert sum(report.phase_seconds.values()) == pytest.approx(
            report.tick_seconds, rel=0.05)
        assert report.phase_fraction["telemetry"] < 0.5

    def test_empty_profiler_yields_zero_report(self):
        report = PhaseAttributor().attribute(Profiler())
        assert report.tick_count == 0
        assert report.tick_seconds == 0.0
        assert all(v == 0.0 for v in report.phase_fraction.values())

    def test_snapshot_throughput(self):
        snap = PerfSnapshot.capture(synthetic_tree(), n_vms=50)
        # 2 ticks * 50 VMs / 1.0 s of tick time
        assert snap.vm_intervals_per_second == pytest.approx(100.0)
