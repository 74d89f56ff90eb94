"""Offline fleet workloads: trace fit -> MapCal -> QueuingFFD -> operation.

One repeat rebuilds the whole pipeline from the generated demand traces
under a cold MapCal cache (that is ``setup_s``), simulates a fixed number
of ticks one at a time (``tick_*``), then snapshots the run with
``save_checkpoint`` and times ``restore_checkpoint`` (``recover_s``).
A decision (``decision_*``) is one migration target choice, the
scheduler's ``policy.pick_target`` call for a VM on an overloaded PM.
Every time is taken with :class:`clock.SpeedClock`.  Repeats at one seed
must reproduce the same simulated statistics; the checks below compare
them.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from clock import SpeedClock
from spans import NullTracer, Tracer

FLEET_WORKLOADS = {
    "fleet_replan": {
        "loop": "batch job, one process",
        "pattern": "large",
        "n_vms": 3200,
        "trace_samples": 1000,
        "ticks_per_repeat": 700,
        "rho": 0.01,
        "d": 16,
        "failures": True,
        "migration_failure_probability": 0.05,
        "energy_model": True,
        "reconsolidation": {"period": 25},
        "serving": False,
        "start_stationary": True,
        "setups_per_repeat": 3,
        "recovers_per_repeat": 10,
    },
    "fleet_serving": {
        "loop": "batch job, one process",
        "pattern": "large",
        "n_vms": 1600,
        "trace_samples": 1000,
        "ticks_per_repeat": 1200,
        "rho": 0.01,
        "d": 16,
        "failures": False,
        "migration_failure_probability": 0.05,
        "energy_model": True,
        "reconsolidation": None,
        "serving": True,
        "start_stationary": True,
        "setups_per_repeat": 3,
        "recovers_per_repeat": 10,
    },
}


class FleetWorkload:
    """A seeded offline pipeline, run as repeats of identical work."""

    def __init__(self, name: str, params: dict, out_dir: Path):
        self.name = name
        self.params = params
        self.out_dir = out_dir

    # ------------------------------------------------------------------ #
    def make_inputs(self, seed: int) -> dict:
        """Demand traces and PMs: the only inputs the program sees."""
        from repro.workload.onoff_generator import (
            demand_trace,
            ensemble_states,
        )
        from repro.workload.patterns import generate_pattern_instance

        p = self.params
        s_instance, s_trace, s_sim = np.random.default_rng(seed).integers(
            0, 2**31 - 1, size=3)
        vms, pms = generate_pattern_instance(p["pattern"], p["n_vms"],
                                             seed=int(s_instance))
        states = ensemble_states(vms, p["trace_samples"] - 1,
                                 start_stationary=True, seed=int(s_trace))
        return {"traces": demand_trace(vms, states), "pms": pms,
                "sim_seed": int(s_sim)}

    # ------------------------------------------------------------------ #
    def _install(self, tracer: Tracer, run, scenario) -> None:
        """Span wrappers on every layer entry point of a started run."""
        dc, sched = run.datacenter, run.scheduler
        tracer.wrap(dc, "step", "simulation.demand")
        tracer.wrap(dc, "pm_loads", "simulation.pm_loads")
        if run.injector is not None:
            tracer.wrap(run.injector, "step", "simulation.failures")
        tracer.wrap(sched, "resolve_overloads", "simulation.scheduler")
        tracer.wrap(sched.policy, "pick_target", "simulation.target_select")
        tracer.wrap(sched.executor, "attempt", "simulation.migration")
        if hasattr(sched, "replan_now"):
            tracer.wrap(sched, "replan_now", "simulation.replan")
            tracer.wrap(sched.placer, "place", "core.place")
        tracer.wrap(run.monitor, "record_interval", "simulation.monitor")
        if scenario.energy_model is not None:
            tracer.wrap(scenario.energy_model, "fleet_power",
                        "simulation.energy")
        if run.serving is not None:
            tracer.wrap(run.serving, "step", "serving.step")

    def _setup(self, inputs: dict, tracer: Tracer | NullTracer):
        """Fit the traces, build the scenario and place the fleet."""
        from repro.core.queuing_ffd import QueuingFFD
        from repro.simulation.energy import EnergyModel
        from repro.simulation.scenario import Scenario
        from repro.workload.estimation import fit_fleet

        p = self.params
        with tracer.span("setup"):
            with tracer.span("workload.fit"):
                fits = fit_fleet(inputs["traces"])
            vms = [f.to_vmspec() for f in fits]
            placer = QueuingFFD(rho=p["rho"], d=p["d"])
            tracer.wrap(placer, "place", "core.place")
            scenario = Scenario(
                vms, inputs["pms"], placer=placer,
                failures=p["failures"],
                migration_failure_probability=p[
                    "migration_failure_probability"],
                energy_model=EnergyModel() if p["energy_model"] else None,
                start_stationary=p["start_stationary"],
                reconsolidation=p["reconsolidation"],
                serving=p["serving"],
            )
            return scenario, scenario.start(seed=inputs["sim_seed"])

    def repeat(self, inputs: dict, tracer: Tracer | NullTracer,
               clock: SpeedClock) -> dict:
        """Set up, simulate ``ticks_per_repeat`` ticks, checkpoint, restore."""
        import repro.core.queuing_ffd as queuing_ffd_module
        from repro.perf.cache import cache_stats, fresh_cache
        from repro.simulation.checkpoint import (
            canonical_state_bytes,
            restore_checkpoint,
            save_checkpoint,
        )

        p = self.params
        n_ticks = p["ticks_per_repeat"]
        tmp = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.out_dir))
        try:
            # ---- set-up, several times: fit, cold MapCal, placement ----- #
            setup_laps = clock.laps()
            for _ in range(p["setups_per_repeat"] - 1):
                with fresh_cache():
                    clock.probe()
                    t0 = clock.now()
                    self._setup(inputs, NullTracer())
                    setup_laps.stop(t0)
            tracer.wrap(queuing_ffd_module, "mapcal_table", "core.mapcal")
            with fresh_cache():
                clock.probe()
                t0 = clock.now()
                scenario, run = self._setup(inputs, tracer)
                setup_laps.stop(t0)
                self._install(tracer, run, scenario)

                # ---- the control decision: one migration target -------- #
                decision_laps = clock.laps()
                policy = run.scheduler.policy
                pick_target = policy.pick_target

                def timed_pick(*args, **kwargs):
                    d0 = clock.now()
                    try:
                        return pick_target(*args, **kwargs)
                    finally:
                        decision_laps.stop(d0)

                policy.pick_target = timed_pick

                # ---- simulated operation -------------------------------- #
                tick_laps = clock.laps()
                gc.collect()  # the loop starts from the same heap each time
                loop0 = perf_counter()
                for _ in range(n_ticks):
                    clock.probe()
                    t0 = clock.now()
                    with tracer.span("tick"):
                        run.advance(1)
                    tick_laps.stop(t0)
                loop_s = perf_counter() - loop0
                clock.probe()
                run.close()
                counts = self._counts(run, tracer, cache_stats())
                tracer.restore()
                report = run.finish()

                # ---- recover: restore the run from its checkpoint ------- #
                state = canonical_state_bytes(run.capture_state())
                ckpt = save_checkpoint(run, tmp / "run.ckpt.json")
                recover_laps, restored_ok = clock.laps(), True
                gc.collect()
                for _ in range(p["recovers_per_repeat"]):
                    clock.probe()
                    t0 = clock.now()
                    with tracer.span("recover"):
                        restored = restore_checkpoint(ckpt, scenario=scenario)
                    recover_laps.stop(t0)
                    restored_ok &= canonical_state_bytes(
                        restored.capture_state()) == state
                    restored.close()
                clock.probe()
            layers = tracer.self_times() if tracer.spans else {}
            trace_total = tracer.root_total() if tracer.spans else 0.0
        finally:
            tracer.restore()
            shutil.rmtree(tmp, ignore_errors=True)

        tick_s = tick_laps.seconds()
        return {
            "setup_s": setup_laps.seconds(),
            "tick_ms": [t * 1e3 for t in tick_s],
            "decision_ms": [t * 1e3 for t in decision_laps.seconds()],
            "loop_s": loop_s,
            "tick_s": sum(tick_s),
            "vm_intervals": p["n_vms"] * n_ticks,
            "recover_s": recover_laps.seconds(),
            "speed": clock.speed(),
            "digest": self._digest(report),
            "checks": {
                "mean_cvr_within_rho": report.mean_cvr <= p["rho"],
                "checkpoint_restore_identical": restored_ok,
            },
            "requests": 0,
            "failed_requests": 0,
            "counts": counts,
            "layers": layers,
            "trace_total": trace_total,
        }

    # ------------------------------------------------------------------ #
    @staticmethod
    def _counts(run, tracer, stats: dict) -> dict:
        """Per-layer counts; they repeat exactly at one seed."""
        sched = run.scheduler
        executor = sched.executor
        out = {
            "core.mapcal_solves": int(stats["misses"]),
            "core.mapcal_hits": int(stats["hits"]),
            "simulation.migrations_attempted": int(executor.attempts),
            "simulation.migrations_failed": int(executor.failures),
            "simulation.replan_moves": int(
                getattr(sched, "planned_migrations", 0)),
        }
        if run.serving is not None:
            out["serving.requests_offered"] = int(run.serving.arrivals_total)
            out["serving.requests_served"] = int(run.serving.completions_total)
        if tracer.spans:
            out["core.place_calls"] = tracer.calls("core.place")
            out["simulation.replans"] = tracer.calls("simulation.replan")
            out["simulation.target_selections"] = tracer.calls(
                "simulation.target_select")
            out["simulation.pm_loads_calls"] = tracer.calls(
                "simulation.pm_loads")
        return out

    @staticmethod
    def _digest(report) -> str:
        """Fingerprint of the simulated statistics (not of any timing)."""
        record = report.record
        h = hashlib.sha256()
        for arr in (record.pms_used_series, record.migrations_per_interval,
                    record.violation_counts, record.presence_counts):
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        serving = report.serving
        h.update(repr((
            report.total_migrations, record.failed_migration_attempts,
            None if serving is None else (serving.arrivals,
                                          serving.completions, serving.lost),
        )).encode())
        return h.hexdigest()
