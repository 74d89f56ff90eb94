"""Durable online admission: a closed loop over ``PlacementService``.

One caller submits each decision and waits for its outcome before the
next one (closed loop, one client).  Each tick of the generated arrival
process departs the VMs whose lifetime ended, admits the tick's Poisson
arrivals one at a time, and every ``recalibrate_every`` ticks refits the
mapping.  Every decision is journaled and fsync'd to a write-ahead log in
a fresh temporary directory, checkpointed every ``checkpoint_every``
records, and at the end ``PlacementService.recover`` rebuilds the service
from disk.  The recovered state must equal the live one.  Every time is
taken with :class:`clock.SpeedClock`, so the ``fsync`` waits are not in
it.
"""

from __future__ import annotations

import gc
import os
import shutil
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from clock import SpeedClock
from spans import NullTracer, Tracer

ONLINE_WORKLOADS = {
    "online_admission": {
        "loop": "closed loop, one caller",
        "pattern": "large",
        "n_pms": 256,
        "arrivals_per_tick": 10.0,
        "mean_lifetime_ticks": 100.0,
        "schedule_ticks": 600,
        "decisions_per_repeat": 5984,
        "rho": 0.01,
        "d": 16,
        "recalibrate_every": 25,
        "checkpoint_every": 64,
        "setups_per_repeat": 10,
        "recovers_per_repeat": 10,
    },
}


class AdmissionWorkload:
    """A seeded arrival/departure schedule, run as repeats of it."""

    def __init__(self, name: str, params: dict, out_dir: Path):
        self.name = name
        self.params = params
        self.out_dir = out_dir

    # ------------------------------------------------------------------ #
    def make_inputs(self, seed: int) -> dict:
        """PMs plus per-tick arrivals ``(vm, lifetime)``; a pure function
        of the seed, drawn independently of any decision outcome."""
        from repro.workload.patterns import generate_pattern_instance, make_pms

        p = self.params
        rng = np.random.default_rng(seed)
        s_pms, s_vms = rng.integers(0, 2**31 - 1, size=2)
        counts = rng.poisson(p["arrivals_per_tick"], size=p["schedule_ticks"])
        lives = rng.geometric(1.0 / p["mean_lifetime_ticks"],
                              size=int(counts.sum()))
        vms, _ = generate_pattern_instance(p["pattern"], int(counts.sum()),
                                           n_pms=1, seed=int(s_vms))
        arrivals, k = [], 0
        for n in counts:
            arrivals.append([(vms[k + j], int(lives[k + j]))
                             for j in range(int(n))])
            k += int(n)
        return {"pms": make_pms(p["n_pms"], seed=int(s_pms)),
                "arrivals": arrivals}

    # ------------------------------------------------------------------ #
    def _new_service(self, inputs: dict, where: Path):
        """Set-up: an empty durable service with its MapCal table solved."""
        from repro.core.queuing_ffd import QueuingFFD
        from repro.service.service import PlacementService

        p = self.params
        placer = QueuingFFD(rho=p["rho"], d=p["d"])
        svc = PlacementService(inputs["pms"], placer,
                               wal_path=where / "wal.jsonl",
                               checkpoint_path=where / "service.ckpt.json",
                               checkpoint_every=p["checkpoint_every"])
        first = next(vm for tick in inputs["arrivals"] for vm, _ in tick)
        placer.mapping_for([first])
        return svc

    def _install(self, tracer: Tracer, svc, wal_bytes: list) -> None:
        wal_path = svc.wal.path
        tracer.wrap(svc.inbox, "offer", "service.inbox")
        tracer.wrap(svc.inbox, "pop", "service.inbox")
        tracer.wrap(svc, "process_next", "service.decide")
        tracer.wrap(svc, "depart", "service.decide")
        tracer.wrap(svc, "recalibrate", "service.recalibrate")
        tracer.wrap(svc, "checkpoint", "service.checkpoint")
        tracer.wrap(svc.consolidator, "admit", "service.apply")
        tracer.wrap(svc.consolidator, "depart", "service.apply")
        tracer.wrap(svc.wal, "append", "service.wal_append",
                    measure=lambda: os.path.getsize(wal_path),
                    counter=wal_bytes)

    def repeat(self, inputs: dict, tracer: Tracer | NullTracer,
               clock: SpeedClock) -> dict:
        """Set up, run the schedule, recover from disk, compare."""
        import repro.core.online as online_module
        import repro.core.queuing_ffd as queuing_ffd_module
        import repro.service.service as service_module
        from repro.perf.cache import cache_stats, fresh_cache
        from repro.service.service import PlacementService

        p = self.params
        tmp = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.out_dir))
        try:
            # ---- set-up, several times: WAL creation + cold MapCal ------ #
            setup_laps = clock.laps()
            for k in range(p["setups_per_repeat"] - 1):
                with fresh_cache():
                    clock.probe()
                    t0 = clock.now()
                    self._new_service(inputs, tmp / f"setup{k}")
                    setup_laps.stop(t0)
                shutil.rmtree(tmp / f"setup{k}")
            tracer.wrap(queuing_ffd_module, "mapcal_table", "core.mapcal")
            tracer.wrap(online_module, "mapcal_table", "core.mapcal")
            with fresh_cache():
                clock.probe()
                t0 = clock.now()
                with tracer.span("setup"):
                    svc = self._new_service(inputs, tmp / "service")
                setup_laps.stop(t0)
                wal_bytes = [0]
                self._install(tracer, svc, wal_bytes)
                gc.collect()  # the loop starts from the same heap each time
                live = self._drive(svc, inputs, tracer, clock)
                stats = cache_stats()
            fingerprint = svc.consolidator.state_fingerprint()
            committed_ok = all(
                svc.consolidator.state_of(i).committed
                <= pm.capacity + 1e-9
                for i, pm in enumerate(inputs["pms"]))

            # ---- recover: a restart in a new process, cold cache -------- #
            tracer.wrap(service_module, "load_service_checkpoint",
                        "service.recover_load")
            tracer.wrap(PlacementService, "_replay", "service.replay")
            recover_laps, recovered_ok, replayed = clock.laps(), True, 0
            gc.collect()
            for _ in range(p["recovers_per_repeat"]):
                with fresh_cache():
                    clock.probe()
                    t0 = clock.now()
                    with tracer.span("recover"):
                        back = PlacementService.recover(
                            inputs["pms"], svc.placer,
                            wal_path=svc.wal.path,
                            checkpoint_path=svc.checkpoint_path,
                            checkpoint_every=p["checkpoint_every"])
                    recover_laps.stop(t0)
                replayed = len(back.wal.records(
                    after_seq=back.wal.base_seq))
                recovered_ok &= (
                    back.consolidator.state_fingerprint() == fingerprint)
            clock.probe()
            layers = tracer.self_times() if tracer.spans else {}
            trace_total = tracer.root_total() if tracer.spans else 0.0
            counts = {
                "core.mapcal_solves": int(stats["misses"]),
                "core.mapcal_hits": int(stats["hits"]),
                "service.wal_appends": int(svc.wal.last_seq),
                "service.wal_bytes": int(wal_bytes[0]),
                "service.sheds": int(svc.counters["shed"]),
                "service.replayed_records": int(replayed),
            }
            if tracer.spans:
                counts["service.checkpoints"] = tracer.calls(
                    "service.checkpoint")
        finally:
            tracer.restore()
            shutil.rmtree(tmp, ignore_errors=True)

        tick_s = live["tick_laps"].seconds()
        return {
            "setup_s": setup_laps.seconds(),
            "tick_ms": [t * 1e3 for t in tick_s],
            "decision_ms": [t * 1e3 for t in live["decision_laps"].seconds()],
            "loop_s": live["loop_s"],
            "tick_s": sum(tick_s),
            "vm_intervals": live["vm_intervals"],
            "recover_s": recover_laps.seconds(),
            "speed": clock.speed(),
            "digest": f"{fingerprint}/{svc.wal.last_chain}",
            "checks": {
                "recovered_fingerprint_equals_live": recovered_ok,
                "committed_within_capacity": committed_ok,
                "decision_budget_reached": (
                    live["requests"] == p["decisions_per_repeat"]),
            },
            "requests": live["requests"],
            "failed_requests": live["sheds"] + live["raised"],
            "counts": counts,
            "layers": layers,
            "trace_total": trace_total,
        }

    def _drive(self, svc, inputs: dict, tracer, clock: SpeedClock) -> dict:
        """The closed loop: one decision at a time, timed one by one.

        It stops after exactly ``decisions_per_repeat`` decisions (each
        journals one WAL record), so the checkpoint cadence and the number
        of records recovery replays are the same at every seed.  Only
        complete ticks enter the tick statistics.  A speed probe runs
        before every tick and after the last.
        """
        p = self.params
        budget = p["decisions_per_repeat"]
        decision_laps, tick_laps = clock.laps(), clock.laps()
        deaths: dict[int, list[int]] = {}
        requests = sheds = raised = vm_intervals = 0

        def decide(fn, *args):
            nonlocal requests, raised
            requests += 1
            t0 = clock.now()
            try:
                with tracer.span("decision"):
                    return fn(*args)
            except Exception as exc:  # a raised decision is a failed op
                raised += 1
                print(f"perfbench: decision {args[0]!r} raised "
                      f"{type(exc).__name__}: {exc}")
                return None
            finally:
                decision_laps.stop(t0)

        def admit(key, vm):
            out = svc.submit(key, vm)
            return out if out is not None else svc.process_next()

        loop0 = perf_counter()
        for t, tick in enumerate(inputs["arrivals"]):
            clock.probe()
            t0 = clock.now()
            ops = [("depart", vm_id) for vm_id in sorted(deaths.pop(t, ()))]
            ops += [("admit", j, vm, life)
                    for j, (vm, life) in enumerate(tick)]
            if t and t % p["recalibrate_every"] == 0:
                ops.append(("recalibrate",))
            todo = ops[:budget - requests]
            for op in todo:
                if op[0] == "depart":
                    decide(svc.depart, f"d-{op[1]}", op[1])
                elif op[0] == "admit":
                    out = decide(admit, f"a-{t}-{op[1]}", op[2])
                    if out is not None and out["op"] == "admit":
                        deaths.setdefault(t + op[3], []).append(out["vm_id"])
                    elif out is not None:
                        sheds += 1
                else:
                    decide(svc.recalibrate, f"recal-{t}")
            if len(todo) < len(ops):
                break  # the budget ended inside this tick
            tick_laps.stop(t0)
            vm_intervals += svc.consolidator.n_vms
            if requests == budget:
                break
        loop_s = perf_counter() - loop0
        clock.probe()
        return {"decision_laps": decision_laps, "tick_laps": tick_laps,
                "loop_s": loop_s,
                "requests": requests, "sheds": sheds, "raised": raised,
                "vm_intervals": vm_intervals}
