"""``python -m repro serve``: drive the placement service, with chaos drills.

Runs a deterministic arrival/departure schedule (seeded Poisson arrivals,
geometric lifetimes) through a durable :class:`PlacementService`.  The
schedule is a pure function of the seed, and every key the driver journals
names its tick (``a-{t}-{j}``, ``d-{t}-{vm_id}``, ``recal-{t}``).  So the
journal is the resume cursor: *re-running the same command after a crash
re-enters the schedule at the tick of the newest journaled key*, rebuilds
the departures still due from the hosted VMs' admissions, and lets that
tick's already-decided keys dedupe through the service's window.  That is
the whole recovery story — there is no separate "resume" flag.  A run
exits 2 rather than guess when the window no longer reaches back to that
tick's first record, or when the newest key names no tick (a journal an
older ``repro serve`` wrote).

Chaos drills (``--chaos``):

- ``kill`` — ``os._exit(137)`` the instant WAL record ``--chaos-at`` is
  fsync'd, *before* it is applied: the harshest kill point.  Re-run the
  same command to recover and finish; ``--state-out`` files from a killed
  +resumed run and an uninterrupted run must be byte-identical (the CI
  ``service-smoke`` job asserts this).
- ``stall`` — from decision ``--chaos-at`` onward, every MapCal solve
  raises: the circuit breaker opens and the service keeps admitting on
  the last-known-good mapping (watch ``staleness`` in the summary).
- ``corrupt-wal`` — after the run completes, garbage bytes are appended
  to the journal: the *next* invocation's recovery truncates the torn
  tail and reports it.

Parity caveat: recovery guarantees byte-identical state for *journaled*
decisions.  Inbox-depth sheds (``shed_inbox_full``) depend on how many
undecided requests were queued at offer time, so a kill landing mid-tick
while the inbox is saturated can admit a request the uninterrupted run
shed.  The drills therefore size the inbox above the schedule's burst
width (``--inbox``); depth-dependent shedding is exercised separately in
the overload tests.
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path

import numpy as np

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.durable import canonical
from repro.observability.recorder import TimeSeriesRecorder
from repro.observability.slo import SLOEngine, default_service_rules
from repro.placement.grand import GreedyRandomPlacer
from repro.service.pool import ElasticPMPool
from repro.service.service import PlacementService
from repro.telemetry import JSONLSink, RingBufferSink, Telemetry


def add_serve_parser(sub) -> None:
    """Attach the ``serve`` subcommand to the repro CLI's subparsers."""
    serve = sub.add_parser(
        "serve",
        help="drive the durable placement service over a deterministic "
             "arrival schedule; re-run the same command to recover after "
             "a crash (see --chaos)")
    serve.add_argument("--arrivals", type=int, default=1000,
                       help="total VM arrivals in the schedule")
    serve.add_argument("--rate", type=float, default=4.0,
                       help="mean arrivals per tick (Poisson)")
    serve.add_argument("--mean-life", type=float, default=12.0,
                       help="mean VM lifetime in ticks (geometric)")
    serve.add_argument("--pms", type=int, default=16)
    serve.add_argument("--capacity", type=float, default=10.0)
    serve.add_argument("--rho", type=float, default=0.01)
    serve.add_argument("-d", type=int, default=8,
                       help="per-PM VM cap (mapping table size)")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--placer", choices=("queue", "grand"),
                       default="queue")
    serve.add_argument("--elastic", action="store_true",
                       help="enable the elastic PM pool (hysteresis "
                            "scale-up/down, guarded retire)")
    serve.add_argument("--inbox", type=int, default=1024,
                       help="admission inbox capacity")
    serve.add_argument("--recalibrate-every", type=int, default=25,
                       help="ticks between mapping refits (0 = never)")
    serve.add_argument("--checkpoint-every", type=int, default=256,
                       help="WAL records between checkpoint compactions")
    serve.add_argument("--wal", type=Path, required=True,
                       help="write-ahead log path (the durable identity "
                            "of this service instance)")
    serve.add_argument("--checkpoint", type=Path, default=None,
                       help="checkpoint path (defaults next to the WAL)")
    serve.add_argument("--state-out", type=Path, default=None,
                       help="write the final canonical service state here "
                            "(byte-comparable across runs)")
    serve.add_argument("--jsonl", type=Path, default=None,
                       help="record telemetry events to this JSONL file")
    serve.add_argument("--chaos", choices=("kill", "stall", "corrupt-wal"),
                       default=None)
    serve.add_argument("--chaos-at", type=int, default=0,
                       help="WAL sequence (kill) or decision sequence "
                            "(stall) the drill triggers at")


def _build_schedule(args):
    """The deterministic workload: (arrivals per tick, lifetimes per key).

    RNG consumption is outcome-independent — lifetimes are drawn for every
    arrival whether or not it ends up admitted — so an interrupted and a
    fresh run walk identical schedules.
    """
    rng = np.random.RandomState(args.seed)
    ticks = []
    total = 0
    while total < args.arrivals:
        n = int(rng.poisson(args.rate))
        n = min(n, args.arrivals - total)
        lives = [max(1, int(rng.geometric(1.0 / args.mean_life)))
                 for _ in range(n)]
        ticks.append(lives)
        total += n
    return ticks


_TICK_KEY = re.compile(r"(?:[ad]-(\d+)-\d+|recal-(\d+))\Z")


def _key_tick(key: str) -> int | None:
    """The schedule tick a driver key names (``None``: it names none)."""
    m = _TICK_KEY.match(key)
    return None if m is None else int(m.group(1) or m.group(2))


class ResumeError(RuntimeError):
    """The journal cannot place this run in its schedule."""


def _resume_point(svc, schedule) -> tuple[int, dict[int, list[int]]]:
    """The tick to re-enter the schedule at, and the deaths still due.

    The tick is that of the newest journaled key.  The departures still
    due come from the kept admissions of hosted VMs admitted before it
    (the tick's own admissions are read again as it is re-walked).
    Raises :class:`ResumeError` when that key names no tick, or when the
    dedupe window does not reach back past the tick's first record.
    """
    if svc.wal.last_seq == 0:
        return 0, {}
    kept = {key: out for key in svc.results
            if (out := svc.outcome(key)) is not None}
    newest = max(kept, key=lambda key: kept[key]["seq"])
    tick = _key_tick(newest)
    if tick is None:
        raise ResumeError(
            f"the newest journaled key {newest!r} names no schedule tick; "
            "this WAL was written by an older `repro serve`")
    window = svc.dedupe_window
    if window is not None and svc.wal.last_seq > window:
        # Ticks never interleave in the journal, so the tick's first record
        # is in the window iff the window's oldest record is from an
        # earlier tick.  A gap at the window's start means the journal was
        # trimmed under a narrower window than this run's.
        floor = svc.wal.last_seq - window
        first_seq, first_key = min((out["seq"], key)
                                   for key, out in kept.items()
                                   if out["seq"] > floor)
        first_tick = _key_tick(first_key)
        if first_seq != floor + 1 or first_tick is None \
                or first_tick >= tick:
            raise ResumeError(
                f"the dedupe window ({window} records) no longer reaches "
                f"back to the first record of tick {tick}, so its decided "
                "keys would be decided again")
    deaths: dict[int, list[int]] = {}
    for key, out in kept.items():
        if out["op"] == "admit" and key.startswith("a-") \
                and svc.consolidator.hosts(out["vm_id"]):
            t, j = (int(part) for part in key[2:].split("-"))
            if t < tick:
                deaths.setdefault(t + schedule[t][j], []).append(
                    out["vm_id"])
    return tick, deaths


def run_serve(args) -> int:
    checkpoint = args.checkpoint
    if checkpoint is None:
        checkpoint = args.wal.with_name(args.wal.name + ".ckpt.json")
    if args.placer == "grand":
        placer = GreedyRandomPlacer(rho=args.rho, d=args.d, seed=args.seed)
    else:
        placer = QueuingFFD(rho=args.rho, d=args.d)
    pool = None
    if args.elastic:
        pool = ElasticPMPool(args.pms, initial_active=max(2, args.pms // 2),
                             low_watermark=1, high_watermark=2, patience=4)

    chaos_hook = None
    if args.chaos == "kill":
        def chaos_hook(phase: str, seq: int) -> None:
            if phase == "appended" and seq == args.chaos_at:
                print(f"[chaos] kill -9 at WAL seq {seq} (journaled, "
                      "not applied)", flush=True)
                os._exit(137)
    if args.chaos == "stall":
        real_mapping_for = placer.mapping_for

        def stalling_mapping_for(vms):
            if stall_state["armed"]:
                raise RuntimeError("injected solver stall")
            return real_mapping_for(vms)

        stall_state = {"armed": False}
        placer.mapping_for = stalling_mapping_for

    sinks = [JSONLSink(args.jsonl)] if args.jsonl else [RingBufferSink()]
    tel = Telemetry(*sinks)
    recorder = TimeSeriesRecorder(window=240)
    slo = SLOEngine(recorder, default_service_rules(), emit=False)

    pms = [PMSpec(capacity=args.capacity)] * args.pms
    svc = PlacementService.recover(
        pms, placer, wal_path=args.wal, checkpoint_path=checkpoint,
        inbox_capacity=args.inbox, checkpoint_every=args.checkpoint_every,
        pool=pool, telemetry=tel, chaos_hook=chaos_hook)
    schedule = _build_schedule(args)
    try:
        start, deaths = _resume_point(svc, schedule)
    except ResumeError as exc:
        tel.close()
        svc.wal.close()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if svc.wal.last_seq > 0:
        print(f"[recover] WAL replay to seq {svc.wal.last_seq} "
              f"({svc.wal.truncated_tail} torn tail lines dropped), "
              f"state {svc.consolidator.state_fingerprint()}; "
              f"resuming at tick {start}")

    try:
        for t in range(start, len(schedule)):
            if args.chaos == "stall":
                stall_state["armed"] = svc.wal.last_seq >= args.chaos_at
            for vm_id in sorted(deaths.pop(t, [])):
                svc.depart(f"d-{t}-{vm_id}", vm_id)
            vm = VMSpec(p_on=0.1, p_off=0.5, r_base=2.0, r_extra=3.0)
            keys = [(f"a-{t}-{j}", life) for j, life in enumerate(schedule[t])]
            for key, _ in keys:
                svc.submit(key, vm)
            svc.drain()
            for key, life in keys:
                outcome = svc.outcome(key)
                if outcome and outcome["op"] == "admit":
                    deaths.setdefault(t + life, []).append(outcome["vm_id"])
            if args.recalibrate_every and t and \
                    t % args.recalibrate_every == 0:
                svc.recalibrate(f"recal-{t}")
            snap = svc.emit_snapshot()
            recorder.on_event(snap)
            slo.evaluate(t)
    finally:
        tel.close()
        svc.wal.close()

    m = svc.metrics()
    print(f"serve: {m['requests']} requests -> {m['admitted']} admitted, "
          f"{m['shed']} shed ({m['shed'] / max(m['requests'], 1):.1%}), "
          f"{m['departed']} departed")
    print(f"fleet: {m['used_pms']}/{m['active_pms']} PMs used/active "
          f"({m['draining_pms']} draining, {m['retired_pms']} retired), "
          f"{m['hosted_vms']} VMs hosted")
    print(f"wal: seq {svc.wal.last_seq}, lag {m['wal_lag']}; "
          f"solver staleness {m['staleness']}; "
          f"recalibrations {svc.counters['recalibrations']} "
          f"(+{m['recalibrate_noops']} no-ops)")
    print(f"state fingerprint: {svc.consolidator.state_fingerprint()}")
    for name, alert in sorted(slo.active.items()):
        print(f"ALERT [{alert.rule.severity.upper()}] {name}: "
              f"burn {alert.burn_fast:.1f}x fast / "
              f"{alert.burn_slow:.1f}x slow")

    if args.state_out:
        args.state_out.parent.mkdir(parents=True, exist_ok=True)
        args.state_out.write_bytes(canonical(svc.capture_state()))
        print(f"state written: {args.state_out}")

    if args.chaos == "corrupt-wal":
        with open(args.wal, "ab") as fh:
            fh.write(b'{"seq": 999999, "chain": "deadbeef", "truncated')
        print("[chaos] garbage appended to WAL tail; the next invocation "
              "must truncate and recover")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via `repro serve`
    import argparse

    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    add_serve_parser(sub)
    sys.exit(run_serve(parser.parse_args()))
