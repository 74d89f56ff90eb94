"""The placement service's long soak: checkpoint size and time as it ages.

Drives an fsync'd :class:`~repro.service.service.PlacementService` in the
shape of perfbench's ``online_admission`` workload: 256 PMs, "large" VMs
with the paper's common ``(p_on, p_off)``, Poisson 10 arrivals per tick,
geometric lifetimes of mean 100 ticks, ``QueuingFFD(rho=0.01, d=16)``, a
checkpoint every 64 records and a recalibration every 25 ticks.  Each
tick departs the VMs whose lifetime ended, admits the tick's arrivals one
at a time, then recalibrates on its cadence; it stops after exactly
``--decisions`` journaled decisions.

For each 10,000 decisions it prints the hosted VMs and the latest
checkpoint's bytes at the end of the block, the median and max
``process_time`` of the block's checkpoints, and how the slowest one's
CPU splits into user and system time (``getrusage``, which resolves
microseconds where ``os.times()`` counts 10 ms ticks): kernel work such
as the checkpoint's two fsyncs shows as system time, Python work as user
time.  At the end it recovers the
service from its files.  It exits 1 if the recovered state's fingerprint
differs from the live one, or if the last checkpoint is more than 1.2x
the size of the last one taken by the midpoint; it gates size and parity
only, never time.  The hosted fleet ramps up for about 4,000 decisions,
so a run is at least one block long and its midpoint is past the ramp.
Run it from the repository root::

    PYTHONPATH=src python3 benchmarks/soak_service.py --decisions 100000
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.queuing_ffd import QueuingFFD
from repro.service.service import PlacementService
from repro.workload.patterns import generate_pattern_instance, make_pms

SEED = 7
N_PMS = 256
ARRIVALS_PER_TICK = 10.0
MEAN_LIFETIME_TICKS = 100.0
CHECKPOINT_EVERY = 64
RECALIBRATE_EVERY = 25
BLOCK = 10_000
#: the last checkpoint may be at most this many times the midpoint's
MAX_GROWTH = 1.2


def _placer() -> QueuingFFD:
    return QueuingFFD(rho=0.01, d=16)


def _arrivals(rng: np.random.Generator):
    """Endless ticks of ``[(vm, lifetime), ...]``; VMs drawn in chunks."""
    vms: list = []
    while True:
        n = int(rng.poisson(ARRIVALS_PER_TICK))
        if len(vms) < n:
            vms += generate_pattern_instance(
                "large", 10_000, n_pms=1,
                seed=int(rng.integers(2**31 - 1)))[0]
        lives = rng.geometric(1.0 / MEAN_LIFETIME_TICKS, size=n)
        yield [(vms.pop(), int(life)) for life in lives]


def soak(decisions: int, where: Path) -> int:
    rng = np.random.default_rng(SEED)
    pms = make_pms(N_PMS, seed=int(rng.integers(2**31 - 1)))
    paths = {"wal_path": where / "wal.jsonl",
             "checkpoint_path": where / "service.ckpt.json"}
    svc = PlacementService(pms, _placer(), checkpoint_every=CHECKPOINT_EVERY,
                           **paths)
    times: list[float] = []
    #: (user, system) CPU seconds of every checkpoint
    splits: list[tuple[float, float]] = []
    sizes: list[tuple[int, int]] = []  # (seq, bytes) of every checkpoint
    checkpoint = svc.checkpoint

    def timed_checkpoint() -> None:
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.process_time()
        checkpoint()
        times.append(time.process_time() - t0)
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        splits.append((r1.ru_utime - r0.ru_utime, r1.ru_stime - r0.ru_stime))
        sizes.append((svc.wal.last_seq,
                      os.path.getsize(paths["checkpoint_path"])))

    svc.checkpoint = timed_checkpoint
    print(f"{'decisions':>10} {'hosted VMs':>10} {'ckpt bytes':>10} "
          f"{'ckpts':>6} {'median ms':>9} {'max ms':>7} {'usr ms':>7} "
          f"{'sys ms':>7}")
    deaths: dict[int, list[int]] = {}
    block_start = seq = 0
    for t, tick in enumerate(_arrivals(rng)):
        ops = [("depart", vm_id) for vm_id in sorted(deaths.pop(t, ()))]
        ops += [("admit", j, vm, life) for j, (vm, life) in enumerate(tick)]
        if t and t % RECALIBRATE_EVERY == 0:
            ops.append(("recalibrate",))
        for op in ops:
            if op[0] == "depart":
                svc.depart(f"d-{op[1]}", op[1])
            elif op[0] == "admit":
                out = svc.submit(f"a-{t}-{op[1]}", op[2]) \
                    or svc.process_next()
                if out["op"] == "admit":
                    deaths.setdefault(t + op[3], []).append(out["vm_id"])
            else:
                svc.recalibrate(f"recal-{t}")
            if svc.wal.last_seq == seq:
                continue  # a degraded refit journals nothing
            seq = svc.wal.last_seq
            if seq % BLOCK == 0 or seq == decisions:
                block = times[block_start:]
                slowest = (splits[block_start + block.index(max(block))]
                           if block else (0.0, 0.0))
                block_start = len(times)
                print(f"{seq:>10,} {svc.consolidator.n_vms:>10,} "
                      f"{sizes[-1][1] if sizes else 0:>10,} {len(block):>6} "
                      f"{statistics.median(block) * 1e3 if block else 0:>9.2f} "
                      f"{max(block, default=0) * 1e3:>7.2f} "
                      f"{slowest[0] * 1e3:>7.2f} {slowest[1] * 1e3:>7.2f}",
                      flush=True)
            if seq == decisions:
                break
        if seq == decisions:
            break

    live = svc.consolidator.state_fingerprint()
    svc.wal.close()
    t0 = time.process_time()
    back = PlacementService.recover(pms, _placer(),
                                    checkpoint_every=CHECKPOINT_EVERY, **paths)
    recover_s = time.process_time() - t0
    recovered = back.consolidator.state_fingerprint()
    back.wal.close()
    mid = next((b for s, b in reversed(sizes) if s <= decisions // 2), 0)
    last = sizes[-1][1] if sizes else 0
    print(f"recovered in {recover_s * 1e3:.1f} ms CPU: fingerprint "
          f"{recovered} (live {live}); last checkpoint {last:,} bytes, "
          f"{last / mid if mid else float('nan'):.3f}x the midpoint's "
          f"{mid:,}")
    failed = []
    if recovered != live:
        failed.append("the recovered fingerprint differs from the live one")
    if not mid or last > MAX_GROWTH * mid:
        failed.append(f"the last checkpoint is not within {MAX_GROWTH}x "
                      "the midpoint's")
    for reason in failed:
        print(f"soak failed: {reason}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--decisions", type=int, default=100_000)
    args = parser.parse_args(argv)
    if args.decisions < BLOCK:
        parser.error(f"--decisions must be at least {BLOCK:,}")
    where = Path(tempfile.mkdtemp(prefix="soak-service-"))
    try:
        return soak(args.decisions, where)
    finally:
        shutil.rmtree(where, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
