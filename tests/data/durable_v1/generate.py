"""Write the durable-file fixtures in this directory.

The fixtures pin the on-disk formats of the build that wrote them: a later
build must still read them (``tests/test_durable.py``).  Run this script
from this directory with the source tree of that build first on the path:

    cd tests/data/durable_v1
    PYTHONPATH=<checkout>/src python generate.py

It writes, with relative paths only:

- ``simulation.ckpt.json`` -- a checkpoint at interval 10 of a seeded run;
- ``retention/`` -- a ``CheckpointRetention`` directory (keep 2, 3 saves);
- ``service/`` -- a placement-service checkpoint and the WAL past it;
- ``bench/`` -- a durable bench run of ``table1`` whose journal ends in a
  torn line;
- ``bench_sealed/`` -- that run resumed by the writing build, whose journal
  therefore holds the torn line mid-file if that build sealed it;
- ``expected.json`` -- what the uninterrupted runs produced.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.experiments.durability import run_durable_bench
from repro.service.service import PlacementService
from repro.simulation import Scenario, save_checkpoint
from repro.simulation.checkpoint import (
    CheckpointRetention,
    canonical_state_bytes,
)

VMS = [VMSpec(0.2, 0.3, 8.0, 30.0), VMSpec(0.1, 0.4, 6.0, 40.0),
       VMSpec(0.3, 0.2, 10.0, 25.0), VMSpec(0.25, 0.5, 5.0, 35.0),
       VMSpec(0.15, 0.35, 12.0, 20.0), VMSpec(0.4, 0.4, 7.0, 45.0)]
PMS = [PMSpec(90.0)] * 3
RUN_SEED = 11
TICKS = 20
CALM = VMSpec(p_on=0.1, p_off=0.5, r_base=2.0, r_extra=3.0)
BURSTY = VMSpec(p_on=0.45, p_off=0.05, r_base=2.0, r_extra=3.0)


def scenario() -> Scenario:
    """The simulated fleet; every component is portable (rebuildable)."""
    return Scenario(VMS, PMS, placer=QueuingFFD(rho=0.4, d=16),
                    failures={"failure_probability": 0.02,
                              "repair_probability": 0.5},
                    migration_failure_probability=0.1,
                    tick_mode="vectorized")


def state_sha256(run) -> str:
    return hashlib.sha256(canonical_state_bytes(run.capture_state())
                          ).hexdigest()


def simulation(out: Path) -> dict:
    run = scenario().start(seed=RUN_SEED)
    run.advance(TICKS // 2)
    save_checkpoint(run, out / "simulation.ckpt.json")
    run.advance(TICKS - TICKS // 2)
    run.close()
    return {"ticks": TICKS, "summary": run.finish().summary(),
            "state_sha256": state_sha256(run)}


def retention(out: Path) -> dict:
    run = scenario().start(seed=RUN_SEED)
    store = CheckpointRetention(out / "retention", keep=2)
    for _ in range(3):
        run.advance(4)
        store.save(run, label="fixture")
    run.close()
    return {"time": run.time, "state_sha256": state_sha256(run)}


def service(out: Path) -> dict:
    where = out / "service"
    svc = PlacementService([PMSpec(20.0)] * 4, wal_path=where / "wal.jsonl",
                           checkpoint_path=where / "ckpt.json",
                           checkpoint_every=6)
    for j in range(4):
        svc.submit(f"a{j}", CALM)
        svc.submit(f"b{j}", BURSTY)
        svc.drain()
    svc.depart("d-a0", svc.results["a0"]["vm_id"])
    return {"fingerprint": svc.consolidator.state_fingerprint(),
            "wal_seq": svc.wal.last_seq}


def bench(out: Path) -> None:
    for name in ("bench", "bench_sealed"):
        shutil.rmtree(out / name, ignore_errors=True)
    run_durable_bench("table1", parallel=1, output_dir=Path("bench"))
    with open(out / "bench" / "journal.jsonl", "a") as fh:
        fh.write('{"kind": "bench_job')  # a crash mid-append
    shutil.copytree(out / "bench", out / "bench_sealed")
    run_durable_bench(output_dir=Path("bench_sealed"), resume=True,
                      parallel=1)
    for name in ("bench", "bench_sealed"):
        shutil.rmtree(out / name / ".work")
        (out / name / "BENCH_timings.json").unlink()


def main() -> None:
    out = Path(".")
    for name in ("retention", "service"):
        shutil.rmtree(out / name, ignore_errors=True)
    expected = {"simulation": simulation(out), "retention": retention(out),
                "service": service(out)}
    bench(out)
    (out / "expected.json").write_text(
        json.dumps(expected, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
