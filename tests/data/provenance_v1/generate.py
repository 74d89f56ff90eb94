"""Pin the decision-provenance event streams of the build that runs this.

``expected.json`` holds sha256 digests of the ``PlacementDecided`` and
``MigrationDecided`` streams that seeded instances produce; a later build
must reproduce every digest (``tests/test_provenance_fixture.py``), so any
change to which candidate rows an event keeps, their order, verdicts or
scores shows up as a digest mismatch.  Regenerate it only with the build
whose streams it pins, never with a tree under test:

    cd tests/data/provenance_v1
    PYTHONPATH=<checkout>/src python generate.py

A stream is hashed as the JSONL bytes ``JSONLSink`` would write for it;
each starts from a cold MapCal cache, so its ``cache_hit`` stamps do not
depend on what the process ran before.
Every instance has more PMs than the eight candidate rows an event keeps.
The streams cover:

- every batch placer of ``tests/test_placement_rejections.ALL_PLACERS`` on
  a feasible fleet, an infeasible one (the events up to the raise), a fleet
  under a per-PM VM cap and, where the placer takes one, a fault-domain
  spread cap.  Each case also pins the unexplained ``.place()`` result:
  the sha256 of its assignment, or the VM index it raised at.  QUEUE-MD
  runs on the two-dimensional specs :func:`two_dim` builds from the same
  one-dimensional ones.  Every assignment was pinned by the build before
  the shared first-fit loop; the streams of
  ``STREAMS_WRITTEN_BY_FIRST_FIT``, which that build did not emit, were
  added by the first build that did;
- online ``admit`` with ``eligible`` masks (draining PMs), a GRAND
  ``choose`` rule, departures and rejections, then ``admit_batch`` (one
  batch that fits and one that does not);
- the scheduler's ``MigrationDecided`` stream of a traced ``Scenario`` with
  PM failures and failing migrations under the least-loaded selector, so
  crashed and blacklisted targets are vetoed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.heterogeneous import HeterogeneousQueuingFFD
from repro.core.multidim import (
    MultiDimFirstFit,
    MultiDimPMSpec,
    MultiDimVMSpec,
)
from repro.core.online import OnlineConsolidator
from repro.core.quantile import QuantileFFD
from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.perf.cache import fresh_cache
from repro.placement.base import InsufficientCapacityError
from repro.placement.ffd import (
    FirstFitDecreasing,
    ffd_by_base,
    ffd_by_peak,
    size_by_peak,
)
from repro.placement.grand import GreedyRandomPlacer
from repro.placement.rbex import RBExPlacer
from repro.placement.sbp import StochasticBinPacker
from repro.placement.spread import DomainSpreadConstraint
from repro.simulation import Scenario
from repro.simulation.topology import Topology
from repro.telemetry import (
    MigrationDecided,
    PlacementDecided,
    RingBufferSink,
    Telemetry,
)

N_PMS = 20
#: per-PM VM cap of the "vm_cap" instances (``d`` for the Eq. (17) placers)
CAP = 3
#: fault domains of the "spread" instances: four PMs each, seven VMs each
SPREAD = DomainSpreadConstraint(Topology(np.arange(N_PMS) // 4),
                                max_vms_per_domain=7)


def two_dim(vms, pms):
    """Two-dimensional specs from one-dimensional ones: a VM's second
    dimension is half its spike demand as base and half its base demand as
    spike, on the same capacity."""
    return ([MultiDimVMSpec(v.p_on, v.p_off, (v.r_base, 0.5 * v.r_extra),
                            (v.r_extra, 0.5 * v.r_base)) for v in vms],
            [MultiDimPMSpec((p.capacity, p.capacity)) for p in pms])


class TwoDimFirstFit(MultiDimFirstFit):
    """QUEUE-MD on the two-dimensional specs :func:`two_dim` builds."""

    def place(self, vms, pms):
        return super().place(*two_dim(vms, pms))


#: placer id -> factory(max VMs per PM, spread cap or None); the ids are
#: those of ``ALL_PLACERS``, and a factory without a spread cap is
#: called with ``spread=None`` only
PLACERS = {
    "FFD": lambda cap, spread: FirstFitDecreasing(
        size_by_peak, max_vms_per_pm=cap, spread=spread),
    "RP": lambda cap, spread: ffd_by_peak(max_vms_per_pm=cap, spread=spread),
    "RB": lambda cap, spread: ffd_by_base(max_vms_per_pm=cap, spread=spread),
    "SBP": lambda cap, spread: StochasticBinPacker(max_vms_per_pm=cap),
    "QUEUE": lambda cap, spread: QueuingFFD(rho=0.01, d=min(cap, 16),
                                            spread=spread),
    "RBEx": lambda cap, spread: RBExPlacer(delta=0.3, max_vms_per_pm=cap),
    "GRAND": lambda cap, spread: GreedyRandomPlacer(
        rho=0.01, d=min(cap, 16), seed=3, spread=spread),
    "QUEUE-HET": lambda cap, spread: HeterogeneousQueuingFFD(
        rho=0.01, d=min(cap, 16)),
    "QUANTILE": lambda cap, spread: QuantileFFD(rho=0.01, d=min(cap, 16)),
    "QUANTILE-1.0": lambda cap, spread: QuantileFFD(
        rho=0.01, d=min(cap, 16), resolution=1.0),
    "QUEUE-MD": lambda cap, spread: TwoDimFirstFit(rho=0.01, d=min(cap, 16)),
}
#: placers whose decision streams the build that put every placer on one
#: first-fit loop wrote first: the build before it, which pinned their
#: assignments, emitted no ``PlacementDecided`` for them
STREAMS_WRITTEN_BY_FIRST_FIT = ("QUANTILE", "QUANTILE-1.0", "QUEUE-HET",
                                "QUEUE-MD")
TAKES_SPREAD = ("FFD", "RP", "RB", "QUEUE", "GRAND")
UNCAPPED = 10**9


def random_vms(n: int, seed: int) -> list[VMSpec]:
    rng = np.random.default_rng(seed)
    return [VMSpec(float(rng.uniform(0.01, 0.2)), float(rng.uniform(0.05, 0.5)),
                   float(rng.uniform(2.0, 20.0)), float(rng.uniform(0.0, 25.0)))
            for _ in range(n)]


def fleet(seed: int) -> list[PMSpec]:
    rng = np.random.default_rng(seed)
    return [PMSpec(float(c)) for c in rng.choice([30.0, 60.0, 100.0], N_PMS)]


def digest(events) -> dict:
    body = b"".join(json.dumps(e.to_dict(), separators=(",", ":")).encode()
                    + b"\n" for e in events)
    verdicts = sorted({v for e in events for v in e.cand_verdicts})
    return {"events": len(events),
            "dropped": sum(e.dropped_candidates for e in events),
            "verdicts": verdicts,
            "sha256": hashlib.sha256(body).hexdigest()}


def traced() -> tuple[Telemetry, RingBufferSink]:
    sink = RingBufferSink()
    return Telemetry(sink), sink


def of_kind(sink: RingBufferSink, kind) -> list:
    return [e for e in sink.events if isinstance(e, kind)]


def placement_stream(placer, vms, pms) -> dict:
    tel, sink = traced()
    try:
        placer.place_and_report(vms, pms, telemetry=tel)
        outcome = "placed"
    except InsufficientCapacityError:
        outcome = "infeasible"
    return {"outcome": outcome, **digest(of_kind(sink, PlacementDecided))}


def assignment_of(placer, vms, pms) -> dict:
    """The unexplained ``.place()`` result: its assignment's sha256, or
    the VM index it raised at."""
    try:
        assignment = placer.place(vms, pms).assignment
    except InsufficientCapacityError as exc:
        return {"failed_vm": int(exc.vm_index)}
    return {"assignment": hashlib.sha256(
        np.asarray(assignment, dtype="<i8").tobytes()).hexdigest()}


def case_of(placer, vms, pms) -> dict:
    # the stream first: .place() only re-reads the MapCal tables it solved
    return {**placement_stream(placer, vms, pms),
            **assignment_of(placer, vms, pms)}


def placements_of(name: str, make) -> dict:
    with fresh_cache():
        return _placements_of(name, make)


def _placements_of(name: str, make) -> dict:
    cases = {
        "fleet": (make(UNCAPPED, None), random_vms(40, 1), fleet(2)),
        "infeasible": (make(UNCAPPED, None), random_vms(90, 3), fleet(4)),
        "vm_cap": (make(CAP, None), random_vms(45, 5), fleet(6)),
    }
    if name in TAKES_SPREAD:
        cases["spread"] = (make(UNCAPPED, SPREAD), random_vms(30, 7),
                           fleet(8))
    return {case: case_of(*args) for case, args in cases.items()}


def online() -> dict:
    with fresh_cache():
        return _online()


def _online() -> dict:
    tel, sink = traced()
    placer = QueuingFFD(rho=0.01, d=16)
    grand = GreedyRandomPlacer(rho=0.01, d=16, seed=3)
    cons = OnlineConsolidator([PMSpec(40.0)] * N_PMS, placer, telemetry=tel)
    vms = random_vms(60, 10)
    admitted, rejected = [], 0
    for i, vm in enumerate(vms[:40]):
        # four PMs eligible, the other sixteen draining
        eligible = [(i + k) % N_PMS for k in range(4)]
        choose = grand.choose_for(i) if i % 3 == 0 else None
        try:
            admitted.append(cons.admit(vm, time=i, eligible=eligible,
                                       choose=choose)[0])
        except InsufficientCapacityError:
            rejected += 1
        if i % 5 == 4 and admitted:
            cons.depart(admitted.pop(0))
    cons.admit_batch(vms[40:44], time=40)
    try:
        cons.admit_batch(random_vms(80, 11), time=41)
        outcome = "placed"
    except InsufficientCapacityError:
        outcome = "infeasible"
    return {"rejected": rejected, "last_batch": outcome,
            **digest(of_kind(sink, PlacementDecided))}


def migrations() -> dict:
    with fresh_cache():
        return _migrations()


def _migrations() -> dict:
    tel, sink = traced()
    vms = random_vms(60, 12)
    pms = [PMSpec(60.0)] * N_PMS
    Scenario(vms, pms, placer=ffd_by_base(max_vms_per_pm=16),
             failures={"failure_probability": 0.03,
                       "repair_probability": 0.2},
             migration_failure_probability=0.5,
             telemetry=tel).run(150, seed=13)
    events = of_kind(sink, MigrationDecided)
    return {"unresolved": sum(e.chosen_pm < 0 for e in events),
            **digest(events)}


def digests() -> dict:
    """Every pinned stream's digest, computed by the build on the path."""
    return {"placement": {name: placements_of(name, make)
                          for name, make in PLACERS.items()},
            "online": online(),
            "migration": migrations(),
            "streams_written_by_first_fit": list(STREAMS_WRITTEN_BY_FIRST_FIT)}


def main() -> None:
    here = Path(__file__).resolve().parent
    (here / "expected.json").write_text(
        json.dumps(digests(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
