"""The placement service's state in columns, against the per-VM reference.

``PlacementService.checkpoint`` captures the state in one pass, as the
columns the version 2 file stores, and recovery hands the decoded columns
to one bulk consolidator restore.  The references are the per-VM loops in
:mod:`repro.perf.reference` and the version 1 layout they produce.  Random
admit/depart/recalibrate/shed sequences, with and without an elastic pool
and with int-valued specs, must checkpoint to the bytes the reference
capture plus the packing of earlier builds writes, and recover, from a
version 1 file and from a version 2 one, to the reference restore's
fingerprint, state, kernel arrays and hosted order.
"""

import dataclasses
import itertools
import json
import tempfile
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.online import OnlineConsolidator
from repro.core.types import PMSpec, VMSpec
from repro.durable import Envelope, canonical, pack_column
from repro.perf.reference import (
    capture_consolidator_v1,
    restore_consolidator_v1,
)
from repro.placement.base import InsufficientCapacityError
from repro.service.pool import ElasticPMPool
from repro.service.service import PlacementService
from repro.service.wal import (
    SERVICE_CHECKPOINT_FORMAT,
    SERVICE_CHECKPOINT_VERSION,
    WALCorruptError,
)

CALM = VMSpec(p_on=0.1, p_off=0.5, r_base=2.0, r_extra=3.0)
BURSTY = VMSpec(p_on=0.45, p_off=0.05, r_base=2.5, r_extra=1.25)
INTS = VMSpec(p_on=0.1, p_off=1, r_base=2, r_extra=3)  # stored as JSON
HUGE = VMSpec(p_on=0.1, p_off=0.5, r_base=50.0, r_extra=1.0)  # always shed
N_PMS = 4


# --------------------------------------------------------------------- #
# the references: the per-VM capture, and the packing earlier builds did
# --------------------------------------------------------------------- #
def reference_state(svc: PlacementService) -> dict:
    """The service state in the version 1 layout, built one VM and one
    outcome at a time."""
    floor = svc._floor()
    return {
        "consolidator": capture_consolidator_v1(svc.consolidator),
        "pool": svc.pool.capture_state() if svc.pool else None,
        "results": {k: out for k, out in sorted(svc.results.items())
                    if svc._keeps(out, floor)},
        "counters": dict(sorted(svc.counters.items())),
    }


_SPEC = itemgetter("p_on", "p_off", "r_base", "r_extra")


def reference_packing(state: dict) -> dict:
    """A version 1 state as a version 2 file stores it, packed the way
    earlier builds packed it."""
    packed = dict(state)
    vms = state["consolidator"]["vms"]
    spec = pack_column(list(itertools.chain.from_iterable(
        map(_SPEC, vms.values()))), float)
    if spec is not None:
        packed["consolidator"] = {k: v for k, v in state["consolidator"]
                                  .items() if k != "vms"}
        packed["consolidator"]["hosted"] = {
            "id": list(map(int, vms)), "pm": [v["pm"] for v in vms.values()],
            "spec": spec["data"]}
    results = packed.pop("results")
    outs = list(results.values())
    packed["kept"] = {
        "key": list(results), "op": [o["op"] for o in outs],
        "seq": [o["seq"] for o in outs],
        "vm_id": [o.get("vm_id") for o in outs],
        "pm": [o.get("pm") for o in outs],
        "detail": [o.get("reason", o.get("fingerprint")) for o in outs]}
    return packed


def write_checkpoint(path: Path, version: int, state: dict, seq: int,
                     chain: str) -> None:
    Envelope(SERVICE_CHECKPOINT_FORMAT, version,
             error=WALCorruptError).write(
        path, {"wal_seq": seq, "wal_chain": chain, "state": state})


def kernel_view(cons: OnlineConsolidator):
    """The kernel's arrays as bytes, each PM's hosted VMs in order with the
    exact type of every spec value, and the locations in order."""
    kernel = cons.kernel
    if kernel is None:
        return None
    return (
        [(a.dtype.str, a.tobytes())
         for a in (kernel.counts, kernel.base_sums, kernel.max_extras)],
        [[(vm_id, [(type(v), v) for v in dataclasses.astuple(vm)])
          for vm_id, vm in hosted.items()] for hosted in kernel.hosted],
        list(cons._locations.items()))


# --------------------------------------------------------------------- #
# parity on random decision sequences
# --------------------------------------------------------------------- #
def _pool(elastic: bool):
    return (ElasticPMPool(N_PMS, initial_active=3, low_watermark=1,
                          high_watermark=1, patience=2, drain_ticks=1)
            if elastic else None)


def _service(where: Path, elastic: bool, **kwargs) -> PlacementService:
    make = kwargs.pop("make", PlacementService)
    return make([PMSpec(20.0)] * N_PMS, wal_path=where / "wal.jsonl",
                checkpoint_every=4, pool=_pool(elastic), **kwargs)


OPS = st.lists(st.one_of(
    st.tuples(st.just("admit"), st.sampled_from([CALM, BURSTY, INTS])),
    st.tuples(st.just("depart"), st.integers(0, 99)),
    st.tuples(st.just("recalibrate"), st.none()),
    st.tuples(st.just("shed"), st.just(HUGE))), min_size=1, max_size=40)


def _drive(svc: PlacementService, ops) -> None:
    live: list[int] = []
    for i, (op, arg) in enumerate(ops):
        if op in ("admit", "shed"):
            out = svc.submit(f"k{i}", arg) or svc.process_next()
            if out["op"] == "admit":
                live.append(out["vm_id"])
        elif op == "depart" and live:
            svc.depart(f"d{i}", live.pop(arg % len(live)))
        elif op == "recalibrate":
            try:
                svc.recalibrate(f"r{i}")
            except InsufficientCapacityError:  # the fleet no longer fits
                pass


@pytest.mark.parametrize("elastic", [False, True],
                         ids=["static-pool", "elastic-pool"])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_checkpoint_and_recovery_match_the_per_vm_reference(elastic, ops):
    with tempfile.TemporaryDirectory() as d:
        where = Path(d)
        ckpt, v1 = where / "ckpt.json", where / "v1.ckpt.json"
        svc = _service(where, elastic, checkpoint_path=ckpt)
        _drive(svc, ops)
        seq, chain = svc.wal.last_seq, svc.wal.last_chain
        want = reference_state(svc)
        svc.checkpoint()
        write_checkpoint(where / "ref.ckpt.json", SERVICE_CHECKPOINT_VERSION,
                         reference_packing(want), seq, chain)
        assert ckpt.read_bytes() == (where / "ref.ckpt.json").read_bytes()
        assert canonical(svc.capture_state()) == canonical(want)

        reference = OnlineConsolidator([PMSpec(20.0)] * N_PMS, svc.placer)
        restore_consolidator_v1(reference, want["consolidator"])
        write_checkpoint(v1, 1, want, seq, chain)
        assert json.loads(v1.read_bytes())["version"] == 1
        for path in (ckpt, v1):
            back = _service(where, elastic, checkpoint_path=path,
                            make=PlacementService.recover)
            assert back.wal.last_seq == seq
            assert (back.consolidator.state_fingerprint()
                    == reference.state_fingerprint()
                    == svc.consolidator.state_fingerprint())
            assert canonical(back.capture_state()) == canonical(want)
            assert canonical(capture_consolidator_v1(back.consolidator)) \
                == canonical(capture_consolidator_v1(reference))
            assert kernel_view(back.consolidator) == kernel_view(reference)
            assert back.results == svc.results
            back.wal.close()
        svc.wal.close()


# --------------------------------------------------------------------- #
# hosted VMs a restore cannot host
# --------------------------------------------------------------------- #
def _ten_vms(where: Path) -> PlacementService:
    svc = PlacementService([PMSpec(20.0)] * 8, wal_path=where / "wal.jsonl",
                           checkpoint_path=where / "ckpt.json",
                           checkpoint_every=0)
    for j in range(10):
        svc.submit(f"a{j}", CALM)
        svc.drain()
    svc.checkpoint()
    return svc


def _set(column: str, index: int, value):
    def damage(hosted: dict) -> None:
        hosted[column][index] = value(hosted) if callable(value) else value
    return damage


@pytest.mark.parametrize("column, damage", [
    ("hosted.pm", _set("pm", 0, -1)),
    ("hosted.pm", _set("pm", 3, 8)),
    ("hosted.pm", _set("pm", 3, 1.0)),
    ("hosted.id", _set("id", 1, lambda h: h["id"][0])),
    ("hosted.id", _set("id", 9, 10)),
    ("hosted.id", _set("id", 2, "2")),
], ids=["pm-minus-one", "pm-past-the-fleet", "pm-a-float", "id-twice",
        "id-not-below-next-id", "id-a-string"])
def test_recovery_refuses_hosted_vms_it_cannot_host(column, damage,
                                                    tmp_path):
    svc = _ten_vms(tmp_path)
    svc.wal.close()
    path = tmp_path / "ckpt.json"
    payload = json.loads(path.read_bytes())["payload"]
    damage(payload["state"]["consolidator"]["hosted"])
    # sealed with a valid checksum: a writer bug, not bit rot
    write_checkpoint(path, SERVICE_CHECKPOINT_VERSION, payload["state"],
                     payload["wal_seq"], payload["wal_chain"])
    with pytest.raises(WALCorruptError, match=f"column {column}"):
        PlacementService.recover([PMSpec(20.0)] * 8,
                                 wal_path=tmp_path / "wal.jsonl",
                                 checkpoint_path=path)


def test_a_refused_restore_changes_nothing(tmp_path):
    svc = _ten_vms(tmp_path)
    state = svc.consolidator.capture_state()
    before = (svc.consolidator.state_fingerprint(),
              kernel_view(svc.consolidator))
    bad = {**state, "hosted": {**state["hosted"],
                               "pm": [0] * len(state["hosted"]["pm"])}}
    bad["mapping"] = {**bad["mapping"], "d": 4}
    with pytest.raises(ValueError):  # a fingerprint drift, then d = 4
        svc.consolidator.restore_state(bad)
    bad["mapping"] = state["mapping"]
    bad["hosted"]["pm"][0] = 8
    with pytest.raises(ValueError, match="column hosted.pm"):
        svc.consolidator.restore_state(bad)
    assert (svc.consolidator.state_fingerprint(),
            kernel_view(svc.consolidator)) == before
