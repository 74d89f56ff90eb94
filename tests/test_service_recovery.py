"""Crash recovery: checkpoint + WAL replay reconstructs identical state.

The central drill kills the service (an exception from the chaos hook
stands in for ``kill -9``; the on-disk artifacts are identical) at
*every* journal-then-apply phase of *every* decision in a scripted
workload — admissions, sheds, departures, recalibrations, autoscale,
checkpoint compaction — then recovers from disk, finishes the workload,
and asserts the final state, journal and checkpoint are byte-identical to
an uninterrupted run's.
"""

import json
import logging

import numpy as np
import pytest

from repro.core.online import OnlineConsolidator
from repro.core.types import PMSpec, VMSpec
from repro.service.pool import ElasticPMPool
from repro.service.service import PlacementService
from repro.service.wal import (
    WALError,
    WriteAheadLog,
    _unpack_state,
    load_service_checkpoint,
)
from repro.telemetry import RingBufferSink, Telemetry, WALReplayed

# Calm and bursty populations: departing the calm one and recalibrating
# forces a genuine (journaled) mapping change mid-workload.
CALM = VMSpec(p_on=0.1, p_off=0.5, r_base=2.0, r_extra=3.0)
BURSTY = VMSpec(p_on=0.45, p_off=0.05, r_base=2.0, r_extra=3.0)


class Killed(RuntimeError):
    """Stands in for kill -9 at an exact journal phase."""


def make_service(tmp_path, *, elastic=False, chaos_hook=None, telemetry=None):
    pool = None
    if elastic:
        pool = ElasticPMPool(4, initial_active=3, low_watermark=1,
                             high_watermark=1, patience=2, drain_ticks=1)
    return PlacementService(
        [PMSpec(20.0)] * 4,
        wal_path=tmp_path / "wal.jsonl",
        checkpoint_path=tmp_path / "ckpt.json",
        checkpoint_every=6, pool=pool, chaos_hook=chaos_hook,
        telemetry=telemetry)


def recover_service(tmp_path, *, elastic=False, telemetry=None):
    pool = None
    if elastic:
        pool = ElasticPMPool(4, initial_active=3, low_watermark=1,
                             high_watermark=1, patience=2, drain_ticks=1)
    return PlacementService.recover(
        [PMSpec(20.0)] * 4, wal_path=tmp_path / "wal.jsonl",
        checkpoint_path=tmp_path / "ckpt.json",
        checkpoint_every=6, pool=pool, telemetry=telemetry)


def drive(svc):
    """The scripted workload; idempotent keys make re-runs resume."""
    for j in range(3):
        svc.submit(f"a{j}", CALM)
        svc.drain()
    for j in range(3):
        svc.submit(f"b{j}", BURSTY, "critical")
        svc.drain()
    for key in ("a0", "a1", "a2"):
        out = svc.results[key]
        if out["op"] == "admit":
            svc.depart(f"d-{key}", out["vm_id"])
    svc.recalibrate("recal-1")  # population now all-bursty: real refit
    for j in range(3, 6):
        svc.submit(f"b{j}", BURSTY)
        svc.drain()
    svc.recalibrate("recal-2")  # same population: journaled no-op


def canonical(svc):
    return json.dumps(svc.capture_state(), sort_keys=True,
                      separators=(",", ":"))


def chaos_points(tmp_path, *, elastic):
    """Every (phase, seq) the uninterrupted workload passes through."""
    points = []
    svc = make_service(tmp_path, elastic=elastic,
                       chaos_hook=lambda ph, seq: points.append((ph, seq)))
    drive(svc)
    return points, canonical(svc)


@pytest.mark.parametrize("elastic", [False, True],
                         ids=["static-pool", "elastic-pool"])
def test_kill_at_every_phase_recovers_byte_identical(tmp_path, elastic):
    reference_dir = tmp_path / "ref"
    points, want = chaos_points(reference_dir, elastic=elastic)
    phases_hit = {ph for ph, _ in points}
    assert phases_hit == {"appended", "applied", "checkpointed"}

    for i, (phase, seq) in enumerate(points):
        workdir = tmp_path / f"kill-{i}"

        def bomb(ph, s, _target=(phase, seq)):
            if (ph, s) == _target:
                raise Killed(f"kill at {ph} seq {s}")

        svc = make_service(workdir, elastic=elastic, chaos_hook=bomb)
        with pytest.raises(Killed):
            drive(svc)
        del svc  # in-memory state is gone; disk is all that survives
        recovered = recover_service(workdir, elastic=elastic)
        drive(recovered)  # resume by idempotency key
        assert canonical(recovered) == want, \
            f"divergence after kill at {phase} seq {seq}"
        # ... on the uninterrupted checkpoint cadence: a kill at the record
        # that triggers a checkpoint, or between a checkpoint and its
        # compaction, still leaves the same journal and checkpoint bytes
        for name in ("wal.jsonl", "ckpt.json"):
            assert (workdir / name).read_bytes() \
                == (reference_dir / name).read_bytes(), \
                f"{name} differs after kill at {phase} seq {seq}"


def test_crash_between_refit_and_first_postrefit_admit(tmp_path):
    """The recalibration satellite: the refit is journaled (applied), the
    crash lands before any post-refit admission; replay must rebuild the
    *new* mapping and the next admission must be placed under it."""
    ref_dir = tmp_path / "ref"
    ref = make_service(ref_dir)
    drive(ref)
    want = canonical(ref)
    recal_seq = ref.results["recal-1"]["seq"]

    workdir = tmp_path / "crash"

    def bomb(ph, seq):
        if (ph, seq) == ("applied", recal_seq):
            raise Killed("crash after refit applied, before next admit")

    svc = make_service(workdir, chaos_hook=bomb)
    with pytest.raises(Killed):
        drive(svc)
    recovered = recover_service(workdir)
    # the refit survived the crash: mapping matches the reference service
    assert recovered.consolidator._mapping.p_on == \
        ref.consolidator._mapping.p_on
    drive(recovered)
    assert canonical(recovered) == want


def test_recovery_emits_wal_replayed(tmp_path):
    svc = make_service(tmp_path)
    drive(svc)
    sink = RingBufferSink()
    recovered = recover_service(tmp_path, telemetry=Telemetry(sink))
    replays = [e for e in sink.events if isinstance(e, WALReplayed)]
    assert len(replays) == 1
    ev = replays[0]
    assert ev.records == recovered.wal.last_seq - ev.checkpoint_seq
    assert ev.truncated_tail == 0
    assert ev.fingerprint == recovered.consolidator.state_fingerprint()


@pytest.mark.parametrize("reader, calls", [
    ("quiet", 0), ("events", 1), ("info", 1)])
def test_recovery_fingerprints_the_state_only_for_a_reader(
        reader, calls, tmp_path, monkeypatch, caplog):
    drive(make_service(tmp_path))
    seen = []
    fingerprint = OnlineConsolidator.state_fingerprint
    monkeypatch.setattr(OnlineConsolidator, "state_fingerprint",
                        lambda self: seen.append(1) or fingerprint(self))
    caplog.set_level(logging.INFO if reader == "info" else logging.WARNING,
                     logger="repro.service.service")
    recover_service(tmp_path, telemetry=(Telemetry(RingBufferSink())
                                         if reader == "events" else None))
    assert len(seen) == calls


def test_checkpoint_compaction_shortens_replay(tmp_path):
    svc = make_service(tmp_path)
    drive(svc)
    svc.checkpoint()  # absorb everything; wal_lag drops to zero
    assert svc.wal_lag == 0
    want = canonical(svc)
    sink = RingBufferSink()
    recovered = recover_service(tmp_path, telemetry=Telemetry(sink))
    assert canonical(recovered) == want
    ev = next(e for e in sink.events if isinstance(e, WALReplayed))
    assert ev.records == 0  # the checkpoint carried all of it

    # ... and the service keeps working after a checkpoint-based recovery
    recovered.submit("post-ckpt", BURSTY)
    recovered.drain()
    assert recovered.results["post-ckpt"]["op"] in ("admit", "shed")


def test_torn_wal_tail_recovers_and_resumes(tmp_path):
    svc = make_service(tmp_path)
    drive(svc)
    want = canonical(svc)
    with open(tmp_path / "wal.jsonl", "ab") as fh:
        fh.write(b'{"seq": 999, "chain": "dead')  # torn final append
    sink = RingBufferSink()
    recovered = recover_service(tmp_path, telemetry=Telemetry(sink))
    ev = next(e for e in sink.events if isinstance(e, WALReplayed))
    assert ev.truncated_tail == 1
    assert canonical(recovered) == want


def test_checkpoint_ahead_of_wal_is_rejected(tmp_path):
    svc = make_service(tmp_path)
    drive(svc)
    svc.checkpoint()
    # swap in an older (shorter) journal than the checkpoint expects
    wal_path = tmp_path / "wal.jsonl"
    wal_path.unlink()
    WriteAheadLog(wal_path)  # fresh log at base_seq 0
    with pytest.raises(WALError, match="ahead of the WAL end"):
        recover_service(tmp_path)


def test_decided_keys_do_not_rejournal_on_resubmit(tmp_path):
    svc = make_service(tmp_path)
    drive(svc)
    recovered = recover_service(tmp_path)
    seq_before = recovered.wal.last_seq
    requests_before = recovered.counters["requests"]
    drive(recovered)  # every key already decided
    assert recovered.wal.last_seq == seq_before
    assert recovered.counters["requests"] == requests_before


def test_replay_rejects_divergent_vm_ids(tmp_path):
    # no checkpointing: recovery must replay the (tampered) log in full
    svc = PlacementService([PMSpec(20.0)] * 4,
                           wal_path=tmp_path / "wal.jsonl",
                           checkpoint_every=0)
    drive(svc)
    # tamper: rebuild the log with an admit record whose vm_id skips ahead,
    # re-chaining so only the semantic check can catch it
    old = WriteAheadLog(tmp_path / "wal.jsonl")
    records = old.records()
    (tmp_path / "wal.jsonl").unlink()
    fresh = WriteAheadLog(tmp_path / "wal.jsonl")
    for rec in records:
        body = dict(rec.body)
        if rec.op == "admit" and body["vm_id"] == 2:
            body["vm_id"] = 7
        fresh.append(rec.op, body, key=rec.key)
    with pytest.raises(ValueError, match="divergent"):
        PlacementService.recover([PMSpec(20.0)] * 4,
                                 wal_path=tmp_path / "wal.jsonl")


def test_refused_recalibration_is_not_journaled(tmp_path):
    """A refit the live reservations do not fit raises before the WAL
    append and before any PM changes table; recovery still works."""
    from repro.core.queuing_ffd import QueuingFFD
    from repro.placement.base import InsufficientCapacityError

    pms = [PMSpec(20.0)] * 4
    svc = PlacementService(pms, QueuingFFD(rho=0.01, d=8),
                           wal_path=tmp_path / "wal.jsonl",
                           checkpoint_path=tmp_path / "ckpt.json")
    for j in range(6):
        svc.submit(f"calm{j}", VMSpec(0.01, 0.5, 2.0, 3.0))
    for j in range(12):
        svc.submit(f"bursty{j}", VMSpec(0.5, 0.05, 0.5, 0.5))
    svc.drain()
    old_table = svc.consolidator.state_of(0).mapping.table.tolist()
    fingerprint = svc.consolidator.state_fingerprint()
    with pytest.raises(InsufficientCapacityError):
        svc.recalibrate("r0")
    assert all(rec.op != "recalibrate" for rec in svc.wal.records())
    assert all(svc.consolidator.state_of(i).mapping.table.tolist()
               == old_table for i in range(len(pms)))
    assert svc.consolidator.state_fingerprint() == fingerprint
    recovered = PlacementService.recover(
        pms, QueuingFFD(rho=0.01, d=8), wal_path=tmp_path / "wal.jsonl",
        checkpoint_path=tmp_path / "ckpt.json")
    assert recovered.consolidator.state_fingerprint() == fingerprint


def test_recovered_service_decides_like_the_uninterrupted_one(tmp_path):
    """A departure leaves the live base sum equal to the one a restore
    rebuilds, so a boundary arrival gets the same outcome on both."""
    def service(where):
        return PlacementService([PMSpec(50.0)], wal_path=where / "wal.jsonl",
                                checkpoint_path=where / "ckpt.json")

    live = service(tmp_path)
    for j, r_base in enumerate((2.37, 2.4, 0.97)):
        live.submit(f"a{j}", VMSpec(0.01, 0.09, r_base, 1.0))
    live.drain()
    live.depart("d1", 1)
    live.checkpoint()
    recovered = PlacementService.recover(
        [PMSpec(50.0)], wal_path=tmp_path / "wal.jsonl",
        checkpoint_path=tmp_path / "ckpt.json")
    boundary = VMSpec(0.01, 0.09, 44.660000001, 1.0)
    outcomes = []
    for svc in (live, recovered):
        svc.submit("boundary", boundary)
        svc.drain()
        outcomes.append(svc.results["boundary"]["op"])
    assert outcomes[0] == outcomes[1]
    assert (recovered.consolidator.state_fingerprint()
            == live.consolidator.state_fingerprint())


def test_durable_state_stays_bounded_in_a_long_run(tmp_path):
    """3,000 decisions around 20 hosted VMs: every checkpoint keeps at most
    the hosted VMs' admissions plus the window's outcomes, and the last
    checkpoint is no larger than the one at the midpoint (within 20%)."""
    from repro.core.queuing_ffd import QueuingFFD

    every, n_decisions = 16, 3000
    window = 4 * every
    sizes = {}

    def at_checkpoint(phase, seq):
        if phase != "checkpointed":
            return
        state = _unpack_state(
            load_service_checkpoint(tmp_path / "ckpt.json")["state"])
        hosted = svc.consolidator.n_vms
        assert len(state["results"]) <= hosted + window, (seq, hosted)
        assert svc.results == state["results"]  # memory is trimmed too
        sizes[seq] = (tmp_path / "ckpt.json").stat().st_size

    svc = PlacementService(
        [PMSpec(20.0)] * 8, QueuingFFD(rho=0.01, d=8),
        wal_path=tmp_path / "wal.jsonl",
        checkpoint_path=tmp_path / "ckpt.json",
        checkpoint_every=every, chaos_hook=at_checkpoint)
    assert svc.dedupe_window == window
    rng = np.random.RandomState(5)
    live = []
    for i in range(n_decisions):
        # departing with probability hosted/40 holds about 20 VMs hosted
        if live and rng.rand() < len(live) / 40:
            vm_id = live.pop(rng.randint(len(live)))
            svc.depart(f"d{i}", vm_id)
        else:
            svc.submit(f"a{i}", CALM)
            out = svc.process_next()
            if out["op"] == "admit":
                live.append(out["vm_id"])
    svc.wal.close()
    assert svc.wal.last_seq == n_decisions
    assert len(sizes) == n_decisions // every
    seqs = sorted(sizes)
    mid = seqs[len(seqs) // 2]
    assert sizes[seqs[-1]] <= 1.2 * sizes[mid], (sizes[mid], sizes[seqs[-1]])
