"""Property test: random admit/depart interleavings keep every invariant.

Satellite contract: drive randomized interleavings of ``admit``/``depart``
through :class:`OnlineConsolidator` (directly and through the durable
service), asserting at every step that reservation state stays coherent,
and at the end that the online packing is within the expected
online-vs-batch gap of a fresh ``admit_batch`` re-pack of the surviving
population (first-fit without departures-driven fragmentation).  The
service's dedupe window is checked after every decision, live and
recovered.
"""

import json

import numpy as np
import pytest

from repro.core.online import OnlineConsolidator
from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.service.service import PlacementService

# same r_extra everywhere so per-PM committed load is exactly
# sum(r_base) + K_count * r_extra — recomputable from first principles
SPECS = [
    VMSpec(p_on=0.10, p_off=0.50, r_base=2.0, r_extra=3.0),
    VMSpec(p_on=0.30, p_off=0.30, r_base=4.0, r_extra=3.0),
    VMSpec(p_on=0.05, p_off=0.60, r_base=1.0, r_extra=3.0),
]
N_PMS = 10
CAPACITY = 24.0
D = 8


def assert_invariants(consolidator):
    """Reservation-state coherence, checked after every operation."""
    mapping = consolidator._mapping
    if mapping is None:  # nothing admitted yet; no state exists to check
        return
    total_hosted = 0
    for j in range(consolidator.n_pms):
        state = consolidator.state_of(j)
        total_hosted += state.count
        assert 0 <= state.count <= D
        assert state.committed <= state.spec.capacity + 1e-9
        if state.count == 0:
            assert state.is_empty
    assert total_hosted == consolidator.n_vms
    hosted = consolidator.hosted_vms()
    assert len(hosted) == consolidator.n_vms
    # per-PM recomputation: base load + Eq. (17) block reservation
    if mapping is not None:
        by_pm = {}
        for vm_id, spec in hosted.items():
            by_pm.setdefault(consolidator.pm_of(vm_id), []).append(spec)
        for j, specs in by_pm.items():
            k = len(specs)
            expect = sum(s.r_base for s in specs) \
                + int(mapping.table[k]) * 3.0
            assert consolidator.state_of(j).committed \
                == pytest.approx(expect)


def random_walk(seed, *, n_ops=120):
    """One randomized interleaving; returns the consolidator afterwards."""
    rng = np.random.RandomState(seed)
    consolidator = OnlineConsolidator([PMSpec(CAPACITY)] * N_PMS,
                                      QueuingFFD(rho=0.01, d=D))
    live = []
    for _ in range(n_ops):
        departing = live and rng.rand() < 0.4
        if departing:
            vm_id = live.pop(rng.randint(len(live)))
            consolidator.depart(vm_id)
        else:
            spec = SPECS[rng.randint(len(SPECS))]
            try:
                vm_id, _ = consolidator.admit(spec)
                live.append(vm_id)
            except Exception:
                pass  # fleet full: a typed rejection, state untouched
        assert_invariants(consolidator)
    return consolidator


@pytest.mark.parametrize("seed", [0, 1, 7, 23, 91])
def test_interleavings_hold_invariants_and_batch_gap(seed):
    online = random_walk(seed)
    hosted = list(online.hosted_vms().values())
    if not hosted:
        return
    batch = OnlineConsolidator([PMSpec(CAPACITY)] * N_PMS,
                               QueuingFFD(rho=0.01, d=D))
    batch.admit_batch(hosted)
    assert_invariants(batch)
    # The two packings need not coincide — the re-pack refits its mapping
    # to the surviving population (different rounded (p_on, p_off) means a
    # different block table), so neither strictly dominates.  What must
    # hold is the first-fit competitiveness gap, in both directions.
    assert online.n_used_pms <= 2 * batch.n_used_pms + 1
    assert batch.n_used_pms <= 2 * online.n_used_pms + 1


@pytest.mark.parametrize("seed", [3, 17])
def test_interleaving_through_the_service_matches_bare_consolidator(
        seed, tmp_path):
    """The durable service is a transparent wrapper: same ops, same state."""
    rng = np.random.RandomState(seed)
    ops = []
    for i in range(60):
        ops.append(("depart", None) if rng.rand() < 0.35
                   else ("admit", SPECS[rng.randint(len(SPECS))]))

    svc = PlacementService([PMSpec(CAPACITY)] * N_PMS,
                           QueuingFFD(rho=0.01, d=D),
                           wal_path=tmp_path / "wal.jsonl")
    bare = OnlineConsolidator([PMSpec(CAPACITY)] * N_PMS,
                              QueuingFFD(rho=0.01, d=D))
    svc_live, bare_live = [], []
    for i, (op, spec) in enumerate(ops):
        if op == "admit":
            svc.submit(f"k{i}", spec)
            svc.drain()
            out = svc.results[f"k{i}"]
            if out["op"] == "admit":
                svc_live.append(out["vm_id"])
            try:
                vm_id, _ = bare.admit(spec)
                bare_live.append(vm_id)
            except Exception:
                pass
        elif svc_live:
            svc.depart(f"d{i}", svc_live.pop(0))
            bare.depart(bare_live.pop(0))
        assert_invariants(svc.consolidator)
    assert svc.consolidator.state_fingerprint() == bare.state_fingerprint()
    # ... and recovery preserves the randomized end state byte-for-byte
    recovered = PlacementService.recover(
        [PMSpec(CAPACITY)] * N_PMS, QueuingFFD(rho=0.01, d=D),
        wal_path=tmp_path / "wal.jsonl")
    assert json.dumps(recovered.capture_state(), sort_keys=True) \
        == json.dumps(svc.capture_state(), sort_keys=True)


def test_dedupe_window_live_and_recovered(tmp_path):
    """A hosted VM's admission key dedupes for as long as the VM is hosted;
    every other key — a shed, a departure, a recalibration, the admission
    of a VM that left — dedupes for W = 4 x checkpoint_every records and
    is decided again after that.  A service recovered from its checkpoint
    plus WAL at any seq answers every key as the live one does."""
    import shutil

    every, window = 2, 8
    pms, placer = [PMSpec(CAPACITY)] * N_PMS, QueuingFFD(rho=0.01, d=D)
    huge = VMSpec(0.1, 0.5, CAPACITY + 1, 3.0)  # fits no PM: always shed

    def service(where, *, recover=False):
        make = PlacementService.recover if recover else PlacementService
        return make(pms, placer, wal_path=where / "wal.jsonl",
                    checkpoint_path=where / "ckpt.json",
                    checkpoint_every=every)

    live = service(tmp_path / "live")
    assert live.dedupe_window == window
    seq_of, vm_of = {}, {}  # key -> newest decision's seq / admitted VM

    def decided(key, out):
        seq_of[key] = out["seq"]
        if out["op"] == "admit":
            vm_of[key] = out["vm_id"]
        check(f"{key}@{out['seq']}")
        return out

    def admit(key, spec=SPECS[0]):
        return decided(key, live.submit(key, spec) or live.process_next())

    def check(step):
        floor = live.wal.last_seq - window
        for key, seq in seq_of.items():
            hosted = key in vm_of and live.consolidator.hosts(vm_of[key])
            assert (live.outcome(key) is not None) == (
                seq > floor or hosted), (step, key)
        where = tmp_path / f"copy-{step}"
        shutil.copytree(tmp_path / "live", where)
        back = service(where, recover=True)
        assert back.wal.last_seq == live.wal.last_seq
        for key in seq_of:
            assert back.outcome(key) == live.outcome(key), (step, key)
        assert back.capture_state() == live.capture_state()
        back.wal.close()

    admit("stay")
    gone = admit("gone")["vm_id"]
    assert admit("huge", huge)["op"] == "shed"
    decided("d-gone", live.depart("d-gone", gone))
    live.recalibrate("r0")
    decided("r0", live.outcome("r0"))
    for i in range(3 * window):  # filler traffic, far past the window
        vm_id = admit(f"f{i}")["vm_id"]
        decided(f"df{i}", live.depart(f"df{i}", vm_id))

    # Past the window only the hosted VM's admission still dedupes.
    last = live.wal.last_seq
    assert live.submit("stay", SPECS[0])["seq"] == seq_of["stay"]
    assert live.wal.last_seq == last
    for key in ("gone", "huge", "d-gone", "r0"):
        assert live.outcome(key) is None
    assert admit("huge", huge)["seq"] == last + 1
    assert admit("gone")["vm_id"] != gone
    live.recalibrate("r0")
    assert decided("r0", live.outcome("r0"))["seq"] == last + 3
    live.wal.close()
