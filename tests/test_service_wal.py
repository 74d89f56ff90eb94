"""Write-ahead log + service checkpoint: format, chaining, torn writes."""

import base64
import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.types import PMSpec, VMSpec
from repro.durable import Envelope, canonical
from repro.placement.base import SHED_REASONS
from repro.service.pool import ElasticPMPool
from repro.service.service import PlacementService
from repro.service.wal import (
    GENESIS_CHAIN,
    SERVICE_CHECKPOINT_FORMAT,
    SERVICE_CHECKPOINT_VERSION,
    WALCorruptError,
    WALError,
    WALRecord,
    WriteAheadLog,
    _pack_state,
    _unpack_state,
    encode_record,
    load_service_checkpoint,
    save_service_checkpoint,
)

FIXTURE = Path(__file__).parent / "data" / "durable_v1" / "service"


def chain_hash(prev_chain, seq, key, op, body):
    """The chain value as the WAL format defines it, spelled out here."""
    return hashlib.sha256(prev_chain.encode() + canonical(
        {"seq": seq, "key": key, "op": op, "body": body})).hexdigest()


@pytest.fixture
def wal_path(tmp_path):
    return tmp_path / "wal.jsonl"


class TestAppendAndScan:
    def test_fresh_log_has_header_and_no_records(self, wal_path):
        wal = WriteAheadLog(wal_path)
        assert wal.last_seq == 0
        assert wal.base_chain == GENESIS_CHAIN
        header = json.loads(wal_path.read_text().splitlines()[0])
        assert header["format"] == "repro-wal"
        assert header["base_seq"] == 0

    def test_append_returns_consecutive_seqs(self, wal_path):
        wal = WriteAheadLog(wal_path)
        seqs = [wal.append("admit", {"pm": i}, key=f"k{i}") for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        assert wal.last_seq == 5

    def test_reopen_round_trips_records(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append("admit", {"pm": 0, "vm_id": 0}, key="a")
        wal.append("depart", {"vm_id": 0}, key="b")
        reopened = WriteAheadLog(wal_path)
        recs = reopened.records()
        assert [(r.seq, r.key, r.op) for r in recs] == [
            (1, "a", "admit"), (2, "b", "depart")]
        assert recs[0].body == {"pm": 0, "vm_id": 0}
        assert reopened.last_chain == wal.last_chain

    def test_chain_links_every_record_to_its_predecessor(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append("admit", {"pm": 0}, key="a")
        wal.append("admit", {"pm": 1}, key="b")
        r1, r2 = wal.records()
        assert r1.chain == chain_hash(GENESIS_CHAIN, 1, "a", "admit",
                                      {"pm": 0})
        assert r2.chain == chain_hash(r1.chain, 2, "b", "admit", {"pm": 1})

    def test_records_after_seq_filters(self, wal_path):
        wal = WriteAheadLog(wal_path)
        for i in range(4):
            wal.append("admit", {}, key=f"k{i}")
        assert [r.seq for r in wal.records(after_seq=2)] == [3, 4]


class TestTornTailAndCorruption:
    def _populate(self, wal_path, n=3):
        wal = WriteAheadLog(wal_path)
        for i in range(n):
            wal.append("admit", {"pm": i}, key=f"k{i}")
        return wal

    def test_torn_tail_is_truncated_and_reported(self, wal_path):
        self._populate(wal_path)
        with open(wal_path, "ab") as fh:
            fh.write(b'{"seq": 4, "chain": "dead')  # kill -9 mid-append
        wal = WriteAheadLog(wal_path)
        assert wal.truncated_tail == 1
        assert wal.last_seq == 3
        # the tail is gone from disk, so appends resume cleanly
        assert wal.append("admit", {"pm": 9}, key="k9") == 4
        assert WriteAheadLog(wal_path).last_seq == 4

    def test_multi_line_garbage_tail_is_still_a_tail(self, wal_path):
        self._populate(wal_path)
        with open(wal_path, "ab") as fh:
            fh.write(b"not json\n{\"half\": tru")
        wal = WriteAheadLog(wal_path)
        assert wal.truncated_tail == 2
        assert wal.last_seq == 3

    def test_midfile_corruption_refuses_to_open(self, wal_path):
        self._populate(wal_path)
        lines = wal_path.read_bytes().splitlines(keepends=True)
        lines[2] = b"garbage\n"  # malformed record *followed by* valid ones
        wal_path.write_bytes(b"".join(lines))
        with pytest.raises(WALCorruptError, match="mid-file"):
            WriteAheadLog(wal_path)

    def test_tampered_record_breaks_the_chain(self, wal_path):
        self._populate(wal_path)
        lines = wal_path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["body"]["pm"] = 7  # bit-flip the journaled outcome
        lines[2] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        wal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WALCorruptError, match="chain mismatch"):
            WriteAheadLog(wal_path)

    def test_seq_gap_refuses_to_open(self, wal_path):
        self._populate(wal_path)
        lines = wal_path.read_text().splitlines()
        del lines[2]  # drop a middle record entirely
        wal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WALCorruptError):
            WriteAheadLog(wal_path)

    def test_wrong_format_or_version_refuses(self, tmp_path):
        other = tmp_path / "other.jsonl"
        other.write_text('{"format": "not-a-wal", "version": 1}\n')
        with pytest.raises(WALCorruptError):
            WriteAheadLog(other)


class TestCompaction:
    def test_compact_drops_prefix_and_rebases(self, wal_path):
        wal = WriteAheadLog(wal_path)
        for i in range(6):
            wal.append("admit", {"pm": i}, key=f"k{i}")
        mid_chain = wal.records()[3].chain
        dropped = wal.compact(base_seq=4, base_chain=mid_chain)
        assert dropped == 4
        assert wal.base_seq == 4
        assert [r.seq for r in wal.records()] == [5, 6]
        # the compacted file reopens and still chains correctly
        reopened = WriteAheadLog(wal_path)
        assert reopened.base_seq == 4
        assert [r.seq for r in reopened.records()] == [5, 6]
        assert reopened.append("admit", {}, key="k7") == 7

    def test_compact_past_the_end_raises(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append("admit", {}, key="a")
        with pytest.raises(WALError, match="cannot compact"):
            wal.compact(base_seq=9, base_chain="x")


class TestServiceCheckpoint:
    STATE = {"consolidator": {"next_id": 3}, "counters": {"admitted": 3}}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_service_checkpoint(path, state=self.STATE, wal_seq=12,
                                wal_chain="ab" * 32)
        payload = load_service_checkpoint(path)
        assert payload["wal_seq"] == 12
        assert payload["wal_chain"] == "ab" * 32
        assert payload["state"] == self.STATE

    def test_bit_rot_fails_the_checksum(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_service_checkpoint(path, state=self.STATE, wal_seq=1,
                                wal_chain="cd" * 32)
        envelope = json.loads(path.read_text())
        envelope["payload"]["wal_seq"] = 999
        path.write_text(json.dumps(envelope))
        with pytest.raises(WALCorruptError, match="checksum"):
            load_service_checkpoint(path)

    def test_wrong_format_refuses(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(WALCorruptError):
            load_service_checkpoint(path)


# --------------------------------------------------------------------- #
# one encoding per record
# --------------------------------------------------------------------- #
JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=16)
BODIES = st.dictionaries(st.text(max_size=8), JSON, max_size=5)
WORDS = st.text() | st.sampled_from(['"', '\\"q', "ρ·é", "admit"])


def reference_line(seq, key, op, body, chain):
    return canonical(vars(WALRecord(seq=seq, key=key, op=op, body=body,
                                    chain=chain))) + b"\n"


class TestEncodeRecord:
    @given(prev=st.text("0123456789abcdef", min_size=64, max_size=64),
           seq=st.integers(1, 2**53), key=WORDS, op=WORDS, body=BODIES)
    def test_chain_and_line_match_the_reference(self, prev, seq, key, op,
                                                body):
        chain = chain_hash(prev, seq, key, op, body)
        assert encode_record(prev, seq, key, op, body) == (
            chain, reference_line(seq, key, op, body, chain))

    @settings(max_examples=25, deadline=None)
    @given(records=st.lists(st.tuples(WORDS, WORDS, BODIES), min_size=1,
                            max_size=4))
    def test_the_log_holds_the_reference_lines(self, records):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "wal.jsonl"
            wal = WriteAheadLog(path)
            want, chain = [path.read_bytes()], GENESIS_CHAIN
            for seq, (key, op, body) in enumerate(records, 1):
                wal.append(op, body, key=key)
                chain = chain_hash(chain, seq, key, op, body)
                want.append(reference_line(seq, key, op, body, chain))
            wal.close()
            assert path.read_bytes() == b"".join(want)
            assert WriteAheadLog(path).last_chain == chain


# --------------------------------------------------------------------- #
# the columnar (version 2) service checkpoint
# --------------------------------------------------------------------- #
CALM = VMSpec(p_on=0.1, p_off=0.5, r_base=2.0, r_extra=3.0)
BURSTY = VMSpec(p_on=0.45, p_off=0.05, r_base=2.0, r_extra=3.0)
HUGE = VMSpec(p_on=0.1, p_off=0.5, r_base=50.0, r_extra=1.0)  # fits no PM
OPS = {"admit", "shed", "depart", "recalibrate", "recalibrate_noop"}


def _service(d: Path, *, pool: bool) -> PlacementService:
    return PlacementService(
        [PMSpec(20.0)] * 4, wal_path=d / "wal.jsonl",
        checkpoint_path=d / "ckpt.json", checkpoint_every=0,
        pool=ElasticPMPool(4, initial_active=3, low_watermark=1,
                           high_watermark=1, patience=2, drain_ticks=1)
        if pool else None)


def _every_op(svc: PlacementService) -> PlacementService:
    for j, vm in enumerate((CALM, CALM, BURSTY, BURSTY, HUGE)):
        svc.submit(f"a{j}", vm)
        svc.drain()
    for j in range(2):
        svc.depart(f"d{j}", svc.results[f"a{j}"]["vm_id"])
    svc.recalibrate("r0")  # all bursty now: a real refit
    svc.recalibrate("r1")  # the same population: a no-op
    assert {o["op"] for o in svc.results.values()} == OPS
    return svc


_CAPTURED: dict = {}


def captured(kind: str) -> dict:
    """A live service's captured state: an empty fleet, or every op on a
    static or an elastic fleet."""
    if kind not in _CAPTURED:
        with tempfile.TemporaryDirectory() as d:
            svc = _service(Path(d), pool=kind == "pool")
            if kind != "empty":
                _every_op(svc)
            _CAPTURED[kind] = svc.capture_state()
            svc.wal.close()
    return _CAPTURED[kind]


SPEC_FLOATS = st.sampled_from(
    [5e-324, -0.0, 0.0, 1e308, 0.1 + 0.2, 1 / 3, 1.7976931348623157e308,
     2.2250738585072014e-308, 0.12345678901234568]) \
    | st.floats(allow_nan=False, allow_infinity=False)
SEQS = st.integers(0, 2**40)
OUTCOMES = st.one_of(
    st.builds(lambda op, vm_id, pm, seq: {"op": op, "vm_id": vm_id,
                                          "pm": pm, "seq": seq},
              st.sampled_from(["admit", "depart"]), st.integers(0, 10**6),
              st.integers(0, 255), SEQS),
    st.builds(lambda reason, seq: {"op": "shed", "reason": reason,
                                   "seq": seq},
              st.sampled_from(sorted(SHED_REASONS)), SEQS),
    st.builds(lambda fp, seq: {"op": "recalibrate", "seq": seq,
                               "fingerprint": fp},
              st.text("0123456789abcdef", min_size=12, max_size=12), SEQS),
    st.builds(lambda seq: {"op": "recalibrate_noop", "seq": seq}, SEQS))


@st.composite
def captured_states(draw, spec=SPEC_FLOATS):
    """A live service's captured state, its hosted VMs and kept outcomes
    replaced by drawn ones (or kept as they are)."""
    state = captured(draw(st.sampled_from(["empty", "static", "pool"])))
    if draw(st.booleans()):
        vms = draw(st.dictionaries(
            st.integers(0, 10**9).map(str),
            st.fixed_dictionaries({"pm": st.integers(0, 255), "p_on": spec,
                                   "p_off": spec, "r_base": spec,
                                   "r_extra": spec}), max_size=12))
        state = {**state, "consolidator": {**state["consolidator"],
                                           "vms": vms}}
    if draw(st.booleans()):
        state = {**state, "results": draw(st.dictionaries(
            WORDS, OUTCOMES, max_size=12))}
    return state


def _round_trip(state: dict) -> dict:
    """A version 1 state through the file and back, in columns both ways."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "ckpt.json"
        save_service_checkpoint(path, state=_pack_state(state), wal_seq=7,
                                wal_chain="ef" * 32)
        payload = load_service_checkpoint(path)
    assert (payload["wal_seq"], payload["wal_chain"]) == (7, "ef" * 32)
    return _unpack_state(payload["state"])


class TestColumnarCheckpoint:
    # the first draw of each kind runs a live service (fsync'd appends)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(state=captured_states())
    def test_captured_states_round_trip_bit_exact(self, state):
        back = _round_trip(state)
        assert back == state
        assert canonical(back) == canonical(state)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(state=captured_states(
        spec=st.integers(0, 9) | st.booleans() | SPEC_FLOATS))
    def test_specs_that_are_not_all_floats_keep_their_type(self, state):
        # an int spec stored as float64 would read back as 2.0, not 2
        assert canonical(_round_trip(state)) == canonical(state)

    @pytest.mark.parametrize("kind", ["empty", "static", "pool"])
    def test_a_live_checkpoint_loads_its_captured_state(self, kind,
                                                        tmp_path):
        svc = _service(tmp_path, pool=kind == "pool")
        if kind != "empty":
            _every_op(svc)
        svc.checkpoint()
        assert _unpack_state(load_service_checkpoint(
            tmp_path / "ckpt.json")["state"]) == svc.capture_state()

    def test_the_file_stores_columns_and_float64_bytes(self, tmp_path):
        state = captured("static")
        path = tmp_path / "ckpt.json"
        save_service_checkpoint(path, state=_pack_state(state), wal_seq=1,
                                wal_chain="ab" * 32)
        raw = json.loads(path.read_bytes())
        assert raw["version"] == SERVICE_CHECKPOINT_VERSION == 2
        stored = raw["payload"]["state"]
        vms = state["consolidator"]["vms"]
        hosted = stored["consolidator"]["hosted"]
        assert "vms" not in stored["consolidator"]
        assert hosted["id"] == [int(k) for k in vms]
        assert hosted["pm"] == [v["pm"] for v in vms.values()]
        assert base64.b64decode(hosted["spec"]) == np.array(
            [[v[f] for f in ("p_on", "p_off", "r_base", "r_extra")]
             for v in vms.values()], dtype="<f8").tobytes()
        kept = stored["kept"]
        assert "results" not in stored
        assert kept["key"] == list(state["results"])
        assert set(kept["op"]) == OPS
        assert len({len(col) for col in kept.values()}) == 1

    @pytest.mark.parametrize("field, damage", [
        ("kept.pm", lambda s: s["kept"]["pm"].pop()),
        ("kept.seq", lambda s: s["kept"]["seq"].append(9)),
        ("kept.detail", lambda s: s["kept"].pop("detail")),
        ("kept.op", lambda s: s["kept"]["op"].__setitem__(0, "teleport")),
        ("hosted.pm", lambda s: s["consolidator"]["hosted"]["pm"].append(0)),
        ("hosted.id", lambda s: s["consolidator"]["hosted"].pop("id")),
        ("hosted.spec", lambda s: s["consolidator"]["hosted"].update(
            spec=base64.b64encode(base64.b64decode(
                s["consolidator"]["hosted"]["spec"])[:-8]).decode())),
        ("hosted.spec", lambda s: s["consolidator"]["hosted"].update(
            spec="*not base64*")),
    ], ids=["kept.pm-short", "kept.seq-long", "kept.detail-missing",
            "kept.op-unknown", "hosted.pm-long", "hosted.id-missing",
            "hosted.spec-31-bytes-a-vm", "hosted.spec-not-base64"])
    def test_columns_that_do_not_fit_are_refused_by_name(self, field, damage,
                                                         tmp_path):
        path = tmp_path / "ckpt.json"
        save_service_checkpoint(path, state=_pack_state(captured("static")),
                                wal_seq=1, wal_chain="ab" * 32)
        payload = json.loads(path.read_bytes())["payload"]
        damage(payload["state"])
        # sealed with a valid checksum: a writer bug, not bit rot
        Envelope(SERVICE_CHECKPOINT_FORMAT, SERVICE_CHECKPOINT_VERSION,
                 error=WALCorruptError).write(path, payload)
        with pytest.raises(WALCorruptError, match=f"column {field}"):
            load_service_checkpoint(path)

    def test_a_v1_service_checkpoints_as_v2_and_recovers_from_it(
            self, tmp_path):
        shutil.copytree(FIXTURE, tmp_path / "service")
        ckpt = tmp_path / "service" / "ckpt.json"
        kwargs = dict(wal_path=tmp_path / "service" / "wal.jsonl",
                      checkpoint_path=ckpt, checkpoint_every=6)
        assert json.loads(ckpt.read_bytes())["version"] == 1
        svc = PlacementService.recover([PMSpec(20.0)] * 4, **kwargs)
        for j in range(3):  # seq 12 is the next checkpoint
            svc.submit(f"next{j}", CALM)
            svc.drain()
        raw = json.loads(ckpt.read_bytes())
        assert raw["version"] == 2 and raw["payload"]["wal_seq"] == 12
        assert "hosted" in raw["payload"]["state"]["consolidator"]
        back = PlacementService.recover([PMSpec(20.0)] * 4, **kwargs)
        assert back.consolidator.state_fingerprint() \
            == svc.consolidator.state_fingerprint()
        assert back.capture_state() == svc.capture_state()
