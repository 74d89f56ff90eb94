"""The durable-storage primitive and every file written through it.

:mod:`repro.durable` is the one place the program writes files that must
survive a crash.  This suite checks the primitive, then injects a fault
at each step of each durable writer -- the write, the file fsync, the
rename and the directory fsync -- by standing a proxy in for the module's
``os``.  After each fault the target must hold the old or the new bytes,
no temp file may be left behind, and the writer's own loader must accept
what is there.  Files written by the previous build, kept under
``tests/data/durable_v1/``, must still load.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import re
import resource
import shutil
import stat
import struct
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any, Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.experiments.durability import (
    BenchRetryPolicy,
    JobJournal,
    run_durable_bench,
)
from repro.service.service import PlacementService
from repro.service.wal import WALCorruptError, WriteAheadLog
from repro.simulation import Scenario, load_checkpoint, restore_checkpoint
from repro.simulation.checkpoint import (
    CheckpointError,
    CheckpointRetention,
    canonical_state_bytes,
    save_checkpoint,
)
from repro.telemetry import BenchJobFinished
from tests.helpers import retained_checkpoints

FIXTURES = Path(__file__).parent / "data" / "durable_v1"
OPS = ("write", "fsync", "rename", "fsync_dir")
FAST_RETRY = BenchRetryPolicy(base_backoff_seconds=0.02,
                              max_backoff_seconds=0.08, max_attempts=3)
CALM = VMSpec(p_on=0.1, p_off=0.5, r_base=2.0, r_extra=3.0)
BURSTY = VMSpec(p_on=0.45, p_off=0.05, r_base=2.0, r_extra=3.0)


def durable():
    """The module under test, imported late: the call-order test patches
    only ``os``, so it also runs (and fails) against a build without it."""
    import repro.durable

    return repro.durable


# --------------------------------------------------------------------- #
# fault injection
# --------------------------------------------------------------------- #
class InjectedFault(OSError):
    """An I/O error raised on purpose at one step of a durable write."""


class FaultyOS:
    """Stands in for ``os`` inside :mod:`repro.durable`.

    Fails ``op`` the first time it happens to ``target``: ``"write"`` and
    ``"fsync"`` on a temp file of the target or on the target itself (a
    journal append), ``"rename"`` onto the target, and ``"fsync_dir"`` of
    the directory fsync that follows that rename.  A failed write first
    writes half its bytes, as a crash mid-write would.
    """

    def __init__(self, target: Path, op: str):
        self.target, self.op = Path(target), op
        self.fired = False
        self._temp_fds: set[int] = set()
        self._renamed = False

    def __getattr__(self, name: str) -> Any:
        return getattr(os, name)

    def _is_temp(self, path) -> bool:
        path = Path(path)
        return (path.parent == self.target.parent
                and path.name.startswith(f".{self.target.name}."))

    def _writes_target(self, fd: int) -> bool:
        if fd in self._temp_fds:
            return True
        try:
            st = os.stat(self.target)
        except OSError:
            return False
        here = os.fstat(fd)
        return (here.st_dev, here.st_ino) == (st.st_dev, st.st_ino)

    def _fire(self, op: str) -> bool:
        if op != self.op or self.fired:
            return False
        self.fired = True
        return True

    def open(self, path, flags, mode=0o777):
        fd = os.open(path, flags, mode)
        if self._is_temp(path):
            self._temp_fds.add(fd)
        return fd

    def close(self, fd):
        self._temp_fds.discard(fd)
        os.close(fd)

    def write(self, fd, data):
        if self._writes_target(fd) and self._fire("write"):
            os.write(fd, bytes(data[:len(data) // 2]))
            raise InjectedFault("injected fault: write")
        return os.write(fd, data)

    def fsync(self, fd):
        if self._writes_target(fd) and self._fire("fsync"):
            raise InjectedFault("injected fault: fsync")
        if self._renamed and stat.S_ISDIR(os.fstat(fd).st_mode):
            self._renamed = False
            if self._fire("fsync_dir"):
                raise InjectedFault("injected fault: directory fsync")
        os.fsync(fd)

    def replace(self, src, dst):
        if Path(dst) == self.target and self._is_temp(src):
            if self._fire("rename"):
                raise InjectedFault("injected fault: rename")
            self._renamed = True
        os.replace(src, dst)


def _temp_files(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir()
                  if p.name.endswith(".tmp"))


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


# --------------------------------------------------------------------- #
# every durable writer: old state, the write, the caller's loader
# --------------------------------------------------------------------- #
@dataclass
class Writer:
    target: Path
    act: Callable[[], Any]
    load: Callable[[], Any]


def _run(ticks: int):
    vms = [VMSpec(0.2, 0.3, 8.0, 30.0), VMSpec(0.1, 0.4, 6.0, 40.0),
           VMSpec(0.3, 0.2, 10.0, 25.0), VMSpec(0.25, 0.5, 5.0, 35.0)]
    run = Scenario(vms, [PMSpec(80.0)] * 2, placer=QueuingFFD(rho=0.4, d=16),
                   tick_mode="vectorized").start(seed=3)
    run.advance(ticks)
    run.close()
    return run


def simulation_checkpoint(d: Path) -> Writer:
    path = d / "run.ckpt.json"
    save_checkpoint(_run(4), path)
    return Writer(path, lambda: save_checkpoint(_run(8), path),
                  lambda: load_checkpoint(path)["state"]["time"])


def retention_index(d: Path) -> Writer:
    CheckpointRetention(d, keep=2).save(_run(4))
    return Writer(
        d / CheckpointRetention.INDEX_NAME,
        lambda: CheckpointRetention(d, keep=2).save(_run(8)),
        lambda: load_checkpoint(retained_checkpoints(d)[-1])["state"]["time"])


def _service(d: Path, target: str) -> Writer:
    """A service with one checkpoint behind it; the act checkpoints again."""
    pms = [PMSpec(20.0)] * 4
    paths = {"wal_path": d / "wal.jsonl", "checkpoint_path": d / "ckpt.json"}
    svc = PlacementService(pms, checkpoint_every=0, **paths)
    for i, vm in enumerate((CALM, BURSTY)):
        svc.submit(f"a{i}", vm)
        svc.drain()
    svc.checkpoint()
    for i, vm in enumerate((BURSTY, CALM)):
        svc.submit(f"b{i}", vm)
        svc.drain()
    live = svc.consolidator.state_fingerprint()

    def load():
        back = PlacementService.recover(pms, checkpoint_every=0, **paths)
        assert back.consolidator.state_fingerprint() == live
        return live

    return Writer(paths[target], svc.checkpoint, load)


def service_checkpoint(d: Path) -> Writer:
    return _service(d, "checkpoint_path")


def wal_compaction(d: Path) -> Writer:
    return _service(d, "wal_path")


def wal_creation(d: Path) -> Writer:
    path = d / "wal.jsonl"
    d.mkdir(parents=True, exist_ok=True)
    return Writer(path, lambda: WriteAheadLog(path),
                  lambda: WriteAheadLog(path).last_seq)


def bench_table(d: Path) -> Writer:
    def resume():
        report = run_durable_bench(output_dir=d, resume=True, parallel=1,
                                   retry=FAST_RETRY)
        assert [r.ok for r in report.results] == [True]

    return Writer(d / "table1.txt",
                  lambda: run_durable_bench("table1", parallel=1,
                                            output_dir=d, retry=FAST_RETRY),
                  resume)


WRITERS = {
    "simulation_checkpoint": simulation_checkpoint,
    "retention_index": retention_index,
    "service_checkpoint": service_checkpoint,
    "wal_creation": wal_creation,
    "wal_compaction": wal_compaction,
    "bench_table": bench_table,
}


@pytest.fixture(scope="module")
def new_bytes(tmp_path_factory):
    """The bytes each writer leaves when nothing fails (computed once)."""
    cache: dict[str, bytes] = {}

    def get(name: str) -> bytes:
        if name not in cache:
            writer = WRITERS[name](tmp_path_factory.mktemp(name))
            writer.act()
            cache[name] = writer.target.read_bytes()
        return cache[name]

    return get


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("name", sorted(WRITERS))
def test_a_fault_leaves_old_or_new_bytes_and_a_loadable_file(
        name, op, tmp_path, monkeypatch, new_bytes):
    new = new_bytes(name)
    writer = WRITERS[name](tmp_path / "d")
    old = _read(writer.target)
    faulty = FaultyOS(writer.target, op)
    monkeypatch.setattr(durable(), "os", faulty)
    try:
        writer.act()
    except InjectedFault:
        pass
    monkeypatch.setattr(durable(), "os", os)
    assert faulty.fired
    # before the rename the old bytes stay; after it the new ones are there
    assert _read(writer.target) == (new if op == "fsync_dir" else old)
    assert _temp_files(writer.target.parent) == []
    writer.load()


@pytest.mark.parametrize("op", OPS)
def test_a_fault_in_a_workers_result_write_is_retried(op, tmp_path,
                                                      monkeypatch):
    run_dir = tmp_path / "run"
    work = run_dir / ".work"
    # the worker is forked, so it inherits the proxy
    monkeypatch.setattr(durable(), "os",
                        FaultyOS(work / "res_table1_1.json", op))
    report = run_durable_bench("table1", parallel=1, output_dir=run_dir,
                               retry=FAST_RETRY)
    monkeypatch.setattr(durable(), "os", os)
    assert [r.ok for r in report.results] == [True]
    # a rename that happened delivers the result even though the worker
    # then died; any earlier fault costs one retry
    assert report.retried == (0 if op == "fsync_dir" else 1)
    assert _temp_files(work) == []
    resumed = run_durable_bench(output_dir=run_dir, resume=True, parallel=1)
    assert resumed.restored == ["table1"]


# --------------------------------------------------------------------- #
# call order: every rename is made durable before the next one
# --------------------------------------------------------------------- #
class RenameLog:
    """Records renames and directory fsyncs made through ``os``."""

    def __init__(self, monkeypatch):
        self.events: list[tuple[str, Any]] = []
        real_replace, real_fsync = os.replace, os.fsync

        def replace(src, dst):
            real_replace(src, dst)
            self.events.append(("rename", Path(dst)))

        def fsync(fd):
            real_fsync(fd)
            st = os.fstat(fd)
            if stat.S_ISDIR(st.st_mode):
                self.events.append(("fsync_dir", (st.st_dev, st.st_ino)))

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "fsync", fsync)

    def durable_renames(self) -> list[Path]:
        """Renames in order; fails on one whose directory is not fsync'd
        before the next rename."""
        renamed, pending = [], None
        for kind, what in self.events + [("end", None)]:
            if kind == "fsync_dir" and pending is not None:
                st = os.stat(pending.parent)
                if what == (st.st_dev, st.st_ino):
                    pending = None
            elif kind != "fsync_dir":
                assert pending is None, \
                    f"rename onto {pending} was not followed by an fsync " \
                    "of its directory"
                if kind == "rename":
                    renamed.append(what)
                    pending = what
        return renamed


def test_every_rename_is_followed_by_a_directory_fsync(tmp_path, monkeypatch):
    log = RenameLog(monkeypatch)
    CheckpointRetention(tmp_path / "retention", keep=1).save(_run(2))
    writer = service_checkpoint(tmp_path / "service")
    writer.act()
    run_durable_bench("table1", parallel=1, output_dir=tmp_path / "bench",
                      retry=FAST_RETRY)
    names = {p.name for p in log.durable_renames()}
    assert {"index.json", "ckpt.json", "wal.jsonl", "table1.txt"} <= names


def test_checkpoint_is_durable_before_compaction_starts(tmp_path,
                                                        monkeypatch):
    writer = service_checkpoint(tmp_path)
    log = RenameLog(monkeypatch)
    writer.act()
    assert log.durable_renames() == [tmp_path / "ckpt.json",
                                     tmp_path / "wal.jsonl"]


# --------------------------------------------------------------------- #
# the two journals
# --------------------------------------------------------------------- #
def _event(i: int) -> BenchJobFinished:
    return BenchJobFinished(time=i, job=f"j{i}", seconds=1.0, ok=True,
                            error="", rows_sha256="ff" * 32, seed=i)


class WALJournal:
    error = WALCorruptError
    first_record_line = 2  # line 1 is the header

    @staticmethod
    def open(path):
        return WriteAheadLog(path)

    @staticmethod
    def append(journal, i):
        journal.append("admit", {"pm": i}, key=f"k{i}")

    @staticmethod
    def read(path):
        """(record keys, torn tail lines dropped); truncates on disk."""
        wal = WriteAheadLog(path)
        return [r.key for r in wal.records()], wal.truncated_tail


class BenchJournal:
    error = ValueError
    first_record_line = 1

    @staticmethod
    def open(path):
        return JobJournal(path)

    @staticmethod
    def append(journal, i):
        journal.append(_event(i))

    @staticmethod
    def read(path):
        """(record keys, torn tail lines dropped); truncates on disk."""
        events, torn = JobJournal.read(path)
        JobJournal(path).close()
        return [e.job for e in events], torn


JOURNALS = {"wal": WALJournal, "bench_journal": BenchJournal}


def _keys(kind, n):
    return [f"k{i}" if kind is WALJournal else f"j{i}" for i in range(n)]


def _filled(kind, path, n=3):
    journal = kind.open(path)
    for i in range(n):
        kind.append(journal, i)
    return journal


@pytest.mark.parametrize("name", sorted(JOURNALS))
def test_journal_truncates_a_torn_tail(name, tmp_path):
    kind, path = JOURNALS[name], tmp_path / "journal.jsonl"
    _filled(kind, path).close()
    with open(path, "ab") as fh:
        fh.write(b'{"seq": 4, "kind": "bench_j')  # a crash mid-append
    assert kind.read(path) == (_keys(kind, 3), 1)
    journal = kind.open(path)
    kind.append(journal, 3)
    journal.close()
    assert kind.read(path) == (_keys(kind, 4), 0)


@pytest.mark.parametrize("name", sorted(JOURNALS))
def test_journal_refuses_mid_file_garbage(name, tmp_path):
    kind, path = JOURNALS[name], tmp_path / "journal.jsonl"
    _filled(kind, path).close()
    lines = path.read_bytes().splitlines(keepends=True)
    bad = kind.first_record_line + 1
    lines[bad - 1] = b"garbage\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(kind.error, match=f"journal.jsonl:{bad}: .*mid-file"):
        kind.open(path)


@pytest.mark.parametrize("op", ["write", "fsync"])
@pytest.mark.parametrize("name", sorted(JOURNALS))
def test_a_failed_append_closes_the_journal(name, op, tmp_path, monkeypatch):
    kind, path = JOURNALS[name], tmp_path / "journal.jsonl"
    journal = _filled(kind, path)
    monkeypatch.setattr(durable(), "os", FaultyOS(path, op))
    with pytest.raises(InjectedFault):
        kind.append(journal, 3)
    monkeypatch.setattr(durable(), "os", os)
    # the tail's state is unknown, so the journal takes no more appends
    with pytest.raises(kind.error, match="closed"):
        kind.append(journal, 4)
    if op == "write":  # half a line: a torn tail, dropped on reopen
        assert kind.read(path) == (_keys(kind, 3), 1)
    else:  # the whole line was written; it replays (at least once)
        assert kind.read(path) == (_keys(kind, 4), 0)


def test_append_after_compaction_survives_a_reopen(tmp_path):
    path = tmp_path / "wal.jsonl"
    wal = WriteAheadLog(path)
    for i in range(3):
        wal.append("admit", {"pm": i}, key=f"k{i}")
    wal.compact(base_seq=2, base_chain=wal.records()[1].chain)
    assert wal.append("admit", {"pm": 9}, key="k9") == 4
    reopened = WriteAheadLog(path)
    assert [r.key for r in reopened.records()] == ["k2", "k9"]
    assert reopened.last_chain == wal.last_chain


def test_a_journal_line_must_end_in_a_newline(tmp_path):
    # a record missing only its newline was never acknowledged: appending
    # after it would merge two records into one malformed line
    path = tmp_path / "wal.jsonl"
    _filled(WALJournal, path).close()
    path.write_bytes(path.read_bytes()[:-1])
    assert WALJournal.read(path) == (["k0", "k1"], 1)


# --------------------------------------------------------------------- #
# atomic_write: concurrent writers of one file
# --------------------------------------------------------------------- #
def test_concurrent_writers_of_one_file_never_publish_a_torn_file(
        tmp_path, monkeypatch):
    """Writer B starts after A wrote its temp file, before A renames it.

    B runs out of disk space (its writes fail with EFBIG) after it created
    or truncated its temp file.  A shared temp file would then be empty
    when A renames it, and the next reader would find a torn file.
    """
    path = tmp_path / "entry.json"
    data = b'{"value":11}'
    real_replace = os.replace
    started = []

    def replace(src, dst):
        if not started:  # A's rename: B runs first
            started.append(dst)
            soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
            resource.setrlimit(resource.RLIMIT_FSIZE, (0, hard))
            try:
                with pytest.raises(OSError):
                    durable().atomic_write(path, data)
            finally:
                resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    durable().atomic_write(path, data)
    monkeypatch.setattr(os, "replace", real_replace)
    assert started, "writer A never renamed"
    assert path.read_bytes() == data
    assert _temp_files(tmp_path) == []


# --------------------------------------------------------------------- #
# the primitive
# --------------------------------------------------------------------- #
class TestEnvelope:
    PAYLOAD = {"b": [1, 2.5, None], "a": {"z": "ρ", "y": True}}

    def _written(self, tmp_path):
        env = durable().Envelope("repro-test", 1, error=CheckpointError)
        path = tmp_path / "sealed.json"
        digest, size = env.write(path, self.PAYLOAD)
        return env, path, digest, size

    def test_file_is_the_canonical_envelope_with_the_same_digest(
            self, tmp_path):
        _, path, digest, size = self._written(tmp_path)
        body = json.dumps(self.PAYLOAD, sort_keys=True,
                          separators=(",", ":")).encode()
        assert digest == hashlib.sha256(body).hexdigest()
        assert path.read_bytes() == durable().canonical({
            "format": "repro-test", "version": 1, "sha256": digest,
            "payload": self.PAYLOAD})
        assert size == path.stat().st_size

    def test_read_hashes_the_payload_bytes_without_reencoding(
            self, tmp_path, monkeypatch):
        env, path, _, _ = self._written(tmp_path)

        def no_encoding(obj):
            raise AssertionError("read re-encoded the payload")

        monkeypatch.setattr(durable(), "canonical", no_encoding)
        assert env.read(path) == self.PAYLOAD

    def test_read_accepts_the_sort_keys_layout(self, tmp_path):
        env, path, digest, _ = self._written(tmp_path)
        path.write_text(json.dumps({
            "format": "repro-test", "version": 1, "sha256": digest,
            "payload": self.PAYLOAD}, sort_keys=True))
        assert env.read(path) == self.PAYLOAD

    @pytest.mark.parametrize("damage, message", [
        (lambda d: d.replace(b"2.5", b"3.5"), "checksum"),
        (lambda d: d.replace(b'"version":1', b'"version":2'),
         "format version 2"),
        (lambda d: d.replace(b"repro-test", b"repro-nope"),
         "not a repro-test file"),
        (lambda d: d[:40], "not valid JSON"),
    ])
    def test_damage_is_refused_with_the_callers_error(self, damage, message,
                                                      tmp_path):
        env, path, _, _ = self._written(tmp_path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(CheckpointError, match=message):
            env.read(path)


def test_canonical_sorts_keys_and_drops_whitespace():
    assert durable().canonical({"b": 1, "a": [1, {"d": 2, "c": 3}]}) \
        == b'{"a":[1,{"c":3,"d":2}],"b":1}'


# --------------------------------------------------------------------- #
# the column codec
# --------------------------------------------------------------------- #
def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               math.inf, -math.inf, 1e308, -1e308,
               _float(0x7FF8000000000000), _float(0xFFF8000000000001),
               _float(0x7FFFFFFFFFFFFFFF)]
#: the extremes of int16 and int32, the two int widths
INT_EDGES = [-2**31, -2**31 + 1, -2**15 - 1, -2**15, -1, 0, 1, 2**15 - 1,
             2**15, 2**31 - 2, 2**31 - 1]
COLUMN_VALUES = {
    float: (st.sampled_from(FLOAT_EDGES) | st.floats(width=64)
            # quiet NaNs with a drawn payload and sign
            | st.integers(0, 2**51 - 1).flatmap(lambda m: st.sampled_from(
                [_float(0x7FF8000000000000 | m),
                 _float(0xFFF8000000000000 | m)]))),
    int: (st.sampled_from(INT_EDGES) | st.integers(-2**15, 2**15 - 1)
          | st.integers(-2**31, 2**31 - 1)),
    bool: st.booleans(),
}


@st.composite
def column_values(draw):
    """A Python type and a list -- or a list of equal-length rows -- of its
    values, empty ones included."""
    kind = draw(st.sampled_from([float, int, bool]))
    values = COLUMN_VALUES[kind]
    if draw(st.booleans()):
        width = draw(st.integers(1, 4))
        return kind, draw(st.lists(st.lists(values, min_size=width,
                                            max_size=width), max_size=6))
    return kind, draw(st.lists(values, max_size=24))


def _exact(values: list) -> list:
    """Each value's type and, for a float, its bytes (NaN payloads too)."""
    return [_exact(v) if isinstance(v, list)
            else (type(v), struct.pack("<d", v) if type(v) is float else v)
            for v in values]


@settings(max_examples=300, deadline=None)
@given(column=column_values())
def test_a_packed_column_reads_back_bit_exact(column):
    kind, values = column
    packed = durable().pack_column(values, kind)
    stored = json.loads(durable().canonical(packed))  # as the file holds it
    back = durable().unpack_column(stored, name="c", where="f",
                                   error=CheckpointError)
    assert _exact(back.tolist()) == _exact(values)
    assert not back.flags.writeable
    flat = list(chain.from_iterable(values)) if values and isinstance(
        values[0], list) else values
    if kind is int:  # the narrowest width that holds every value
        fits16 = all(-2**15 <= v < 2**15 for v in flat)
        assert packed["dtype"] == ("<i2" if fits16 else "<i4")


@pytest.mark.parametrize("values, kind", [
    ([2**31], int), ([0, -2**31 - 1], int), ([True, 1], int),
    ([1.5, 2], float), ([[1.5, 2.5], [3.5, 4]], float), ([0, 1], bool),
], ids=["int32-max+1", "int32-min-1", "bool-in-int", "int-in-float",
        "int-in-float-row", "int-in-bool"])
def test_a_list_that_would_not_read_back_is_not_packed(values, kind):
    # the writer's overflow and type check: the list stays JSON
    assert durable().pack_column(values, kind) is None


def _at(payload: dict, name: str) -> tuple[dict, str]:
    *parents, key = name.split(".")
    for part in parents:
        payload = payload[part]
    return payload, key


DAMAGED_COLUMNS = {
    "not-base64": ("state.monitor.events",
                   lambda c: c.update(data="*not base64*"), "is not base64"),
    "a-row-short": ("config.vms", lambda c: c.update(
        data=base64.b64encode(base64.b64decode(c["data"])[:-8]).decode()),
        "has 120 bytes for its 4 rows"),
    "bad-spec-field": ("state.datacenter.p_off",
                       lambda c: c.update(spec_field=7),
                       "refers to field 7 of no config.vms column"),
    "unknown-dtype": ("state.datacenter.on",
                      lambda c: c.update(dtype="<f2"), "has unknown dtype"),
    "missing": ("state.monitor.pms_used", None, "is missing"),
}


@pytest.mark.parametrize("case", sorted(DAMAGED_COLUMNS))
@pytest.mark.parametrize("read", [load_checkpoint, restore_checkpoint],
                         ids=["load", "restore"])
def test_a_damaged_v2_column_is_refused_by_name(case, read, tmp_path):
    name, damage, message = DAMAGED_COLUMNS[case]
    path = tmp_path / "run.ckpt.json"
    save_checkpoint(_run(6), path)
    envelope = json.loads(path.read_bytes())
    assert envelope["version"] == 2
    holder, key = _at(envelope["payload"], name)
    if damage is None:
        del holder[key]
    else:
        damage(holder[key])
    # sealed with a valid checksum: a writer bug, not bit rot
    durable().Envelope("repro-checkpoint", 2, error=CheckpointError).write(
        path, envelope["payload"])
    with pytest.raises(CheckpointError,
                       match=f"column {re.escape(name)} {message}"):
        read(path)


# --------------------------------------------------------------------- #
# files written by the previous build
# --------------------------------------------------------------------- #
def _expected() -> dict:
    return json.loads((FIXTURES / "expected.json").read_text())


def test_parent_simulation_checkpoint_runs_to_the_straight_report():
    want = _expected()["simulation"]
    path = FIXTURES / "simulation.ckpt.json"
    assert path.read_bytes().startswith(b'{"format": ')  # the old layout
    run = restore_checkpoint(path)
    run.advance(want["ticks"] - run.time)
    run.close()
    assert run.finish().summary() == want["summary"]
    assert hashlib.sha256(canonical_state_bytes(
        run.capture_state())).hexdigest() == want["state_sha256"]


def test_parent_retention_directory_restores_its_latest_checkpoint():
    want = _expected()["retention"]
    run = restore_checkpoint(retained_checkpoints(FIXTURES / "retention")[-1])
    assert run.time == want["time"]
    assert hashlib.sha256(canonical_state_bytes(
        run.capture_state())).hexdigest() == want["state_sha256"]


def test_parent_service_recovers_to_its_recorded_fingerprint(tmp_path):
    want = _expected()["service"]
    shutil.copytree(FIXTURES / "service", tmp_path / "service")
    svc = PlacementService.recover(
        [PMSpec(20.0)] * 4, wal_path=tmp_path / "service" / "wal.jsonl",
        checkpoint_path=tmp_path / "service" / "ckpt.json",
        checkpoint_every=6)
    assert svc.consolidator.state_fingerprint() == want["fingerprint"]
    assert svc.wal.last_seq == want["wal_seq"]
    svc.submit("after", CALM)
    svc.drain()
    assert svc.results["after"]["seq"] == want["wal_seq"] + 1


def test_parent_bench_run_with_a_torn_journal_resumes_its_job(tmp_path):
    run_dir = tmp_path / "bench"
    shutil.copytree(FIXTURES / "bench", run_dir)
    report = run_durable_bench(output_dir=run_dir, resume=True, parallel=1)
    assert report.restored == ["table1"] and report.results[0].ok
    events, torn = JobJournal.read(run_dir / "journal.jsonl")
    assert torn == 0
    assert [e for e in events if e.kind == "run_resumed"][-1] \
        .skipped_journal_lines == 1
    assert ((run_dir / "BENCH_results.json").read_bytes()
            == (FIXTURES / "bench" / "BENCH_results.json").read_bytes())


def test_parent_bench_journal_sealed_mid_file_is_refused(tmp_path):
    run_dir = tmp_path / "bench_sealed"
    shutil.copytree(FIXTURES / "bench_sealed", run_dir)
    with pytest.raises(ValueError, match=r"journal\.jsonl:4: .*mid-file"):
        run_durable_bench(output_dir=run_dir, resume=True, parallel=1)
