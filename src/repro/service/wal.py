"""Write-ahead log + checkpoint for the placement service.

Durability contract (tested by the crash drills in
``tests/test_service_recovery.py`` and the CI ``service-smoke`` job):

- **Journal-then-apply.**  Every state-changing decision (admit, shed,
  depart, recalibrate, pool scale) is appended — and fsync'd — *before*
  the in-memory state mutates.  A record therefore implies "this decision
  was made"; recovery replays recorded outcomes, it never re-decides.
- **Torn-tail tolerance** (:class:`repro.durable.Journal`).  A crash
  mid-append leaves at most one partial line at EOF.  Recovery truncates
  a malformed *tail* (reported, never silent) but treats a malformed line
  *followed by valid records* as real corruption and refuses to guess
  (:class:`WALCorruptError`).
- **Tamper evidence.**  Records are sha256-chained: each record's
  ``chain`` hashes its canonical body onto the previous chain value, so a
  bit-flipped or spliced record breaks the chain at verification time.
- **Compaction.**  A service checkpoint (a :class:`repro.durable.Envelope`,
  durable once written) absorbs the log prefix; the WAL is then
  atomically rewritten with a header carrying the checkpoint's ``(seq,
  chain)`` as its new base.  A crash *between* those two steps is safe:
  recovery skips replaying records at or below the checkpoint's sequence
  number.

File formats:

- The WAL is JSON Lines, one object per line.  Line 1 is the header
  ``{"format": "repro-wal", "version": 1, "base_seq": N, "base_chain":
  "<64 hex>"}``.  Each further line is a record ``{"seq": n, "chain":
  "<64 hex>", "key": "...", "op": "...", "body": {...}}`` with ``chain =
  sha256(prev_chain + canonical({seq, key, op, body}))``.  Both the chain
  material and the line come from one encoding of the body
  (:func:`encode_record`).
- The service checkpoint is an envelope (``repro-service-checkpoint``)
  whose payload is ``{"wal_seq", "wal_chain", "state"}``.  Version 2
  stores the state's two large parts as parallel columns, the layout the
  service captures and restores.  The consolidator's hosted VMs are
  ``hosted``: ``id`` and ``pm`` int lists plus ``spec``, the float64
  ``(p_on, p_off, r_base, r_extra)`` of each VM through
  :mod:`repro.durable`'s column codec: base64 of the little-endian bytes,
  32 per VM, bit-exact, its dtype and row count implied.  The kept
  outcomes are ``kept``: ``key``, ``op`` and ``seq`` columns plus
  ``vm_id``, ``pm`` and ``detail`` (a shed's ``reason``, a
  recalibration's ``fingerprint``), null where the op has none.  Every
  other key is stored as it is, and hosted VMs whose specs are not all
  floats are stored as the version 1 ``vms`` (an int would come back as a
  float).  Version 1 stored the version 1 layout (``vms``, ``results``)
  as it is; both versions load to the same columns, and
  :func:`_pack_state`/:func:`_unpack_state` convert between the layouts.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from repro.core.online import hosted_of, vms_of
from repro.durable import (
    Envelope,
    Journal,
    canonical,
    decode_column,
    encode_column,
)

WAL_FORMAT = "repro-wal"
WAL_VERSION = 1
#: chain value before any record exists (and after a fresh compaction base)
GENESIS_CHAIN = hashlib.sha256(b"repro-wal-genesis").hexdigest()

SERVICE_CHECKPOINT_FORMAT = "repro-service-checkpoint"
SERVICE_CHECKPOINT_VERSION = 2


class WALError(RuntimeError):
    """Base class for write-ahead-log failures."""


class WALCorruptError(WALError):
    """The log is damaged beyond the torn-tail case; refuse to guess."""


def encode_record(prev_chain: str, seq: int, key: str, op: str,
                  body: dict) -> tuple[str, bytes]:
    """One record's chain value and log line, from one encoding of its body.

    The chain covers the predecessor plus ``canonical({seq, key, op,
    body})``; the line is ``canonical`` of the record with its chain.
    Both share the body's bytes, as sorted keys put ``body`` first.
    """
    head = b'{"body":' + canonical(body)
    tail = b"," + canonical({"key": key, "op": op, "seq": seq})[1:]
    chain = hashlib.sha256(prev_chain.encode() + head + tail).hexdigest()
    return chain, head + b',"chain":"' + chain.encode() + b'"' + tail + b"\n"


@dataclass(frozen=True)
class WALRecord:
    """One journaled decision, as read back from the log."""

    seq: int
    key: str
    op: str
    body: dict
    chain: str


def _header(base_seq: int, base_chain: str) -> dict:
    return {"format": WAL_FORMAT, "version": WAL_VERSION,
            "base_seq": base_seq, "base_chain": base_chain}


class WriteAheadLog(Journal):
    """An append-only, fsync'd, hash-chained decision journal.

    Opening (a :class:`~repro.durable.Journal`: a torn tail is truncated on
    disk so a later append never interleaves with garbage) also verifies
    every sequence number and the hash chain.  ``append`` journals one
    record and returns its sequence number; ``records`` returns the
    verified records currently in the log (post-base only).
    """

    def __init__(self, path: str | os.PathLike):
        super().__init__(path, lambda obj: WALRecord(**obj),
                         header=_header(0, GENESIS_CHAIN),
                         error=WALCorruptError)
        self.base_seq = int(self.header["base_seq"])
        self.base_chain = str(self.header["base_chain"])
        seq, chain = self.base_seq, self.base_chain
        for rec in self.entries:
            if rec.seq != seq + 1:
                raise WALCorruptError(
                    f"{self.path}: record seq {rec.seq} follows {seq} "
                    "(gap or reorder)")
            expect, _ = encode_record(chain, rec.seq, rec.key, rec.op,
                                      rec.body)
            if rec.chain != expect:
                raise WALCorruptError(
                    f"{self.path}: chain mismatch at seq {rec.seq} "
                    "(record tampered or corrupted)")
            seq, chain = rec.seq, rec.chain
        self._records: list[WALRecord] = self.entries
        self.last_seq, self.last_chain = seq, chain

    def append(self, op: str, body: dict, *, key: str) -> int:
        """Durably journal one decision; returns its sequence number.

        The line is written and fsync'd before this returns — the caller
        may only mutate in-memory state *after* that (journal-then-apply).
        """
        seq = self.last_seq + 1
        chain, line = encode_record(self.last_chain, seq, key, op, body)
        self.append_line(line)
        rec = WALRecord(seq=seq, key=key, op=op, body=dict(body), chain=chain)
        self._records.append(rec)
        self.last_seq, self.last_chain = seq, rec.chain
        return seq

    def records(self, *, after_seq: int | None = None) -> list[WALRecord]:
        """Verified records in the log, optionally only those past a seq."""
        if after_seq is None:
            return list(self._records)
        return [r for r in self._records if r.seq > after_seq]

    def compact(self, *, base_seq: int, base_chain: str) -> int:
        """Atomically drop records up to ``base_seq`` (checkpoint absorbed).

        Returns the number of records dropped.  The caller must have
        durably checkpointed state at exactly ``(base_seq, base_chain)``
        first; a crash before this call leaves a longer log whose prefix
        recovery will simply skip.
        """
        if base_seq > self.last_seq:
            raise WALError(
                f"cannot compact to seq {base_seq}: log ends at {self.last_seq}")
        keep = [r for r in self._records if r.seq > base_seq]
        self.rewrite([_header(base_seq, base_chain)]
                     + [vars(r) for r in keep])
        dropped = len(self._records) - len(keep)
        self._records = keep
        self.base_seq, self.base_chain = base_seq, base_chain
        return dropped


# ---------------------------------------------------------------------- #
# service checkpoint (the same envelope as simulation.checkpoint)
# ---------------------------------------------------------------------- #
_CHECKPOINT = Envelope(SERVICE_CHECKPOINT_FORMAT, SERVICE_CHECKPOINT_VERSION,
                       error=WALCorruptError, read_error=WALError, older=(1,))

_KEPT = ("key", "op", "seq", "vm_id", "pm", "detail")
#: a kept outcome rebuilt from its ``(seq, vm_id, pm, detail)``, by op
_OUTCOME = {
    "admit": lambda seq, vm_id, pm, _: {
        "op": "admit", "vm_id": vm_id, "pm": pm, "seq": seq},
    "depart": lambda seq, vm_id, pm, _: {
        "op": "depart", "vm_id": vm_id, "pm": pm, "seq": seq},
    "shed": lambda seq, _v, _p, reason: {
        "op": "shed", "reason": reason, "seq": seq},
    "recalibrate": lambda seq, _v, _p, fingerprint: {
        "op": "recalibrate", "seq": seq, "fingerprint": fingerprint},
    "recalibrate_noop": lambda seq, *_: {
        "op": "recalibrate_noop", "seq": seq},
}


def kept_columns(results: dict) -> dict:
    """The ``kept`` columns of an idempotency map (key -> outcome), in its
    order."""
    outs = list(results.values())
    return {
        "key": list(results), "op": list(map(itemgetter("op"), outs)),
        "seq": list(map(itemgetter("seq"), outs)),
        "vm_id": [o.get("vm_id") for o in outs],
        "pm": [o.get("pm") for o in outs],
        "detail": [o.get("reason", o.get("fingerprint")) for o in outs],
    }


def outcomes_of(kept: dict) -> dict:
    """The idempotency map (key -> outcome) that ``kept`` columns hold."""
    keys, ops, *rest = (kept[name] for name in _KEPT)
    return {key: _OUTCOME[op](*row) for key, op, *row in zip(keys, ops, *rest)}


def _pack_state(state: dict) -> dict:
    """A version 1 service state in columns, as
    :meth:`~repro.service.service.PlacementService.checkpoint` captures it:
    ``consolidator.vms`` becomes ``hosted``, ``results`` becomes ``kept``;
    every other key passes through."""
    packed = dict(state)
    cons = state.get("consolidator")
    if isinstance(cons, dict) and "vms" in cons:
        packed["consolidator"] = {k: v for k, v in cons.items() if k != "vms"}
        packed["consolidator"]["hosted"] = hosted_of(cons["vms"])
    if "results" in state:
        packed["kept"] = kept_columns(packed.pop("results"))
    return packed


def _unpack_state(state: dict) -> dict:
    """The version 1 layout of a state in columns (:func:`_pack_state`'s
    inverse): what ``capture_state()`` and ``--state-out`` show."""
    out = dict(state)
    cons = state.get("consolidator")
    if isinstance(cons, dict) and "hosted" in cons:
        out["consolidator"] = {k: v for k, v in cons.items() if k != "hosted"}
        out["consolidator"]["vms"] = vms_of(cons["hosted"])
    if "kept" in state:
        del out["kept"]
        out["results"] = outcomes_of(state["kept"])
    return out


def _columns(holder: dict, group: str, names: tuple, path) -> list[list]:
    """The named columns of ``holder[group]``, refused unless lists of one
    length."""
    cols = holder.get(group)
    cols = [cols.get(n) if isinstance(cols, dict) else None for n in names]
    for name, col in zip(names, cols):
        if not isinstance(col, list):
            raise WALCorruptError(f"service checkpoint {path}: column "
                                  f"{group}.{name} is missing or not a list")
        if len(col) != len(cols[0]):
            raise WALCorruptError(
                f"service checkpoint {path}: column {group}.{name} has "
                f"{len(col)} entries, {group}.{names[0]} {len(cols[0])}")
    return cols


def _encode(state: dict) -> dict:
    """A state in columns as the file stores it: a float64 ``hosted.spec``
    as base64 of its bytes, other specs as the version 1 ``vms``."""
    cons = state.get("consolidator")
    if not (isinstance(cons, dict) and "hosted" in cons):
        return state
    hosted = cons["hosted"]
    cons = {k: v for k, v in cons.items() if k != "hosted"}
    if isinstance(hosted["spec"], np.ndarray):
        cons["hosted"] = {**hosted, "spec": encode_column(hosted["spec"],
                                                          "<f8")}
    else:
        cons["vms"] = vms_of(hosted)
    return {**state, "consolidator": cons}


def _decode(state, path) -> dict:
    """The state in columns that a version 1 or 2 payload holds, its columns
    checked: :func:`_encode`'s inverse."""
    if not isinstance(state, dict):
        raise WALCorruptError(f"service checkpoint {path} has no state")
    cons = state.get("consolidator")
    if isinstance(cons, dict) and "hosted" in cons:
        ids, pms = _columns(cons, "hosted", ("id", "pm"), path)
        spec = decode_column(
            cons["hosted"].get("spec"), "<f8", (len(ids), 4),
            name="hosted.spec", where=f"service checkpoint {path}",
            error=WALCorruptError)
        state = {**state, "consolidator": {
            **cons, "hosted": {"id": ids, "pm": pms, "spec": spec}}}
    state = _pack_state(state)  # a version 1 file, or specs kept as vms
    if "kept" in state:
        ops = _columns(state, "kept", _KEPT, path)[1]
        unknown = {repr(op) for op in ops
                   if not isinstance(op, str) or op not in _OUTCOME}
        if unknown:
            raise WALCorruptError(
                f"service checkpoint {path}: column kept.op names unknown "
                f"op(s) {', '.join(sorted(unknown))}")
    return state


def save_service_checkpoint(path: str | os.PathLike, *, state: dict,
                            wal_seq: int, wal_chain: str) -> Path:
    """Atomically write the service state snapshot taken at a WAL position.

    ``state`` is in columns, as ``PlacementService.checkpoint`` captures
    it (:func:`_pack_state` turns a version 1 state into them), and is
    written as format version 2 (module docstring).  The envelope's sha256
    detects a bit-rotted checkpoint on load rather than silently replaying
    against it.
    """
    _CHECKPOINT.write(path, {"wal_seq": int(wal_seq),
                             "wal_chain": str(wal_chain),
                             "state": _encode(state)})
    return Path(path)


def load_service_checkpoint(path: str | os.PathLike) -> dict:
    """Read and checksum-verify a service checkpoint; returns the payload.

    The payload dict has keys ``wal_seq``, ``wal_chain`` and ``state``,
    the state in columns as :func:`save_service_checkpoint` takes it, from
    a version 1 or 2 file alike: ``consolidator.hosted`` with ``spec`` a
    read-only float64 ``(n, 4)`` array (or, for specs that are not all
    floats, their rows), and ``kept``.  :func:`_unpack_state` gives the
    version 1 layout.  Raises :class:`WALCorruptError` on any damage, or
    on v2 columns that do not fit together -- the caller decides whether a
    full-log replay from genesis can substitute.
    """
    payload = _CHECKPOINT.read(path)
    return {**payload, "state": _decode(payload.get("state"), path)}
