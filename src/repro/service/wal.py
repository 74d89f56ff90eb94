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

File format — JSON Lines, one object per line:

- header (line 1): ``{"format": "repro-wal", "version": 1, "base_seq": N,
  "base_chain": "<64 hex>"}``
- record: ``{"seq": n, "chain": "<64 hex>", "key": "...", "op": "...",
  "body": {...}}`` with ``chain = sha256(prev_chain + canonical({seq,
  key, op, body}))``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

from repro.durable import Envelope, Journal, canonical

WAL_FORMAT = "repro-wal"
WAL_VERSION = 1
#: chain value before any record exists (and after a fresh compaction base)
GENESIS_CHAIN = hashlib.sha256(b"repro-wal-genesis").hexdigest()

SERVICE_CHECKPOINT_FORMAT = "repro-service-checkpoint"
SERVICE_CHECKPOINT_VERSION = 1


class WALError(RuntimeError):
    """Base class for write-ahead-log failures."""


class WALCorruptError(WALError):
    """The log is damaged beyond the torn-tail case; refuse to guess."""


def chain_hash(prev_chain: str, seq: int, key: str, op: str,
               body: dict) -> str:
    """The chain value for one record: covers predecessor + canonical body."""
    material = prev_chain.encode() + canonical(
        {"seq": seq, "key": key, "op": op, "body": body})
    return hashlib.sha256(material).hexdigest()


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
            expect = chain_hash(chain, rec.seq, rec.key, rec.op, rec.body)
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
        rec = WALRecord(seq=seq, key=key, op=op, body=dict(body),
                        chain=chain_hash(self.last_chain, seq, key, op, body))
        super().append(vars(rec))
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
                       error=WALCorruptError, read_error=WALError)


def save_service_checkpoint(path: str | os.PathLike, *, state: dict,
                            wal_seq: int, wal_chain: str) -> Path:
    """Atomically write the service state snapshot taken at a WAL position.

    ``state`` must be JSON-safe; the envelope's sha256 detects a bit-rotted
    checkpoint on load rather than silently replaying against it.
    """
    _CHECKPOINT.write(path, {"wal_seq": int(wal_seq),
                             "wal_chain": str(wal_chain), "state": state})
    return Path(path)


def load_service_checkpoint(path: str | os.PathLike) -> dict:
    """Read and checksum-verify a service checkpoint; returns the payload.

    The payload dict has keys ``wal_seq``, ``wal_chain`` and ``state``.
    Raises :class:`WALCorruptError` on any damage — the caller decides
    whether a full-log replay from genesis can substitute.
    """
    return _CHECKPOINT.read(path)
