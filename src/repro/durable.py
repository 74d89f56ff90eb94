"""Durable files: one encoder, one column codec, one atomic write, one
envelope, one journal.

Every file that must survive a crash -- a power loss, not just a process
kill -- is written here; docs/ROBUSTNESS.md lists them.  A file stores
an array as a column: base64 of its little-endian bytes, bit-exact and
with no number text to write or parse.  A :class:`Journal` is a durable
buffer with at-least-once replay, so its records carry idempotency keys.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import math
import os
import secrets
from itertools import chain
from pathlib import Path
from typing import Any, Callable

import numpy as np

_SHA_KEY = b',"sha256":"'

#: the dtypes a column can have -- little-endian float64, int16 and
#: int32, and bool -- and the one Python type its values read back as
COLUMN_TYPES = {"<f8": float, "<i2": int, "<i4": int, "|b1": bool}
#: the int widths, narrowest first, and the values each holds
_INT_WIDTHS = (("<i2", range(-2**15, 2**15)), ("<i4", range(-2**31, 2**31)))


def canonical(obj: Any) -> bytes:
    """The canonical JSON encoding: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def encode_column(values, dtype: str) -> str:
    """Base64 of ``values`` as ``dtype`` bytes (a :data:`COLUMN_TYPES` key)."""
    return base64.b64encode(
        np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def decode_column(text, dtype: str, shape: tuple[int, ...] | list[int], *,
                  name: str, where: str,
                  error: type[Exception]) -> np.ndarray:
    """The read-only ``shape`` array of ``dtype`` that ``text`` encodes.

    Raises ``error`` naming column ``name`` of file ``where`` unless
    ``text`` is base64 of exactly that many bytes.
    """
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:
        raise error(f"{where}: column {name} is not base64 "
                    f"({type(exc).__name__}: {exc})") from exc
    size = np.dtype(dtype).itemsize * math.prod(shape)
    if len(raw) != size:
        raise error(f"{where}: column {name} has {len(raw)} bytes for its "
                    f"{shape[0]} rows ({size} bytes)")
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def pack_column(values: list, kind: type) -> dict | None:
    """``values`` -- a list, or a list of equal-length rows, of ``kind``
    (``float``, ``int`` or ``bool``) -- as a typed column ``{"data",
    "dtype", "shape"}``.

    Ints take the narrowest of int16 and int32 that holds them all.
    Returns None when a value would not read back identical: one of
    another Python type (an int is no float, a bool no int), or an int
    outside int32 -- the writer's overflow check.
    """
    flat = (list(chain.from_iterable(values))
            if values and isinstance(values[0], list) else values)
    if not set(map(type, flat)) <= {kind}:
        return None
    dtype = {float: "<f8", bool: "|b1"}.get(kind)
    if kind is int:
        low, high = (min(flat), max(flat)) if flat else (0, 0)
        dtype = next((d for d, held in _INT_WIDTHS
                      if low in held and high in held), None)
        if dtype is None:
            return None
    arr = np.asarray(values, dtype=dtype)
    return {"data": encode_column(arr, dtype), "dtype": dtype,
            "shape": list(arr.shape)}


def unpack_column(column, *, name: str, where: str,
                  error: type[Exception]) -> np.ndarray:
    """The read-only array a :func:`pack_column` column holds; ``.tolist()``
    gives the packed values back.  Raises ``error`` naming the column when
    its dtype is unknown, its shape malformed or its data does not fit.
    """
    dtype = column.get("dtype") if isinstance(column, dict) else None
    if dtype not in COLUMN_TYPES:
        raise error(f"{where}: column {name} has unknown dtype {dtype!r}")
    shape = column.get("shape")
    if not (isinstance(shape, list) and len(shape) in (1, 2)
            and all(type(n) is int and n >= 0 for n in shape)):
        raise error(f"{where}: column {name} has no valid shape "
                    f"({shape!r})")
    return decode_column(column.get("data"), dtype, shape, name=name,
                         where=where, error=error)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def atomic_write(path: str | os.PathLike, data: bytes) -> None:
    """Replace ``path`` with ``data``: after any crash, old bytes or new.

    The temp file is this writer's own and is removed if anything raises
    before the rename; the directory fsync makes the rename durable.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            _write_all(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class Envelope:
    """A checksummed JSON file: ``{"format","payload","sha256","version"}``.

    The file is ``canonical`` of that dict and ``sha256`` covers exactly
    the payload's bytes in it, so reading hashes and parses that slice.
    The layout earlier builds wrote (``json.dumps(envelope,
    sort_keys=True)``) is verified by re-encoding its payload instead.
    ``write`` seals ``version``; ``read`` also accepts the ``older``
    versions and returns their payloads as they are, so a caller that
    bumps the version while keeping the old payload readable says so here,
    and reads through ``read_versioned`` when the layouts differ.
    """

    def __init__(self, format: str, version: int, *,
                 error: type[Exception],
                 read_error: type[Exception] | None = None,
                 older: tuple[int, ...] = ()):
        self.format, self.version, self.error = format, version, error
        self.read_error = read_error or error
        self._head = b'{"format":' + canonical(format) + b',"payload":'
        self._tails = {v: b'","version":' + canonical(v) + b"}"
                       for v in (version, *older)}

    def write(self, path: str | os.PathLike, payload: dict) -> tuple[str, int]:
        """Seal ``payload`` into ``path`` atomically: ``(sha256, size)``."""
        body = canonical(payload)
        digest = hashlib.sha256(body).hexdigest()
        data = (self._head + body + _SHA_KEY + digest.encode()
                + self._tails[self.version])
        atomic_write(path, data)
        return digest, len(data)

    def read(self, path: str | os.PathLike) -> dict:
        """Read and verify a sealed file; returns the payload."""
        return self.read_versioned(path)[1]

    def read_versioned(self, path: str | os.PathLike) -> tuple[int, dict]:
        """Read and verify a sealed file: ``(version, payload)``."""
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise self.read_error(
                f"cannot read checkpoint {path}: {exc}") from exc
        version, tail = next(((v, t) for v, t in self._tails.items()
                              if data.endswith(t)), (None, b""))
        end = len(data) - len(tail)
        start = end - 64 - len(_SHA_KEY)
        payload = None
        if (tail and start >= len(self._head) and data.startswith(self._head)
                and data[start:end - 64] == _SHA_KEY):
            body = data[len(self._head):start]
            expected = data[end - 64:end].decode("ascii", "replace")
        else:
            envelope = self._parse(data, path)
            payload, expected = envelope["payload"], envelope.get("sha256")
            version = envelope["version"]
            body = canonical(payload)
        digest = hashlib.sha256(body).hexdigest()
        if digest != expected:
            raise self.error(
                f"checkpoint {path} failed its checksum (expected "
                f"{expected!r}, computed {digest!r}); the file is corrupt")
        return version, json.loads(body) if payload is None else payload

    def _parse(self, data: bytes, path) -> dict:
        try:
            envelope = json.loads(data)
        except ValueError as exc:
            raise self.error(f"checkpoint {path} is not valid JSON "
                             f"(truncated write?): {exc}") from exc
        if not isinstance(envelope, dict) \
                or envelope.get("format") != self.format:
            raise self.error(f"{path} is not a {self.format} file")
        if envelope.get("version") not in self._tails:
            raise self.error(
                f"checkpoint {path} has format version "
                f"{envelope.get('version')!r}; this build reads version "
                f"{' or '.join(map(str, sorted(self._tails)))} only")
        if not isinstance(envelope.get("payload"), dict):
            raise self.error(f"checkpoint {path} has no payload")
        return envelope


def read_journal(path: str | os.PathLike, decode: Callable[[Any], Any], *,
                 header: dict | None = None,
                 error: type[Exception] = ValueError,
                 ) -> tuple[dict | None, list, int, int]:
    """Scan a journal without writing: ``(header, records, valid, torn)``.

    A line lacking its newline, or that ``decode(json.loads(line))``
    rejects, is malformed.  A malformed suffix is a torn tail of ``torn``
    lines after ``valid`` bytes; a malformed line followed by a valid one
    raises ``error``.  ``header`` names the ``format`` and ``version``
    line 1 must carry.
    """
    *lines, partial = Path(path).read_bytes().split(b"\n")
    found, lineno, end = None, 0, 0
    if header is not None:
        try:
            found = json.loads(lines[0])
            ok = (found["format"], found["version"]) \
                == (header["format"], header["version"])
        except (IndexError, ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            raise error(f"{path} has no {header['format']} version "
                        f"{header['version']} header")
        lineno, end, lines = 1, len(lines[0]) + 1, lines[1:]
    records: list = []
    first_bad = 0
    for line in lines:
        lineno += 1
        try:
            record = decode(json.loads(line))
        except (ValueError, KeyError, TypeError):
            first_bad = first_bad or lineno
            continue
        if first_bad:
            raise error(f"{path}:{first_bad}: malformed record followed by "
                        "valid records (mid-file corruption, not a torn "
                        "write)")
        records.append(record)
        end += len(line) + 1
    return found, records, end, len(lines) + bool(partial) - len(records)


class Journal:
    """Append-only JSON Lines: one line and one fsync per append.

    Opening creates the file atomically if absent, scans it with
    :func:`read_journal` and truncates a torn tail on disk.  The file
    stays open; an append that raises closes it, as its tail is unknown.
    """

    def __init__(self, path: str | os.PathLike, decode: Callable[[Any], Any],
                 *, header: dict | None = None,
                 error: type[Exception] = ValueError):
        self.path, self.error = Path(path), error
        if not self.path.exists():
            atomic_write(self.path,
                         b"" if header is None else canonical(header) + b"\n")
        self.header, self.entries, end, self.truncated_tail = read_journal(
            self.path, decode, header=header, error=error)
        if self.truncated_tail:
            with open(self.path, "r+b") as fh:
                fh.truncate(end)
                os.fsync(fh.fileno())
        self._fh = open(self.path, "ab", buffering=0)

    def append(self, obj: Any) -> None:
        """Durably append ``canonical(obj)`` as one line."""
        self.append_line(canonical(obj) + b"\n")

    def append_line(self, line: bytes) -> None:
        """Durably append one encoded line, newline included."""
        if self._fh is None:
            raise self.error(f"{self.path} is closed; reopen it to recover")
        try:
            _write_all(self._fh.fileno(), line)
            os.fsync(self._fh.fileno())
        except BaseException:
            self.close()
            raise

    def rewrite(self, lines: list) -> None:
        """Atomically replace the file; later appends go to the new one."""
        try:
            atomic_write(self.path, b"".join(canonical(obj) + b"\n"
                                             for obj in lines))
        finally:  # the path holds the old file or the new one: append there
            self.close()
            self._fh = open(self.path, "ab", buffering=0)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
