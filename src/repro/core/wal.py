"""Append-only write-ahead log for durable, replayable ingest.

The server appends every *accepted* bundle payload to the log before
inserting it into the index, and fsyncs once per commit group rather
than once per bundle (``docs/PROTOCOL.md`` section "Write-ahead log").
After a crash anywhere between a WAL commit and the index insert,
replaying the log into a fresh server converges to the same content
digest as an uninterrupted run: replay re-offers every logged bundle
and the content-digest dedup layer makes re-offers idempotent.

Entry framing mirrors the FOV2 conventions (magic, explicit version,
explicit length, trailing-garbage intolerance, CRC32 over everything
but the CRC field itself)::

    magic    4s   b"FWAL"
    version  u8   1
    kind     u8   entry kind (1 = bundle payload)
    reserved u16  zero
    seq      u64  strictly-increasing entry sequence number
    length   u32  payload length in bytes
    crc32    u32  CRC32 over the 20 header bytes above + payload
    payload  ...

Failure taxonomy, matching what a single-writer append-only file can
actually exhibit:

* **Torn tail** -- the process died mid-``write``; the final entry is
  incomplete or fails its CRC with nothing after it.  Tolerated:
  :func:`replay` stops before it, and opening a
  :class:`WriteAheadLog` truncates it (the entry never committed, so
  dropping it loses nothing that was acknowledged).
* **Mid-file corruption** -- an entry fails its CRC but valid bytes
  follow, or a sequence number jumps.  That is bit rot or truncation
  of *committed* data and is never repaired silently: both
  :func:`replay` and recovery raise :class:`WalCorruption`.
"""

from __future__ import annotations

import os
import struct
import threading
from typing import Iterator
from zlib import crc32

__all__ = [
    "WAL_MAGIC",
    "WAL_VERSION",
    "KIND_BUNDLE",
    "ENTRY_OVERHEAD",
    "WalCorruption",
    "WriteAheadLog",
    "replay",
]

WAL_MAGIC = b"FWAL"
WAL_VERSION = 1
#: Entry kind for an accepted FOV2 bundle payload (the only kind so far).
KIND_BUNDLE = 1

_ENTRY_HEADER = struct.Struct("<4sBBHQI")   # magic, version, kind, rsvd, seq, len
_ENTRY_CRC = struct.Struct("<I")
_HEADER_SIZE = _ENTRY_HEADER.size + _ENTRY_CRC.size  # 24
#: Framing bytes each entry adds on top of its payload.
ENTRY_OVERHEAD = _HEADER_SIZE


class WalCorruption(ValueError):
    """Committed WAL data failed validation (bit rot, splice, or a
    truncation that removed acknowledged entries)."""


def _scan(data: bytes, *, strict_tail: bool) -> Iterator[tuple[int, int, bytes]]:
    """Yield ``(seq, kind, payload)`` for every complete, valid entry.

    A torn final entry stops iteration quietly; with ``strict_tail``
    even that raises.  Anything invalid *before* end-of-data raises
    :class:`WalCorruption`.
    """
    offset = 0
    n = len(data)
    last_seq = 0
    while offset < n:
        if offset + _HEADER_SIZE > n:
            if strict_tail:
                raise WalCorruption(
                    f"torn entry header at offset {offset}")
            return
        magic, version, kind, reserved, seq, length = \
            _ENTRY_HEADER.unpack_from(data, offset)
        if magic != WAL_MAGIC:
            raise WalCorruption(f"bad entry magic {magic!r} at offset {offset}")
        if version != WAL_VERSION:
            raise WalCorruption(
                f"unsupported WAL version {version} at offset {offset}")
        end = offset + _HEADER_SIZE + length
        (crc,) = _ENTRY_CRC.unpack_from(data, offset + _ENTRY_HEADER.size)
        if end > n:
            # Incomplete payload: torn tail only if nothing follows --
            # which is necessarily true, since `end > n` consumes the
            # rest of the file.
            if strict_tail:
                raise WalCorruption(
                    f"torn entry payload at offset {offset}")
            return
        payload = data[offset + _HEADER_SIZE: end]
        actual = crc32(payload, crc32(data[offset: offset + _ENTRY_HEADER.size]))
        if actual != crc:
            if end == n and not strict_tail:
                # A torn final *write* can leave a complete-length but
                # half-flushed entry; with nothing after it, treat it
                # exactly like a short tail.
                return
            raise WalCorruption(f"entry at offset {offset} failed its CRC32")
        if seq <= last_seq:
            raise WalCorruption(
                f"sequence regressed at offset {offset}: {seq} after {last_seq}")
        if reserved != 0:
            raise WalCorruption(
                f"nonzero reserved field at offset {offset}")
        last_seq = seq
        yield seq, kind, payload
        offset = end


def replay(path: str | os.PathLike[str]) -> list[bytes]:
    """All committed bundle payloads, in append order.

    Tolerates a torn tail (the crash the WAL exists for); raises
    :class:`WalCorruption` for anything wrong before it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    return [payload for _seq, kind, payload in _scan(data, strict_tail=False)
            if kind == KIND_BUNDLE]


class WriteAheadLog:
    """Single-writer append-only log with group commit.

    :meth:`append` buffers an entry; :meth:`commit` makes every
    buffered entry durable with one ``fsync``.  Opening an existing
    log recovers it: a torn tail is truncated away, committed entries
    are preserved, and appends continue from the next sequence number.
    Thread-safe; blocking file I/O happens on the caller's thread but
    never under any index or server lock (the server logs before it
    touches the index).
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self._path = os.fspath(path)
        self._lock = threading.Lock()
        valid_len, last_seq = self._recover()
        self._next_seq = last_seq + 1
        self._file = open(self._path, "ab")
        if self._file.tell() != valid_len:
            # Torn tail found: drop it before appending anything new.
            self._file.truncate(valid_len)
            self._file.seek(valid_len)

    def _recover(self) -> tuple[int, int]:
        try:
            with open(self._path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return 0, 0
        valid_len = 0
        last_seq = 0
        for seq, _kind, payload in _scan(data, strict_tail=False):
            last_seq = seq
            valid_len += _HEADER_SIZE + len(payload)
        return valid_len, last_seq

    @property
    def path(self) -> str:
        return self._path

    @property
    def next_seq(self) -> int:
        with self._lock:
            return self._next_seq

    def append(self, payload: bytes, kind: int = KIND_BUNDLE) -> int:
        """Buffer one entry; durable only after :meth:`commit`."""
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            header = _ENTRY_HEADER.pack(WAL_MAGIC, WAL_VERSION, kind, 0,
                                        seq, len(payload))
            crc = crc32(payload, crc32(header))
            entry = header + _ENTRY_CRC.pack(crc) + payload
            self._file.write(entry)
        return seq

    def commit(self) -> None:
        """Flush and fsync everything appended so far -- one durable
        point per commit group, not per bundle."""
        with self._lock:
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        """Flush buffered entries and close the file (no fsync: close
        is not a commit point -- anything un-committed is torn tail)."""
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
