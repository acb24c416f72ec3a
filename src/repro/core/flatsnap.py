"""Flat, versioned, CRC-protected serialisation of a record snapshot.

A snapshot is its records: a :class:`~repro.core.fov.RecordColumns`,
seven parallel columns plus the epoch they were taken at.  This module
lays them out in **one** contiguous buffer -- a ``.fovpack`` file (the
one persisted form), or a warm standby's segment -- and attaches them
back as ``np.frombuffer`` views into that buffer, with no record-set
copy.  Every reader re-indexes the records it loads, so no search
structure (grid, ``key_rank``) is stored.

Layout (version 3)::

    offset 0     fixed header  -- magic ``FOVPACK1``, version, CRC32,
                 total length, record count, epoch, video-id width
    ...          section table -- (offset, nbytes) per section, fixed
                 order (lat, lng, theta, t_start, t_end, segment_ids,
                 video_ids)
    aligned      section bytes -- each section starts on a 64-byte
                 boundary (zero padding between), so every attached
                 array is cache-line aligned regardless of the mapping

Versions 1 and 2 also stored a cell grid and ``key_rank``; they are
refused by the version field, not converted.

Integrity follows the ``net/protocol.py`` v2 conventions: an explicit
total length (truncation reports as truncation, not a shape error; a
longer buffer is refused too) and a CRC32 over the whole buffer minus
the CRC field itself, stored at a fixed offset inside the header.
Every attach checks both.

The arrays of an attached snapshot are marked read-only: they alias
the caller's buffer.
"""

from __future__ import annotations

import mmap
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.core.fov import RecordColumns

__all__ = ["FLATSNAP_MAGIC", "FLATSNAP_VERSION", "pack_snapshot",
           "unpack_snapshot", "write_snapshot_file", "load_snapshot_file"]

FLATSNAP_MAGIC = b"FOVPACK1"
#: Schema version of the flat layout; bumped on any layout change and
#: stamped into benchmark exports so trajectories stay comparable.
FLATSNAP_VERSION = 3

# magic, version, reserved, crc32, total bytes, record count, epoch,
# video-id chars.
_FIXED = struct.Struct("<8sHHIQQqI")
#: CRC32 field location: everything before it and after it is covered.
_CRC_OFF = 12
_CRC_END = _CRC_OFF + 4
_SECTION = struct.Struct("<QQ")

#: Section order is part of the format.
_SECTIONS = ("lat", "lng", "theta", "t_start", "t_end", "segment_ids",
             "video_ids")
_N_SECTIONS = len(_SECTIONS)
_HEADER_SIZE = _FIXED.size + _N_SECTIONS * _SECTION.size

_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def pack_snapshot(columns: RecordColumns) -> bytes:
    """Serialise a record snapshot into one flat buffer.

    The buffer is self-describing (header + section table) and
    self-checking (total length + CRC32); :func:`unpack_snapshot` is
    the zero-copy inverse.
    """
    arrays = [np.ascontiguousarray(getattr(columns, name))
              for name in _SECTIONS]
    vid = arrays[-1]
    if vid.dtype.kind != "U":
        raise TypeError(f"video_ids must be a unicode column, got {vid.dtype}")
    vid_chars = max(1, vid.dtype.itemsize // 4)

    offsets: list[int] = []
    pos = _aligned(_HEADER_SIZE)
    for arr in arrays:
        pos = _aligned(pos)
        offsets.append(pos)
        pos += arr.nbytes
    total = pos

    buf = bytearray(total)
    _FIXED.pack_into(buf, 0, FLATSNAP_MAGIC, FLATSNAP_VERSION, 0, 0, total,
                     len(columns), columns.epoch, vid_chars)
    for i, (arr, off) in enumerate(zip(arrays, offsets)):
        _SECTION.pack_into(buf, _FIXED.size + i * _SECTION.size,
                           off, arr.nbytes)
        buf[off: off + arr.nbytes] = arr.tobytes()
    crc = zlib.crc32(memoryview(buf)[_CRC_END:],
                     zlib.crc32(memoryview(buf)[:_CRC_OFF]))
    struct.pack_into("<I", buf, _CRC_OFF, crc)
    return bytes(buf)


def _attach(buf, dtype, count: int, offset: int, nbytes: int) -> np.ndarray:
    dt = np.dtype(dtype)
    if count * dt.itemsize != nbytes:
        raise ValueError(
            f"section at {offset} holds {nbytes} bytes, expected "
            f"{count * dt.itemsize} ({count} x {dt})"
        )
    arr = np.frombuffer(buf, dtype=dt, count=count, offset=offset)
    arr.flags.writeable = False
    return arr


def unpack_snapshot(buf) -> RecordColumns:
    """Attach a :class:`~repro.core.fov.RecordColumns` over a flat
    snapshot buffer.

    ``buf`` may be ``bytes``, a ``memoryview`` or an ``mmap``; every
    column becomes an ``np.frombuffer`` view into it (nothing is
    copied), so the returned snapshot keeps ``buf`` alive.  The CRC
    check is the only O(bytes) step.

    Raises ``ValueError`` on bad magic, unsupported version, a buffer
    whose length differs from the length its header declares
    (truncated or extended), a CRC mismatch, or an incoherent section
    table.
    """
    mv = memoryview(buf)
    if len(mv) < _HEADER_SIZE:
        raise ValueError("flat snapshot shorter than its header")
    (magic, version, _reserved, crc, total, n, epoch,
     vid_chars) = _FIXED.unpack_from(mv, 0)
    if magic != FLATSNAP_MAGIC:
        raise ValueError(f"bad flat snapshot magic {bytes(magic)!r}")
    if version != FLATSNAP_VERSION:
        raise ValueError(f"unsupported flat snapshot version {version}")
    if len(mv) < total:
        raise ValueError(
            f"flat snapshot truncated: got {len(mv)} of {total} bytes")
    if len(mv) > total:
        raise ValueError(
            f"flat snapshot holds {len(mv)} bytes, header declares {total}")
    actual = zlib.crc32(mv[_CRC_END:], zlib.crc32(mv[:_CRC_OFF]))
    if actual != crc:
        raise ValueError("flat snapshot failed its CRC32 check")

    spans = [_SECTION.unpack_from(mv, _FIXED.size + i * _SECTION.size)
             for i in range(_N_SECTIONS)]
    for off, nbytes in spans:
        if off % _ALIGN or off + nbytes > total:
            raise ValueError(
                f"section at {off} (+{nbytes}) overruns the buffer "
                f"or is misaligned"
            )

    lat, lng, theta, t_start, t_end = (
        _attach(mv, np.float64, n, *spans[i]) for i in range(5))
    return RecordColumns(
        lat=lat, lng=lng, theta=theta, t_start=t_start, t_end=t_end,
        segment_ids=_attach(mv, np.int64, n, *spans[5]),
        video_ids=_attach(mv, f"<U{vid_chars}", n, *spans[6]),
        epoch=epoch)


def write_snapshot_file(path: str | Path, columns: RecordColumns) -> int:
    """Write a ``.fovpack`` flat snapshot; returns the byte count."""
    blob = pack_snapshot(columns)
    Path(path).write_bytes(blob)
    return len(blob)


def load_snapshot_file(path: str | Path) -> RecordColumns:
    """mmap a ``.fovpack`` file and attach it zero-copy (CRC-verified).

    The mapping stays alive for as long as the returned snapshot's
    arrays do (``np.frombuffer`` holds the buffer), so no handle needs
    to be kept; the file descriptor is closed before returning.
    Raises ``ValueError`` for everything :func:`unpack_snapshot`
    refuses and for an empty file.
    """
    with open(path, "rb") as fh:
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    return unpack_snapshot(mapped)
