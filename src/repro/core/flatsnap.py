"""Flat, versioned, CRC-protected serialisation of a packed snapshot.

A :class:`~repro.core.index.PackedFoVIndex` is eleven parallel arrays
(seven record columns, ``key_rank``, and the three CSR grid arrays)
plus a handful of grid scalars.  This module lays all of them out in
**one** contiguous buffer so that a consumer -- a loader mmapping a
``.fovpack`` file (the one persisted form), or a replica promoting its
standby buffers -- reconstructs the snapshot with ``np.frombuffer``
views into that buffer: no record-set copy, no grid rebuild.

Layout (version 2)::

    offset 0     fixed header  -- magic ``FOVPACK1``, version, CRC32,
                 total length, record count, epoch, video-id width,
                 grid shape (width/height/slices/offset count) and the
                 ten grid scalars (extents, inverse cell sizes, max
                 duration)
    ...          section table -- (offset, nbytes) per section, fixed
                 order (lat, lng, theta, t_start, t_end, segment_ids,
                 key_rank, video_ids, cell_offsets, row_ids, fused)
    aligned      section bytes -- each section starts on a 64-byte
                 boundary (zero padding between), so every attached
                 array is cache-line aligned regardless of the mapping

The grid sections are stored as the grid holds them: ``cell_offsets``
over space-major cells ``(iy * width + ix) * slices + it`` and
``fused`` with shape ``(8, n)`` (one row per fused field, one column
per record).
Version 1 held time-major cells and an ``(n, 8)`` ``fused`` block; it
is refused, not converted.

Integrity follows the ``net/protocol.py`` v2 conventions: an explicit
total length (truncation reports as truncation, not a shape error; a
longer buffer is refused too) and a CRC32 over the whole buffer minus
the CRC field itself, stored at a fixed offset inside the header.
Every attach checks both.

The arrays in the returned snapshot are marked read-only: they alias
the caller's buffer, and the packed view is frozen by contract.
"""

from __future__ import annotations

import mmap
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.core.index import PackedFoVIndex
from repro.spatial.grid import PackedPointGrid

__all__ = ["FLATSNAP_MAGIC", "FLATSNAP_VERSION", "pack_snapshot",
           "unpack_snapshot", "write_snapshot_file", "load_snapshot_file"]

FLATSNAP_MAGIC = b"FOVPACK1"
#: Schema version of the flat layout; bumped on any layout change and
#: stamped into benchmark exports so trajectories stay comparable.
#: A version-1 buffer has the same byte count as a version-2 one, so
#: only this field keeps it from attaching with wrong candidates.
FLATSNAP_VERSION = 2

# magic, version, reserved, crc32, total bytes, record count, epoch,
# video-id chars, grid width/height/slices, cell-offset count, then the
# ten grid scalars x0 y0 t0 x1 y1 t1 inv_cw inv_ch inv_ct max_dur.
_FIXED = struct.Struct("<8sHHIQQqIIIIQ10d")
#: CRC32 field location: everything before it and after it is covered.
_CRC_OFF = 12
_CRC_END = _CRC_OFF + 4
_SECTION = struct.Struct("<QQ")

#: Section order is part of the format; names are documentation only.
_SECTIONS = ("lat", "lng", "theta", "t_start", "t_end", "segment_ids",
             "key_rank", "video_ids", "cell_offsets", "row_ids", "fused")
_N_SECTIONS = len(_SECTIONS)
_HEADER_SIZE = _FIXED.size + _N_SECTIONS * _SECTION.size

_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _column_arrays(view: PackedFoVIndex) -> list[np.ndarray]:
    """The eleven sections as contiguous little-endian arrays."""
    g = view.grid
    cols = [view.lat, view.lng, view.theta, view.t_start, view.t_end,
            view.segment_ids, view.key_rank, view.video_ids,
            g.cell_offsets, g.row_ids, g.fused]
    return [np.ascontiguousarray(c) for c in cols]


def pack_snapshot(view: PackedFoVIndex) -> bytes:
    """Serialise a packed snapshot into one flat buffer.

    The buffer is self-describing (header + section table) and
    self-checking (total length + CRC32); :func:`unpack_snapshot` is
    the zero-copy inverse.  A view with a tail is folded first
    (:meth:`PackedFoVIndex.folded`), before its grid or any section is
    read, so it packs byte for byte like a fresh full build and
    unpacks as one segment.
    """
    view = view.folded()
    arrays = _column_arrays(view)
    vid = arrays[7]
    if vid.dtype.kind != "U":
        raise TypeError(f"video_ids must be a unicode column, got {vid.dtype}")
    vid_chars = max(1, vid.dtype.itemsize // 4)
    g = view.grid

    offsets: list[int] = []
    pos = _aligned(_HEADER_SIZE)
    for arr in arrays:
        pos = _aligned(pos)
        offsets.append(pos)
        pos += arr.nbytes
    total = pos

    buf = bytearray(total)
    _FIXED.pack_into(
        buf, 0, FLATSNAP_MAGIC, FLATSNAP_VERSION, 0, 0, total,
        g.n, view.epoch, vid_chars,
        g.width, g.height, g.slices, int(g.cell_offsets.shape[0]),
        g.x0, g.y0, g.t0, g.x1, g.y1, g.t1,
        g.inv_cw, g.inv_ch, g.inv_ct, g.max_dur)
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


def unpack_snapshot(buf) -> PackedFoVIndex:
    """Attach a :class:`PackedFoVIndex` over a flat snapshot buffer.

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
    (magic, version, _reserved, crc, total, n, epoch, vid_chars,
     width, height, slices, n_offsets,
     x0, y0, t0, x1, y1, t1,
     inv_cw, inv_ch, inv_ct, max_dur) = _FIXED.unpack_from(mv, 0)
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
    segment_ids = _attach(mv, np.int64, n, *spans[5])
    key_rank = _attach(mv, np.int64, n, *spans[6])
    video_ids = _attach(mv, f"<U{vid_chars}", n, *spans[7])
    cell_offsets = _attach(mv, np.int64, n_offsets, *spans[8])
    row_ids = _attach(mv, np.int64, n, *spans[9])
    fused = _attach(mv, np.float64, n * 8, *spans[10]).reshape(8, n)

    grid = PackedPointGrid(n, width, height, slices,
                           x0, y0, t0, x1, y1, t1,
                           inv_cw, inv_ch, inv_ct, max_dur,
                           cell_offsets, row_ids, fused)
    return PackedFoVIndex(
        lat=lat, lng=lng, theta=theta, t_start=t_start, t_end=t_end,
        video_ids=video_ids, segment_ids=segment_ids, key_rank=key_rank,
        grid=grid, epoch=epoch)


def write_snapshot_file(path: str | Path, view: PackedFoVIndex) -> int:
    """Write a ``.fovpack`` flat snapshot; returns the byte count."""
    blob = pack_snapshot(view)
    Path(path).write_bytes(blob)
    return len(blob)


def load_snapshot_file(path: str | Path) -> PackedFoVIndex:
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
