"""Compact binary wire format for representative-FoV uploads.

The whole point of the content-free design is that a video segment
ships as a fixed-size record instead of megabytes of pixels.  One
record packs::

    lat      float64   8 B
    lng      float64   8 B
    theta    float32   4 B   (0.01-degree compass precision is plenty)
    t_start  float64   8 B
    t_end    float64   8 B
    seg_id   uint32    4 B
    -----------------------
    total             40 B

A bundle (magic ``FOV2``, version 2, the one wire format) is a small
header -- magic, version, video-id length, record count, an explicit
total length (so truncation is reported as truncation) and a
bundle-level CRC32 -- followed by the video id and the records of one
recording, each carrying its own CRC32 (44 B per record on the wire),
which localises corruption to a record index.  Any single-bit flip,
truncation, or extension of a bundle raises ``ValueError``; so does
any other magic, the checksum-less legacy ``FOV1`` included.

:func:`decode_bundle_columns` is the one decoder: check the envelope
(the length fields and bundle CRC32), read the records as one
``np.frombuffer`` structured view, compare every record's CRC32 with
``zlib.crc32`` of its 40 bytes, and run the semantic checks (finite
values, latitude/longitude range, ``t_end >= t_start``) as column
comparisons.  A corrupted-but-parseable record must raise, never reach
the index.  :func:`decode_bundle` is the same decode viewed as record
objects.

A bad record is named by its index in the bundle: the *first* record
that failed any check, and within it the checksum before the semantic
checks, whose message is :func:`decode_fov`'s on that record's bytes.
Every failure mode raises ``ValueError`` (see ``docs/PROTOCOL.md`` for
the full failure taxonomy).

Encoding/decoding round-trip exactly (modulo the float32 orientation
quantisation), and the byte sizes feed the traffic model.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import NoReturn

import numpy as np

from repro.core.fov import RecordColumns, RepresentativeFoV

__all__ = [
    "FOV_RECORD_SIZE",
    "FOV_RECORD_SIZE_V2",
    "BUNDLE_MAGIC_V2",
    "BundleColumns",
    "encode_fov",
    "decode_fov",
    "encode_bundle",
    "decode_bundle",
    "decode_bundle_columns",
    "bundle_size",
]

_RECORD = struct.Struct("<ddfddI")
#: Bytes per representative-FoV record payload (without its checksum).
FOV_RECORD_SIZE = _RECORD.size  # 40
#: Bytes per record on the wire: payload plus its CRC32.
FOV_RECORD_SIZE_V2 = FOV_RECORD_SIZE + 4  # 44

BUNDLE_MAGIC_V2 = b"FOV2"
_HEADER = struct.Struct("<4sBHI")  # magic, version, video-id length, record count
_V2_EXT = struct.Struct("<II")     # total bundle length, bundle crc32
_V2_HEADER_SIZE = _HEADER.size + _V2_EXT.size  # 19
#: Byte span of the header that the bundle CRC covers (everything up
#: to, but excluding, the CRC field itself).
_V2_CRC_SKIP = _V2_HEADER_SIZE - 4
_CRC = struct.Struct("<I")
_FRAME_PREFIX = struct.Struct("<I")


def encode_fov(fov: RepresentativeFoV) -> bytes:
    """Serialise one record to its fixed 40-byte form (video id lives
    in the bundle header, not per record)."""
    return _RECORD.pack(fov.lat, fov.lng, fov.theta,
                        fov.t_start, fov.t_end, fov.segment_id)


def _validate_record(lat: float, lng: float, theta: float,
                     t_start: float, t_end: float) -> None:
    """Semantic checks on a well-framed record; raises ``ValueError``.

    A flipped bit can turn a float into NaN/inf or an absurd
    coordinate while the framing stays intact -- such records must be
    rejected at the wire, not indexed.
    """
    for name, value in (("lat", lat), ("lng", lng), ("theta", theta),
                        ("t_start", t_start), ("t_end", t_end)):
        if not math.isfinite(value):
            raise ValueError(f"corrupt record: non-finite {name} ({value!r})")
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"corrupt record: lat {lat!r} outside [-90, 90]")
    if not -180.0 <= lng <= 180.0:
        raise ValueError(f"corrupt record: lng {lng!r} outside [-180, 180]")
    # float32 quantisation may round an azimuth just under 360 up to
    # exactly 360.0, so the closed upper bound is deliberate.
    if not 0.0 <= theta <= 360.0:
        raise ValueError(f"corrupt record: theta {theta!r} outside [0, 360]")
    if t_end < t_start:
        raise ValueError(
            f"corrupt record: t_end ({t_end!r}) before t_start ({t_start!r})"
        )


def decode_fov(payload: bytes, video_id: str = "") -> RepresentativeFoV:
    """Inverse of :func:`encode_fov`; validates ranges and finiteness."""
    if len(payload) != FOV_RECORD_SIZE:
        raise ValueError(
            f"record must be exactly {FOV_RECORD_SIZE} bytes, got {len(payload)}"
        )
    lat, lng, theta, t_start, t_end, seg_id = _RECORD.unpack(payload)
    _validate_record(lat, lng, float(theta), t_start, t_end)
    return RepresentativeFoV(lat=lat, lng=lng, theta=float(theta),
                             t_start=t_start, t_end=t_end,
                             video_id=video_id, segment_id=seg_id)


def encode_bundle(video_id: str, fovs: list[RepresentativeFoV]) -> bytes:
    """Serialise one recording's representative FoVs as a checksummed,
    length-prefixed ``FOV2`` bundle.  It checksums what it is given and
    validates nothing: the decoder is the gate."""
    vid = video_id.encode("utf-8")
    if len(vid) > 0xFFFF:
        raise ValueError("video id too long")
    records = bytearray()
    for f in fovs:
        rec = encode_fov(f)
        records += rec
        records += _CRC.pack(zlib.crc32(rec))
    total = _V2_HEADER_SIZE + len(vid) + len(records)
    prefix = _HEADER.pack(BUNDLE_MAGIC_V2, 2, len(vid), len(fovs)) + \
        _FRAME_PREFIX.pack(total)
    body = vid + bytes(records)
    crc = zlib.crc32(body, zlib.crc32(prefix))
    return prefix + _CRC.pack(crc) + body


def _decode_video_id(raw: bytes) -> str:
    """The bundle's video id; refused unless UTF-8 without NUL (the
    index keeps ids in a unicode column, which drops trailing NULs)."""
    try:
        video_id = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"video id is not valid UTF-8: {exc}") from None
    if "\x00" in video_id:
        raise ValueError("video id contains NUL")
    return video_id


#: The wire record -- the 40-byte :func:`encode_fov` layout plus its
#: CRC32 -- as a packed little-endian structured dtype; ``np.frombuffer``
#: over a payload with it is the whole record decode.
_RECORD_DTYPE = np.dtype([
    ("lat", "<f8"), ("lng", "<f8"), ("theta", "<f4"),
    ("t_start", "<f8"), ("t_end", "<f8"), ("seg_id", "<u4"),
    ("crc", "<u4"),
])
assert _RECORD_DTYPE.itemsize == FOV_RECORD_SIZE_V2


class BundleColumns(RecordColumns):
    """One decoded recording as record columns plus its ``video_id``
    (which the ``video_ids`` column repeats per row): the form the
    batched ingest path feeds straight into the index without
    materialising per-record objects first.  ``theta`` is widened from
    the float32 wire field."""

    __slots__ = ("video_id",)

    def __init__(self, video_id: str, **columns: np.ndarray) -> None:
        super().__init__(video_ids=np.full(len(columns["lat"]), video_id),
                         **columns)
        object.__setattr__(self, "video_id", video_id)


def _validate_envelope(payload: bytes, vid_len: int,
                       count: int) -> tuple[str, int]:
    """Bundle-level checks; returns ``(video_id, record offset)``."""
    if len(payload) < _V2_HEADER_SIZE:
        raise ValueError("bundle truncated inside its header")
    total, crc = _V2_EXT.unpack_from(payload, _HEADER.size)
    if len(payload) < total:
        raise ValueError(
            f"bundle truncated: got {len(payload)} of {total} bytes"
        )
    if len(payload) > total:
        raise ValueError(
            f"bundle has {len(payload) - total} bytes of trailing garbage"
        )
    expected = _V2_HEADER_SIZE + vid_len + count * FOV_RECORD_SIZE_V2
    if total != expected:
        raise ValueError(
            f"bundle length {total} inconsistent with header "
            f"(expected {expected})"
        )
    actual_crc = zlib.crc32(payload[_V2_HEADER_SIZE:],
                            zlib.crc32(payload[:_V2_CRC_SKIP]))
    if actual_crc != crc:
        raise ValueError("bundle failed its CRC32 check")
    offset = _V2_HEADER_SIZE
    video_id = _decode_video_id(payload[offset: offset + vid_len])
    return video_id, offset + vid_len


def _record_crcs(payload: bytes, offset: int, count: int) -> list[int]:
    """The CRC32 of each record's 40 payload bytes, computed."""
    return [zlib.crc32(payload[o: o + FOV_RECORD_SIZE])
            for o in range(offset, offset + count * FOV_RECORD_SIZE_V2,
                           FOV_RECORD_SIZE_V2)]


def _raise_first_bad_record(payload: bytes, offset: int, fields: np.ndarray,
                            sem_ok: np.ndarray) -> NoReturn:
    """Name the first record that failed a check.  Within that record
    its checksum is judged first, then :func:`decode_fov` on its 40
    bytes supplies the semantic message."""
    crc_bad = fields["crc"] != np.array(
        _record_crcs(payload, offset, len(fields)), dtype=np.uint32)
    i = int(np.argmax(crc_bad | ~sem_ok))
    if crc_bad[i]:
        raise ValueError(f"record {i} failed its checksum")
    start = offset + i * FOV_RECORD_SIZE_V2
    try:
        decode_fov(payload[start: start + FOV_RECORD_SIZE])
    except ValueError as exc:
        raise ValueError(f"record {i}: {exc}") from None
    raise ValueError(f"record {i} failed validation")  # pragma: no cover


def decode_bundle_columns(payload: bytes) -> BundleColumns:
    """Inverse of :func:`encode_bundle`, as columns; the only bundle
    decoder.

    Raises ``ValueError`` -- and only ``ValueError`` -- on any
    malformed input: bad magic (``FOV1`` included), unsupported
    version, truncation, trailing bytes, checksum mismatch, an
    undecodable video id or one containing NUL, or a record failing
    semantic validation.
    """
    if len(payload) < _HEADER.size:
        raise ValueError("bundle shorter than its header")
    magic, version, vid_len, count = _HEADER.unpack_from(payload, 0)
    if magic != BUNDLE_MAGIC_V2:
        raise ValueError(f"bad magic {magic!r}")
    if version != 2:
        raise ValueError(f"unsupported bundle version {version}")
    video_id, offset = _validate_envelope(payload, vid_len, count)

    fields = np.frombuffer(payload, dtype=_RECORD_DTYPE, count=count,
                           offset=offset)
    lat = fields["lat"].astype(np.float64)
    lng = fields["lng"].astype(np.float64)
    theta = fields["theta"].astype(np.float64)
    t_start = fields["t_start"].astype(np.float64)
    t_end = fields["t_end"].astype(np.float64)

    crc_ok = fields["crc"].tolist() == _record_crcs(payload, offset, count)
    # NaNs compare False everywhere, so the finiteness terms are what
    # keep a NaN coordinate from slipping through the range terms.
    sem_ok = (np.isfinite(lat) & np.isfinite(lng) & np.isfinite(theta)
              & np.isfinite(t_start) & np.isfinite(t_end)
              & (lat >= -90.0) & (lat <= 90.0)
              & (lng >= -180.0) & (lng <= 180.0)
              & (theta >= 0.0) & (theta <= 360.0)
              & (t_end >= t_start))
    if not (crc_ok and sem_ok.all()):
        _raise_first_bad_record(payload, offset, fields, sem_ok)
    return BundleColumns(video_id=video_id, lat=lat, lng=lng, theta=theta,
                         t_start=t_start, t_end=t_end,
                         segment_ids=fields["seg_id"].astype(np.int64))


def decode_bundle(payload: bytes) -> tuple[str, list[RepresentativeFoV]]:
    """:func:`decode_bundle_columns` as ``(video_id, records)``; raises
    exactly what it raises."""
    columns = decode_bundle_columns(payload)
    return columns.video_id, list(columns)


def bundle_size(video_id: str, n_records: int) -> int:
    """Wire size in bytes of a bundle without materialising it."""
    vid_len = len(video_id.encode("utf-8"))
    return _V2_HEADER_SIZE + vid_len + n_records * FOV_RECORD_SIZE_V2
