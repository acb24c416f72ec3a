"""Index snapshots: persist the server's collected records to disk.

A production retrieval service restarts; the collected representative
FoVs must survive.  A snapshot is simply the concatenation of
per-video descriptor bundles (the same wire format clients upload,
:mod:`repro.net.protocol`), wrapped in a small header with a record
count and a CRC32 -- so the on-disk format is the on-wire format, and
loading is one batch append (:meth:`FoVIndex.bulk`): the R-tree, if a
reader ever asks for it, is STR bulk-built then (O(n log n)) rather
than by n inserts.
"""

from __future__ import annotations

import struct
import zlib
from collections import defaultdict
from pathlib import Path

from repro.core.fov import RepresentativeFoV
from repro.core.index import FoVIndex
from repro.net.protocol import (decode_bundle, deframe_bundles, encode_bundle,
                                frame_bundles)
from repro.spatial.rtree import RTreeConfig

__all__ = ["save_snapshot", "load_snapshot", "SNAPSHOT_MAGIC"]

SNAPSHOT_MAGIC = b"FOVSNAP1"
_HEADER = struct.Struct("<8sII")   # magic, bundle count, payload crc32


def save_snapshot(path, fovs: list[RepresentativeFoV]) -> int:
    """Write all records to ``path``; returns bytes written.

    Records are grouped by ``video_id`` into bundles; order within a
    video is preserved, videos are written in first-seen order.
    """
    groups: dict[str, list[RepresentativeFoV]] = defaultdict(list)
    for fov in fovs:
        groups[fov.video_id].append(fov)
    bundles = [encode_bundle(vid, records) for vid, records in groups.items()]
    payload = frame_bundles(bundles)
    blob = _HEADER.pack(SNAPSHOT_MAGIC, len(bundles),
                        zlib.crc32(payload)) + payload
    Path(path).write_bytes(blob)
    return len(blob)


def load_snapshot(path, rtree_config: RTreeConfig | None = None
                  ) -> tuple[FoVIndex, list[RepresentativeFoV]]:
    """Load a snapshot into a fresh index (:meth:`FoVIndex.bulk`).

    Returns ``(index, records)``; raises ``ValueError`` on a corrupt or
    truncated file (magic, CRC and length are all checked).
    """
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise ValueError("snapshot shorter than its header")
    magic, n_bundles, crc = _HEADER.unpack_from(blob, 0)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"bad snapshot magic {magic!r}")
    payload = blob[_HEADER.size:]
    if zlib.crc32(payload) != crc:
        raise ValueError("snapshot payload failed its CRC check")

    frames = deframe_bundles(payload)
    if len(frames) != n_bundles:
        raise ValueError(
            f"snapshot holds {len(frames)} bundles, header says {n_bundles}"
        )
    records: list[RepresentativeFoV] = []
    for frame in frames:
        _, fovs = decode_bundle(frame)
        records.extend(fovs)
    return FoVIndex.bulk(records, rtree_config=rtree_config), records
