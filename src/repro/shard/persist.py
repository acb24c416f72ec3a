"""Sharded snapshots: a fleet's standbys on disk, reloaded by promotion.

A directory of ``shard-NNN.fovpack`` files -- one standby segment per
shard, the ``FOVPACK1`` buffer (:mod:`repro.core.flatsnap`) that
:meth:`ShardedCloudServer.capture_shard` hands a warm standby -- and a
``manifest.json``: the routing parameters ``(n_shards, origin, cell_m,
seed)``, each file's standby manifest (``epoch``, ``records``,
``sha256``), and the landed bundles' ``digests`` with their own
``digests_sha256``.  Reload promotes each file into its slot with the
standby check-and-rebuild, refuses a row the saved routing parameters
place on another shard (a tampered seed or ``cell_m``), and restores
the digests, so ingest stays exactly-once across it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core.camera import CameraModel
from repro.geo.coords import GeoPoint
from repro.shard.partition import GridPartitioner
from repro.shard.replica import (ReplicaManifest, ReplicaSegment, _pinned,
                                 _verified_index)
from repro.shard.server import ShardedCloudServer

__all__ = ["save_sharded_snapshot", "load_sharded_snapshot",
           "MANIFEST_NAME", "MANIFEST_FORMAT"]

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "fov-sharded-snapshot-v2"


def _digests_sha256(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def save_sharded_snapshot(dirpath: str | Path,
                          server: ShardedCloudServer) -> int:
    """Write every shard's records plus the manifest; returns total bytes.

    The directory is created if missing; empty shards still get a
    (valid, empty) file.  The shards and digests are read as one state
    (:meth:`ShardedCloudServer.capture_fleet`, which raises
    :class:`~repro.shard.server.ShardUnavailableError` while any
    primary is down, before anything is written).
    """
    captures, digests = server.capture_fleet()
    root = Path(dirpath)
    root.mkdir(parents=True, exist_ok=True)
    part = server.partitioner
    total = 0
    rows: list[dict[str, object]] = []
    for sid, capture in enumerate(captures):
        pin = _pinned(sid, capture, 0).manifest
        name = f"shard-{sid:03d}.fovpack"
        total += (root / name).write_bytes(capture.packed)
        rows.append({"packed": name, "epoch": pin.epoch,
                     "records": pin.records, "sha256": pin.digest})
    landed = sorted(digests)
    manifest = {
        "format": MANIFEST_FORMAT,
        "n_shards": part.n_shards,
        "origin": {"lat": part.origin.lat, "lng": part.origin.lng},
        "cell_m": part.cell_m,
        "seed": part.seed,
        "shards": rows,
        "digests": landed,
        "digests_sha256": _digests_sha256(landed),
    }
    blob = json.dumps(manifest, indent=2).encode()
    return total + (root / MANIFEST_NAME).write_bytes(blob)


def _field(obj: object, key: str, kind: type | tuple[type, ...]):
    """``obj[key]``, or ``ValueError`` unless it is a ``kind`` (JSON
    booleans never stand in for numbers)."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"manifest field {key!r} is missing or mistyped: "
                         f"{value!r}")
    return value


def _read_manifest(root: Path) -> tuple[
        GridPartitioner, list[tuple[str, ReplicaManifest]], list[str]]:
    """The routing function, each shard's ``(file name, standby
    manifest)`` and the digests; ``ValueError`` on an incoherent
    manifest (absent, not JSON, unknown or v1 format, a missing,
    mistyped or out-of-range field, digests off their sha256)."""
    path = root / MANIFEST_NAME
    if not path.is_file():
        raise ValueError(f"no {MANIFEST_NAME} in {root}")
    manifest = json.loads(path.read_bytes())    # JSONDecodeError is a ValueError
    fmt = manifest.get("format") if isinstance(manifest, dict) else None
    if fmt == "fov-sharded-snapshot-v1":
        raise ValueError(f"{path} is a v1 snapshot, which pins no shard "
                         f"file and no bundle digest; re-save the snapshot")
    if fmt != MANIFEST_FORMAT:
        raise ValueError(f"unknown snapshot format in {path}")
    origin = _field(manifest, "origin", dict)
    part = GridPartitioner(
        n_shards=_field(manifest, "n_shards", int),
        origin=GeoPoint(lat=float(_field(origin, "lat", (int, float))),
                        lng=float(_field(origin, "lng", (int, float)))),
        cell_m=float(_field(manifest, "cell_m", (int, float))),
        seed=_field(manifest, "seed", int))
    rows = _field(manifest, "shards", list)
    if len(rows) != part.n_shards:
        raise ValueError(f"manifest lists {len(rows)} shard files for "
                         f"{part.n_shards} shards")
    shards = [(_field(row, "packed", str), ReplicaManifest(
        shard_id=sid, epoch=_field(row, "epoch", int),
        records=_field(row, "records", int),
        digest=_field(row, "sha256", str))) for sid, row in enumerate(rows)]
    digests = _field(manifest, "digests", list)
    if not all(isinstance(d, str) for d in digests):
        raise ValueError("manifest digests must be strings")
    if _digests_sha256(digests) != _field(manifest, "digests_sha256", str):
        raise ValueError("manifest digests disagree with their sha256")
    return part, shards, digests


def load_sharded_snapshot(dirpath: str | Path, camera: CameraModel,
                          cache_size: int = 1024) -> ShardedCloudServer:
    """Rebuild a :class:`ShardedCloudServer` from a snapshot directory.

    Routing parameters come from the manifest (so the reloaded fleet
    routes exactly like the one that saved it); the camera and the
    cache size come from the caller.  Raises ``ValueError`` on a
    missing, incoherent or v1 manifest, a file failing its sha256, CRC,
    record count or epoch, or a row the saved routing parameters place
    on another shard.
    """
    root = Path(dirpath)
    part, shards, digests = _read_manifest(root)
    server = ShardedCloudServer(
        camera, n_shards=part.n_shards, origin=part.origin,
        cell_m=part.cell_m, seed=part.seed, cache_size=cache_size)
    for sid, (name, pin) in enumerate(shards):
        if not (root / name).is_file():
            raise ValueError(f"manifest names {name!r}, not a file in {root}")
        segment = ReplicaSegment(pin, (root / name).read_bytes())
        index = _verified_index(sid, [segment], pin.epoch, pin.records)
        columns = index.record_columns()
        if (part.shards_of(columns.lat, columns.lng) != sid).any():
            raise ValueError(
                f"shard file {name!r} holds rows that the manifest's "
                f"routing parameters place on another shard")
        server._place(sid, index)
    # The saved bundles' redeliveries ack DUPLICATE; the fleet is not
    # shared yet, so its digest lock is not taken.
    server._seen.update(digests)
    return server
