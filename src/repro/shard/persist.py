"""Sharded snapshots: persist a fleet as one ``FOVPACK1`` file per shard.

Layout: one directory holding ``shard-NNN.fovpack`` files -- each the
shard's records in the flat, CRC-protected ``FOVPACK1`` buffer
(:mod:`repro.core.flatsnap`), exactly what
:meth:`ShardedCloudServer.capture_shard` hands a warm standby -- plus a
``manifest.json`` recording the routing parameters ``(n_shards,
origin, cell_m, seed)`` and per-shard record counts.  Saving builds no
search structure; :func:`load_sharded_snapshot` rebuilds the fleet the
way replica promotion rebuilds a shard (verified attach -> columns ->
``ingest``, no record object built).

Because routing is a pure function of the manifest's parameters
(:mod:`repro.shard.partition`), reload does not trust the file
boundaries: records are re-routed through the partitioner, which by
determinism lands every record back on the shard whose file held it.
A manifest whose parameters were tampered with therefore cannot
scatter records onto the wrong shards -- the counts check fails
instead.  Only files the manifest names under ``packed`` are read.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.camera import CameraModel
from repro.core.flatsnap import load_snapshot_file
from repro.core.fov import RecordColumns
from repro.geo.coords import GeoPoint
from repro.obs.runtime import Observability
from repro.shard.partition import GridPartitioner
from repro.shard.server import ShardedCloudServer, ShardUnavailableError

__all__ = ["save_sharded_snapshot", "load_sharded_snapshot",
           "MANIFEST_NAME", "MANIFEST_FORMAT"]

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "fov-sharded-snapshot-v1"


def save_sharded_snapshot(dirpath: str | Path,
                          server: ShardedCloudServer) -> int:
    """Write every shard's records plus the manifest; returns total bytes.

    The directory is created if missing.  Each shard is read once,
    under its lock (:meth:`ShardedCloudServer.capture_shard`), so its
    file and manifest count describe the same epoch; empty shards
    still get a (valid, empty) file.  Raises
    :class:`ShardUnavailableError` while any primary is down: a killed
    slot is an empty placeholder, and saving it would write a snapshot
    that reloads cleanly with that shard's data missing.
    """
    down = server.down_shards
    if down:
        raise ShardUnavailableError(min(down))
    root = Path(dirpath)
    root.mkdir(parents=True, exist_ok=True)
    part = server.partitioner
    total = 0
    shard_rows: list[dict[str, object]] = []
    for sid in range(server.n_shards):
        capture = server.capture_shard(sid)
        name = f"shard-{sid:03d}.fovpack"
        total += (root / name).write_bytes(capture.packed)
        shard_rows.append({"packed": name, "records": capture.mark.count})
    manifest = {
        "format": MANIFEST_FORMAT,
        "n_shards": part.n_shards,
        "origin": {"lat": part.origin.lat, "lng": part.origin.lng},
        "cell_m": part.cell_m,
        "seed": part.seed,
        "shards": shard_rows,
        "records_total": sum(int(r["records"]) for r in shard_rows),
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


def _read_manifest(root: Path
                   ) -> tuple[GridPartitioner, list[tuple[str, int]]]:
    """The saved routing function and each shard's ``(file name, record
    count)``; an incoherent manifest (absent, not JSON, unknown format,
    missing, mistyped or out-of-range field, shard list disagreeing
    with ``n_shards``) is a ``ValueError``."""
    path = root / MANIFEST_NAME
    if not path.is_file():
        raise ValueError(f"no {MANIFEST_NAME} in {root}")
    manifest = json.loads(path.read_bytes())    # JSONDecodeError is a ValueError
    if not isinstance(manifest, dict) or \
            manifest.get("format") != MANIFEST_FORMAT:
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
    shards = []
    for sid, row in enumerate(rows):
        if isinstance(row, dict) and "packed" not in row:
            raise ValueError(
                f"shard {sid} has no packed sidecar; re-save the snapshot")
        shards.append((_field(row, "packed", str),
                       _field(row, "records", int)))
    return part, shards


def load_sharded_snapshot(dirpath: str | Path, camera: CameraModel,
                          strict_cover: bool = True, cache_size: int = 1024,
                          obs: Observability | None = None
                          ) -> ShardedCloudServer:
    """Rebuild a :class:`ShardedCloudServer` from a snapshot directory.

    Routing parameters come from the manifest (so the reloaded fleet
    routes exactly like the one that saved it); serving parameters
    (camera, cover rule, cache) come from the caller.  Raises
    ``ValueError`` on a missing/incoherent manifest, a corrupt,
    truncated or extended shard file, a file whose record count
    disagrees with the manifest, or a per-shard count that disagrees
    with the manifest after re-routing.
    """
    root = Path(dirpath)
    part, shards = _read_manifest(root)
    parts: list[RecordColumns] = []
    for name, count in shards:
        if not (root / name).is_file():
            raise ValueError(f"manifest names {name!r}, not a file in {root}")
        columns = load_snapshot_file(root / name)   # CRC, length verified
        if len(columns) != count:
            raise ValueError(
                f"shard file {name!r} holds {len(columns)} records, "
                f"manifest says {count}")
        parts.append(columns)
    server = ShardedCloudServer(
        camera, n_shards=part.n_shards, origin=part.origin,
        cell_m=part.cell_m, seed=part.seed, strict_cover=strict_cover,
        cache_size=cache_size, obs=obs)
    server.ingest(RecordColumns.concat(parts))
    for sid, (_, count) in enumerate(shards):
        live = len(server.shards[sid])
        if live != count:
            raise ValueError(
                f"re-routing landed {live} records on shard {sid}, "
                f"manifest says {count} -- routing parameters "
                f"disagree with the files"
            )
    return server
