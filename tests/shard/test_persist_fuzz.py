"""Fuzzing a saved snapshot directory: damage loads exactly or is refused.

A deterministic seed-matrix sweep (the CI fuzz-smoke job sets
``FUZZ_SEED``, one job per seed; a red run reproduces locally with
``FUZZ_SEED=<n> pytest <this file>``).  Each round restores a pristine
directory, applies one mutation -- flip, truncate or extend a
``.fovpack``; drop or retype a manifest key at any depth -- and loads
it as a fleet and file by file.  The contract: every mutation either
loads to the saved fleet's per-shard content digests and bundle digests
(and each file to exactly its shard's records, in row order) or raises
``ValueError``; never ``KeyError``/``TypeError``/``OSError``, never a
silently shorter, differently-sharded or forgetful fleet.
"""

import json
import os

import numpy as np
import pytest

from repro.core.camera import CameraModel
from repro.core.flatsnap import load_snapshot_file
from repro.core.fov import RepresentativeFoV
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection
from repro.net.protocol import encode_bundle
from repro.shard import (ShardedCloudServer, load_sharded_snapshot,
                         save_sharded_snapshot)
from repro.shard.persist import MANIFEST_NAME

FUZZ_SEED = int(os.environ.get("FUZZ_SEED", "0"))
ORIGIN = GeoPoint(lat=40.0, lng=116.3)
CAMERA = CameraModel()
N_SHARDS = 4
ROUNDS = 120

#: What a retyped manifest value becomes (JSON's other types).
RETYPES = (None, True, 1.5, "x", [], {})


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """``(files, digests, rows)`` of one saved fleet: name -> bytes of
    every file in the directory, the per-shard content digests plus the
    bundle digests, and each shard's records in row order."""
    proj = LocalProjection(ORIGIN)
    rng = np.random.default_rng(1234)
    records = []
    for i in range(240):
        x, y = rng.uniform(-3000.0, 3000.0, size=2)
        g = proj.to_geo(float(x), float(y))
        t0 = float(rng.uniform(0.0, 3000.0))
        records.append(RepresentativeFoV(
            lat=g.lat, lng=g.lng, theta=float(rng.uniform(0.0, 360.0)),
            t_start=t0, t_end=t0 + 30.0,
            video_id=("v", "cam-07", "视频-三")[i % 3] + str(i % 11),
            segment_id=i))
    fleet = ShardedCloudServer(CAMERA, n_shards=N_SHARDS, origin=ORIGIN,
                               seed=3)
    fleet.ingest(records[:200])
    fleet.ingest_batch([encode_bundle(f"b{i}", records[i:i + 10])
                        for i in range(200, 240, 10)])
    root = tmp_path_factory.mktemp("saved")
    save_sharded_snapshot(root, fleet)
    files = {p.name: p.read_bytes() for p in root.iterdir()}
    assert len(files) == N_SHARDS + 1       # one file per shard + manifest
    assert len(json.loads(files[MANIFEST_NAME])["digests"]) == 4
    return (files, fingerprint(fleet), [s.records() for s in fleet.shards])


def fingerprint(fleet):
    return ([s.content_digest() for s in fleet.shards],
            fleet.seen_digests)


def restore(root, files):
    for name, blob in files.items():
        (root / name).write_bytes(blob)


def check_loads_exactly_or_refuses(root, digests, rows) -> bool:
    """Load the fleet, then each shard file on its own; returns whether
    anything was refused."""
    refused = False
    try:
        fleet = load_sharded_snapshot(root, CAMERA)
    except ValueError:
        refused = True
    else:
        assert fingerprint(fleet) == digests
    # A file read on its own is not re-routed, so it is held to the
    # records its shard saved, in row order.
    for sid, want in enumerate(rows):
        try:
            columns = load_snapshot_file(root / f"shard-{sid:03d}.fovpack")
        except ValueError:
            refused = True
        else:
            assert list(columns) == want
    return refused


def mutate_pack(blob: bytes, rng) -> bytes:
    kind = int(rng.integers(0, 4))
    if kind == 0:                           # flip one bit anywhere
        bad = bytearray(blob)
        bad[int(rng.integers(0, len(bad)))] ^= 1 << int(rng.integers(0, 8))
        return bytes(bad)
    if kind == 1:                           # overwrite a run with noise
        bad = bytearray(blob)
        at = int(rng.integers(0, len(bad)))
        run = rng.integers(0, 256, size=int(rng.integers(1, 64)),
                           dtype=np.uint8).tobytes()
        bad[at: at + len(run)] = run
        return bytes(bad[: len(blob)])
    if kind == 2:                           # truncate (possibly to nothing)
        return blob[: int(rng.integers(0, len(blob)))]
    return blob + bytes(int(rng.integers(1, 4096)))     # extend


def test_fovpack_byte_mutations(saved, tmp_path):
    files, digests, rows = saved
    rng = np.random.default_rng(FUZZ_SEED)
    packs = sorted(n for n in files if n.endswith(".fovpack"))
    refused = 0
    for _ in range(ROUNDS):
        restore(tmp_path, files)
        victim = packs[int(rng.integers(0, len(packs)))]
        mutated = mutate_pack(files[victim], rng)
        (tmp_path / victim).write_bytes(mutated)
        was_refused = check_loads_exactly_or_refuses(tmp_path, digests, rows)
        # A CRC-32 over the whole buffer plus an exact length: anything
        # that changed a byte must be refused, not merely survive.
        assert was_refused == (mutated != files[victim])
        refused += was_refused
    assert refused > ROUNDS // 2


def manifest_slots(node, path=()):
    """Every ``(path, key)`` at any depth of the manifest."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path, key
        yield from manifest_slots(child, path + (key,))


def test_manifest_key_mutations(saved, tmp_path):
    files, digests, rows = saved
    rng = np.random.default_rng(FUZZ_SEED)
    pristine = json.loads(files[MANIFEST_NAME])
    slots = list(manifest_slots(pristine))
    refused = 0
    # Every slot once dropped, once retyped (the retype drawn per seed).
    for path, key in slots:
        for drop in (True, False):
            restore(tmp_path, files)
            manifest = json.loads(files[MANIFEST_NAME])
            node = manifest
            for step in path:
                node = node[step]
            if drop:
                del node[key]
            else:
                options = [v for v in RETYPES
                           if type(v) is not type(node[key])]
                node[key] = options[int(rng.integers(0, len(options)))]
            (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
            refused += check_loads_exactly_or_refuses(tmp_path, digests,
                                                      rows)
    # Every key is load-bearing: ``epoch``, ``sha256``, ``digests``, each
    # digest entry and ``digests_sha256`` too.
    assert refused == 2 * len(slots)
