"""The serving import graph must not reach the Section V tree family,
nor any process-pool or shared-memory module.

Runs in a fresh interpreter so modules other tests imported cannot mask
a leak, and checks ``sys.modules`` after *using* the stack, so it sees
transitive and package ``__init__`` imports a per-file lint cannot.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_SCRIPT = r"""
import sys

import numpy as np

import repro.cli
from repro.core.camera import CameraModel
from repro.core.query import Query
from repro.core.retrieval import RetrievalEngine
from repro.geo.coords import GeoPoint
from repro.shard.server import ShardedCloudServer
from repro.traces.dataset import random_representative_fovs

TREES = {"repro.spatial." + m for m in (
    "rtree", "split", "bulk", "knn", "hybrid", "intervaltree", "metrics",
    "packed")}
# Scaling out is the geo-partitioned router's job; no process pool or
# shared-memory segment sits on the serving path.
PROCESS_FANOUT = {"multiprocessing", "multiprocessing.shared_memory",
                  "concurrent.futures.process"}

recs = random_representative_fovs(50, np.random.default_rng(7))
camera = CameraModel()
fleet = ShardedCloudServer(camera, n_shards=4, origin=recs[0].point)
fleet.ingest(recs)
queries = [Query(t_start=0.0, t_end=86400.0, center=r.point, radius=300.0)
           for r in recs[:8]]
assert any(len(fleet.query(q)) for q in queries)
assert len(fleet.query_many(queries)) == len(queries)
leaked = sorted(TREES & set(sys.modules))
assert not leaked, f"serving path imported {leaked}"
spawned = sorted(PROCESS_FANOUT & set(sys.modules))
assert not spawned, f"serving path imported {spawned}"

index = max(fleet.shards, key=len)
index.rtree()
index.nearest(recs[0].point, 0.0, k=3)
ranked = 0
for q in queries:
    dynamic = RetrievalEngine(index, camera, engine="dynamic").execute(q)
    packed = RetrievalEngine(index, camera, engine="packed").execute(q)
    assert dynamic.ranked == packed.ranked
    ranked += len(packed)
assert ranked, "parity check compared only empty rankings"
for m in ("rtree", "split", "bulk", "knn"):
    assert "repro.spatial." + m in sys.modules, m
"""


def test_serving_stack_never_imports_the_tree_family():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
