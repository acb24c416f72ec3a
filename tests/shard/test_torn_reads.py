"""A read sees a cross-shard write whole: all of it or none of it.

A write lands shard by shard under the fleet's log-order lock, and
publishes the new fleet state in one assignment once every shard has
changed; a read takes that publication once per call
(docs/SHARDING.md §5).  Each test here holds a write between two
shards' changes -- it wraps the ``insert_many`` (or
``evict_older_than``) of the last shard the write changes, which runs
after every other shard's -- and reads the fleet from inside the hook:

* ``query``, ``query_many`` and a video harvest (``query_video``) must
  each answer exactly as they did before the write;
* after the ack they must answer exactly as a control fleet that was
  given the same writes without a hook, and that differs from before.

The writes are ``ingest``, ``ingest_bundle``, ``ingest_batch`` (a group
of the walking bundle and a small one), and an ``evict_older_than``
whose cutoff removes rows on several shards.  The walking bundle is
400 records along a straight 600 m walk across 100 m cells;
``FUZZ_SEED`` (set by the CI fuzz-smoke matrix) picks where it starts
and where it heads, so the shards it straddles change with the seed.

A read held inside a landing also finds the owner of every video it
returns: owners are registered before the publication.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.pipeline import ClientPipeline
from repro.core.query import Query
from repro.core.server import CloudServer
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection
from repro.net.protocol import encode_bundle
from repro.shard import ShardedCloudServer
from repro.traces.noise import SensorNoiseModel
from repro.traces.scenarios import walk_scenario
from repro.video.retrieval import VideoQuery

from tests.shard.test_sharded_server import make_records

FUZZ_SEED = int(os.environ.get("FUZZ_SEED", "0"))
ORIGIN = GeoPoint(lat=40.0, lng=116.3)
PROJ = LocalProjection(ORIGIN)
CAMERA = CameraModel()
N_SHARDS = 4
CELL_M = 100.0
WALK = 400
CUTOFF = 200.0          # evicts the walk's first 199 records, and more


def walk(seed: int) -> list[RepresentativeFoV]:
    """The walking bundle: one record a second at 1.5 m/s, looking
    ahead, from a start and heading drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    x0, y0 = rng.uniform(-300.0, 300.0, size=2)
    heading = float(rng.uniform(0.0, 360.0))
    dx, dy = math.sin(math.radians(heading)), math.cos(math.radians(heading))
    out = []
    for i in range(WALK):
        p = PROJ.to_geo(float(x0 + 1.5 * i * dx), float(y0 + 1.5 * i * dy))
        out.append(RepresentativeFoV(
            lat=p.lat, lng=p.lng, theta=heading, t_start=float(i),
            t_end=float(i + 1), video_id="walk", segment_id=i))
    return out


def fleet() -> ShardedCloudServer:
    """A fleet holding 300 background records, with no result cache,
    so that every read runs the funnel."""
    srv = ShardedCloudServer(CAMERA, n_shards=N_SHARDS, origin=ORIGIN,
                             cell_m=CELL_M, cache_size=0)
    srv.ingest(make_records(300, np.random.default_rng(FUZZ_SEED + 100),
                            extent_m=600.0))
    return srv


def shards_of(srv: ShardedCloudServer,
              records: list[RepresentativeFoV]) -> list[int]:
    """The shards ``records`` land on, in landing order."""
    sids = srv.partitioner.shards_of([r.lat for r in records],
                                     [r.lng for r in records])
    return sorted(set(sids.tolist()))


def reads(srv: ShardedCloudServer, records: list[RepresentativeFoV]):
    """One ``query``, one ``query_many`` batch and one video query
    over ``records``' ground, as comparable rows."""
    mid = records[len(records) // 2]
    wide = Query(t_start=0.0, t_end=4000.0, center=mid.point, radius=700.0,
                 top_n=2000)
    batch = [Query(t_start=0.0, t_end=4000.0, center=r.point, radius=60.0,
                   top_n=30) for r in records[::50]]
    video = VideoQuery(segments=tuple(records[::40]), t_start=0.0,
                       t_end=4000.0, radius=80.0, top_k=5)

    def rows(result):
        return (result.candidates, result.after_filter,
                [(r.fov.key(), r.distance, r.covers, r.score)
                 for r in result.ranked])

    found = srv.query_video(video)
    return (rows(srv.query(wide)), [rows(r) for r in srv.query_many(batch)],
            (found.ranked, found.harvested))


def held(index, method: str, during):
    """Wrap ``index``'s ``method`` so that ``during()`` runs first."""
    inner = getattr(index, method)

    def hook(*args):
        during()
        return inner(*args)

    setattr(index, method, hook)


WALKED = walk(FUZZ_SEED)
#: The small bundle that shares ``ingest_batch``'s commit group.
EXTRA = make_records(20, np.random.default_rng(3), extent_m=300.0)

#: Each landing, as a function of the fleet and the walk.
LANDINGS = {
    "ingest": lambda srv, recs: srv.ingest(recs),
    "ingest_bundle": lambda srv, recs: srv.ingest_bundle(
        encode_bundle("walk", recs)).records_indexed,
    "ingest_batch": lambda srv, recs: sum(
        o.records_indexed for o in srv.ingest_batch(
            [encode_bundle("walk", recs), encode_bundle("extra", EXTRA)])),
}


def test_the_walk_straddles_shards():
    """The precondition of every test below, for this seed."""
    assert len(shards_of(fleet(), WALKED)) >= 2


@pytest.mark.parametrize("write", sorted(LANDINGS))
def test_a_read_held_inside_a_landing_sees_none_of_it(write):
    srv, control = fleet(), fleet()
    before = reads(srv, WALKED)
    LANDINGS[write](control, WALKED)
    after = reads(control, WALKED)
    assert after != before
    last = max(shards_of(srv, WALKED + (EXTRA if write == "ingest_batch"
                                        else [])))
    inside = []
    held(srv.shards[last], "insert_many",
         lambda: inside.append(reads(srv, WALKED)))
    try:
        assert LANDINGS[write](srv, WALKED) >= WALK
    finally:
        del srv.shards[last].insert_many
    assert inside == [before]
    assert reads(srv, WALKED) == after


def test_a_read_held_inside_an_eviction_sees_none_of_it():
    srv, control = fleet(), fleet()
    for fleet_ in (srv, control):
        fleet_.ingest(WALKED)
    before = reads(srv, WALKED)
    evicted = control.evict_older_than(CUTOFF)
    after = reads(control, WALKED)
    assert evicted and after != before
    changed = [sid for sid in range(N_SHARDS)
               if any(r.t_end < CUTOFF for r in srv.shards[sid].records())]
    assert len(changed) >= 2
    inside = []
    held(srv.shards[changed[-1]], "evict_older_than",
         lambda: inside.append(reads(srv, WALKED)))
    try:
        assert srv.evict_older_than(CUTOFF) == evicted
    finally:
        del srv.shards[changed[-1]].evict_older_than
    assert inside == [before]
    assert reads(srv, WALKED) == after


@pytest.mark.parametrize("path", ["ingest_bundle", "ingest_batch"])
def test_a_read_that_returns_a_video_can_fetch_its_segments(path):
    """A read held inside the landing, after the fleet published it,
    returns the new video, and its segment fetch finds the owner."""
    client = ClientPipeline("alice", CAMERA)
    bundle = client.record_trace(walk_scenario(
        duration_s=60, fps=10, noise=SensorNoiseModel.ideal()))
    first = bundle.representatives[0]
    srv = CloudServer(CAMERA, cache_size=0)
    srv.register_client(client)
    land = srv._land
    fetched = []

    def landed(columns):
        n = land(columns)
        result = srv.query(Query(t_start=0.0, t_end=60.0,
                                 center=first.point, radius=500.0))
        assert result.ranked
        fetched.extend(srv.fetch_segment(r.fov) for r in result.ranked)
        return n

    srv._land = landed
    if path == "ingest_bundle":
        srv.ingest_bundle(bundle.payload, device_id="alice")
    else:
        srv.ingest_batch([bundle.payload], ["alice"])
    del srv._land
    assert fetched and all(len(seg.records) >= 1 for seg in fetched)
