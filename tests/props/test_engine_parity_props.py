"""Hypothesis property tests: every engine ranks identically.

The oracle (:func:`repro.core.oracle.answer`), the packed (batched)
engine and the geo-sharded scatter-gather tier are three layouts of the
same retrieval pipeline; for any workload they must return *identical*
ranked results -- same records, same order, same scores and funnel
counters -- across random camera parameters, shard counts 1-8, and
degenerate placements (duplicate positions forcing score ties,
everything in one cell, shards with no records at all).

Positions are drawn from a coarse metre lattice so exact duplicates
(and therefore exact score ties) are common, pinning the canonical
tie-break rather than dodging it.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.oracle import answer
from repro.core.query import Query
from repro.core.server import CloudServer, IngestStatus
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection
from repro.net.protocol import encode_bundle
from repro.shard import ShardedCloudServer
from repro.video import VideoQuery, retrieve_videos

ORIGIN = GeoPoint(lat=40.0, lng=116.3)
PROJ = LocalProjection(ORIGIN)

# Coarse lattices: a handful of distinct values makes collisions (and
# therefore exact distance/score ties) the norm, not the exception.
lattice_m = st.integers(-6, 6).map(lambda k: 137.0 * k)
theta_deg = st.sampled_from([0.0, 45.0, 90.0, 180.0, 270.0, 315.0])
t_edge = st.integers(0, 8).map(lambda k: 600.0 * k)


@st.composite
def records(draw, n_min=0, n_max=40):
    n = draw(st.integers(n_min, n_max))
    out = []
    for i in range(n):
        x = draw(lattice_m)
        y = draw(lattice_m)
        t0 = draw(t_edge)
        dt = draw(st.integers(1, 4)) * 300.0
        p = PROJ.to_geo(x, y)
        out.append(RepresentativeFoV(
            lat=p.lat, lng=p.lng, theta=draw(theta_deg),
            t_start=t0, t_end=t0 + dt,
            video_id=f"v{draw(st.integers(0, 5))}", segment_id=i))
    return out


@st.composite
def queries(draw, n_min=1, n_max=6):
    n = draw(st.integers(n_min, n_max))
    out = []
    for _ in range(n):
        x = draw(lattice_m)
        y = draw(lattice_m)
        t0 = draw(t_edge)
        p = PROJ.to_geo(x, y)
        out.append(Query(
            t_start=t0, t_end=t0 + draw(st.integers(1, 6)) * 600.0,
            center=p, radius=draw(st.sampled_from([50.0, 200.0, 600.0])),
            top_n=draw(st.integers(1, 8))))
    return out


cameras = st.builds(
    CameraModel,
    half_angle=st.sampled_from([15.0, 30.0, 60.0]),
    radius=st.sampled_from([20.0, 100.0, 400.0]),
)


def ranking(result):
    """Full observable identity of one answer."""
    return (result.candidates, result.after_filter,
            [(r.fov.key(), r.distance, r.covers, r.score)
             for r in result.ranked])


@settings(max_examples=50, deadline=None)
@given(records(), queries(), cameras,
       st.integers(1, 8), st.booleans(),
       st.sampled_from([150.0, 500.0, 2000.0]), st.integers(0, 3))
def test_dynamic_packed_sharded_identical(recs, qs, camera, n_shards,
                                          strict, cell_m, seed):
    """The oracle (the old dynamic engine's path), the packed server and
    every sharding rank every query identically."""
    packed = CloudServer(camera, strict_cover=strict, cache_size=0)
    sharded = ShardedCloudServer(camera, n_shards=n_shards, origin=ORIGIN,
                                 cell_m=cell_m, seed=seed,
                                 strict_cover=strict, cache_size=0)
    if recs:
        packed.ingest(recs)
        sharded.ingest(recs)

    base = [ranking(answer(packed.index, q, camera, strict)) for q in qs]
    assert [ranking(r) for r in packed.query_many(qs)] == base
    assert [ranking(r) for r in sharded.query_many(qs)] == base
    # Single-query path agrees with its own batch path.
    assert [ranking(sharded.query(q)) for q in qs] == base


@st.composite
def video_queries(draw, recs):
    """A query trajectory of lattice FoVs plus retrieval parameters."""
    n_segs = draw(st.integers(1, 5))
    x = draw(lattice_m)
    y = draw(lattice_m)
    segs = []
    for s in range(n_segs):
        x += draw(st.sampled_from([-60.0, 0.0, 60.0]))
        y += draw(st.sampled_from([-60.0, 0.0, 60.0]))
        p = PROJ.to_geo(x, y)
        segs.append(RepresentativeFoV(
            lat=p.lat, lng=p.lng, theta=draw(theta_deg),
            t_start=600.0 * s, t_end=600.0 * s + 300.0,
            video_id="query", segment_id=s))
    exclude = draw(st.sampled_from([
        frozenset(), frozenset({f.video_id for f in recs[:1]})]))
    return VideoQuery(
        segments=tuple(segs), t_start=0.0, t_end=5400.0,
        radius=draw(st.sampled_from([100.0, 400.0])),
        top_k=draw(st.integers(1, 8)),
        scorer=draw(st.sampled_from(["lcv", "dtw"])),
        sim_threshold=draw(st.sampled_from([0.1, 0.25, 0.5])),
        per_segment_top_n=64, exclude=exclude)


def video_ranking(result):
    """Full observable identity of one video answer."""
    return (result.videos_considered, result.segments_harvested,
            [tuple(m) for m in result.ranked],
            [f.key() for f in result.harvested])


@settings(max_examples=40, deadline=None)
@given(st.data(), records(n_min=1, n_max=40), cameras,
       st.integers(1, 8), st.sampled_from([150.0, 500.0, 2000.0]),
       st.integers(0, 3))
def test_video_retrieval_parity_across_engines(data, recs, camera,
                                               n_shards, cell_m, seed):
    """The video top-k inherits point-query parity: the oracle, packed
    and every sharding of the same records rank videos identically --
    same scores, same evidence, same harvested coverage."""
    vq = data.draw(video_queries(recs))
    packed = CloudServer(camera, cache_size=0)
    sharded = ShardedCloudServer(camera, n_shards=n_shards, origin=ORIGIN,
                                 cell_m=cell_m, seed=seed, cache_size=0)
    packed.ingest(recs)
    sharded.ingest(recs)
    base = video_ranking(retrieve_videos(
        vq, lambda qs: [answer(packed.index, q, camera) for q in qs],
        camera))
    assert video_ranking(packed.query_video(vq)) == base
    assert video_ranking(sharded.query_video(vq)) == base


@settings(max_examples=20, deadline=None)
@given(records(n_min=1, n_max=20), queries(), st.integers(2, 8))
def test_empty_and_degenerate_shards(recs, qs, n_shards):
    """All records in one cell: every other shard is empty, parity holds."""
    camera = CameraModel()
    pinned = [RepresentativeFoV(
        lat=ORIGIN.lat, lng=ORIGIN.lng, theta=f.theta,
        t_start=f.t_start, t_end=f.t_end,
        video_id=f.video_id, segment_id=f.segment_id) for f in recs]
    single = CloudServer(camera, cache_size=0)
    sharded = ShardedCloudServer(camera, n_shards=n_shards, origin=ORIGIN,
                                 cache_size=0)
    single.ingest(pinned)
    sharded.ingest(pinned)
    populated = [len(s) for s in sharded.shards]
    assert sum(1 for n in populated if n > 0) == 1  # truly degenerate
    assert ([ranking(r) for r in sharded.query_many(qs)]
            == [ranking(r) for r in single.query_many(qs)])


@settings(max_examples=15, deadline=None)
@given(records(n_min=2, n_max=30), st.integers(1, 8))
def test_partition_is_total_and_deterministic(recs, n_shards):
    """Every record lands on exactly one shard, the same one every time."""
    sharded = ShardedCloudServer(CameraModel(), n_shards=n_shards,
                                 origin=ORIGIN, cache_size=0)
    sharded.ingest(recs)
    assert sharded.indexed_count == len(recs)
    part = sharded.partitioner
    for f in recs:
        sid = part.shard_of(f)
        assert sid == part.shard_of(f)
        assert f in sharded.shards[sid].records()


@settings(max_examples=25, deadline=None)
@given(records(n_min=1, n_max=30), queries(), st.integers(2, 8),
       st.integers(0, 3))
def test_routing_never_loses_a_shard(recs, qs, n_shards, seed):
    """Conservative pruning: every populated shard with any candidate
    for a query is in the partitioner's target set."""
    sharded = ShardedCloudServer(CameraModel(), n_shards=n_shards,
                                 origin=ORIGIN, seed=seed, cache_size=0)
    sharded.ingest(recs)
    for q in qs:
        targets = set(sharded.partitioner.shards_for_query(q))
        for sid, shard in enumerate(sharded.shards):
            if shard.count_in_range(q) > 0:
                assert sid in targets


@st.composite
def delivery_schedules(draw):
    """Commit groups of fresh, redelivered and bit-flipped bundles."""
    pool = []
    for b in range(draw(st.integers(1, 5))):
        recs = [RepresentativeFoV(
            lat=(p := PROJ.to_geo(draw(lattice_m), draw(lattice_m))).lat,
            lng=p.lng, theta=draw(theta_deg), t_start=0.0, t_end=300.0,
            video_id=f"b{b}", segment_id=i)
            for i in range(draw(st.integers(1, 4)))]
        pool.append(encode_bundle(f"b{b}", recs))
    groups = []
    for _ in range(draw(st.integers(1, 5))):
        group = []
        for _ in range(draw(st.integers(1, 5))):
            payload = draw(st.sampled_from(pool))   # repeats = redeliveries
            if draw(st.integers(0, 3)) == 0:        # corrupted in transit
                at = draw(st.integers(0, len(payload) - 1))
                payload = (payload[:at] + bytes([payload[at] ^ 0x5A])
                           + payload[at + 1:])
            group.append(payload)
        groups.append(group)
    return groups


def offer_batched(server, groups):
    """Commit each group, re-offering its shed tail until it lands."""
    outcomes = []
    for pending in groups:
        while pending:
            acks = server.ingest_batch(pending)
            outcomes += [a for a in acks if a.status is not IngestStatus.SHED]
            pending = [p for p, a in zip(pending, acks)
                       if a.status is IngestStatus.SHED]
    return outcomes


@settings(max_examples=40, deadline=None)
@given(delivery_schedules(), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from([150.0, 2000.0]))
def test_ingest_outcomes_identical_across_paths_and_fleets(
        groups, n_shards, capacity, cell_m):
    """One ingest contract: bundle-at-a-time and commit-group ingest, on
    a single server and on any sharding, acknowledge a delivery
    schedule identically and end in the same state."""
    camera = CameraModel()

    def fleets():
        return (CloudServer(camera, admission_capacity=capacity),
                ShardedCloudServer(camera, n_shards=n_shards, origin=ORIGIN,
                                   cell_m=cell_m,
                                   admission_capacity=capacity))

    # A serial client never saturates admission one bundle at a time; a
    # commit group sheds whatever exceeds the capacity, every round.
    shed = 0
    for group in groups:
        left = len(group)
        while left > capacity:
            left -= capacity
            shed += left
    runs = [(server, [server.ingest_bundle(p) for g in groups for p in g], 0)
            for server in fleets()]
    runs += [(server, offer_batched(server, groups), shed)
             for server in fleets()]

    base, acks, _ = runs[0]
    for server, outcomes, shed_want in runs:
        assert outcomes == acks
        assert (sorted(f.key() for f in server.records())
                == sorted(f.key() for f in base.records()))
        assert server.seen_digests == base.seen_digests
        assert len(server.quarantine) == len(base.quarantine)
        assert (server.quarantine.total_quarantined
                == base.quarantine.total_quarantined)
        assert server.stats.bundles_shed == shed_want
