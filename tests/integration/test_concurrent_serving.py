"""Concurrent serving: ingest and query threads interleaving safely.

The sharded tier serves queries while upload bundles land.  These tests
hammer one :class:`ShardedCloudServer` -- a four-shard fleet, and a
``CloudServer``, the fleet of one -- from writer and reader threads and
pin the concurrency contract:

* **No torn bundles.**  Half the bundles sit at one point, so their
  records land on one shard; the other half straddle a shard boundary,
  so they land on two shards, one ``insert_many`` each.  A read answers
  from one published fleet state, and a write publishes only once
  every shard has landed, so a concurrent reader must see each bundle
  all-or-nothing: either every record of a video matches, or none.
* **Accounting reconciles exactly.**  Every query passes the result
  cache exactly once, so ``cache.hits + cache.misses ==
  queries_served`` -- regardless of interleaving -- and fleet-wide
  ingest dedup keeps redelivered bundles exactly-once.
* **No torn cache.**  Entries are cached under the publication they
  were computed from, so once writers stop, answers are bit-identical
  to a fresh single server over the same records.
"""

import sys
import threading

from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.query import Query
from repro.core.server import CloudServer, IngestStatus
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection
from repro.net.protocol import encode_bundle
from repro.shard import GridPartitioner, ShardedCloudServer

ORIGIN = GeoPoint(lat=40.0, lng=116.3)
PROJ = LocalProjection(ORIGIN)

N_WRITERS = 4
BUNDLES_PER_WRITER = 6
RECORDS_PER_BUNDLE = 12
HORIZON_S = 3600.0
#: The four-shard fleet's routing, to place bundles across a boundary.
ROUTING = GridPartitioner(n_shards=4, origin=ORIGIN)


def _straddle(x: float, y: float) -> float:
    """The first x at or east of ``x`` whose points 10 m west and east
    of it land on two shards of the four-shard fleet."""
    while True:
        west, east = PROJ.to_geo(x - 10.0, y), PROJ.to_geo(x + 10.0, y)
        sids = ROUTING.shards_of([west.lat, east.lat], [west.lng, east.lng])
        if sids[0] != sids[1]:
            return x
        x += 5.0


def _bundle(writer: int, b: int) -> tuple[str, bytes, Query]:
    """One bundle plus a query that matches all its records.

    Each (writer, bundle) pair gets its own lattice point far from its
    neighbours (>= 900 m, beyond any camera radius used here), so a
    query centred there matches exactly that bundle's records.  An even
    bundle sits at the point; an odd one is moved east to a shard
    boundary and straddles it, half its records 10 m west of the query
    centre looking east, half 10 m east looking west.
    """
    video_id = f"w{writer}-b{b}"
    x = 900.0 * (writer + 1)
    y = 900.0 * (b + 1)
    if b % 2:
        x = _straddle(x, y)
    p = PROJ.to_geo(x, y)
    fovs = []
    for i in range(RECORDS_PER_BUNDLE):
        if b % 2:
            side = -1.0 if i % 2 else 1.0
            at = PROJ.to_geo(x + 10.0 * side, y)
            theta = 270.0 if side > 0 else 90.0
        else:
            at, theta = p, float(37 * i % 360)
        fovs.append(RepresentativeFoV(
            lat=at.lat, lng=at.lng, theta=theta, t_start=0.0,
            t_end=HORIZON_S, video_id=video_id, segment_id=i))
    query = Query(t_start=0.0, t_end=HORIZON_S, center=p, radius=50.0,
                  top_n=RECORDS_PER_BUNDLE * 2)
    return video_id, encode_bundle(video_id, fovs), query


def test_interleaved_ingest_and_query():
    camera = CameraModel()
    _hammer(ShardedCloudServer(camera, n_shards=4, origin=ORIGIN,
                               cache_size=256), camera)


def test_interleaved_ingest_and_query_on_one_server():
    """A ``CloudServer`` is a fleet of one whose reads answer from slot
    0's published state: the same contract holds."""
    camera = CameraModel()
    _hammer(CloudServer(camera, cache_size=256), camera)


def _hammer(server, camera):
    """Writers deliver every bundle twice while readers sweep every
    query, with a short switch interval; then check the contract."""
    plan = [[_bundle(w, b) for b in range(BUNDLES_PER_WRITER)]
            for w in range(N_WRITERS)]
    all_queries = [q for row in plan for _, _, q in row]

    start = threading.Barrier(N_WRITERS + 2)
    errors: list[BaseException] = []
    torn: list[str] = []
    outcomes: list[IngestStatus] = []
    outcome_lock = threading.Lock()
    writers_done = threading.Event()

    def writer(w: int) -> None:
        try:
            start.wait()
            for _, payload, _ in plan[w]:
                # Deliver twice: at-least-once transport; the redelivery
                # must dedup fleet-wide even under contention.
                first = server.ingest_bundle(payload)
                second = server.ingest_bundle(payload)
                with outcome_lock:
                    outcomes.extend([first.status, second.status])
        except BaseException as exc:  # noqa: BLE001 - surfaced in main thread
            errors.append(exc)

    def reader() -> None:
        try:
            start.wait()
            while not writers_done.is_set():
                for result in server.query_many(all_queries):
                    per_video: dict[str, int] = {}
                    for row in result.ranked:
                        per_video[row.fov.video_id] = (
                            per_video.get(row.fov.video_id, 0) + 1)
                    for vid, count in per_video.items():
                        if count != RECORDS_PER_BUNDLE:
                            torn.append(f"{vid}: saw {count}")
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(w,))
               for w in range(N_WRITERS)]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads[:N_WRITERS]:
            t.join(timeout=60)
        writers_done.set()
        for t in threads[N_WRITERS:]:
            t.join(timeout=60)
    finally:
        writers_done.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)

    assert not errors, errors
    assert not torn, torn[:10]

    # Exactly-once ingest: every bundle accepted once, redelivery deduped.
    n_bundles = N_WRITERS * BUNDLES_PER_WRITER
    assert outcomes.count(IngestStatus.ACCEPTED) == n_bundles
    assert outcomes.count(IngestStatus.DUPLICATE) == n_bundles
    assert server.indexed_count == n_bundles * RECORDS_PER_BUNDLE
    assert server.stats.records_indexed == n_bundles * RECORDS_PER_BUNDLE

    # The cache ledger reconciles exactly, whatever the interleaving.
    stats = server.stats
    assert stats.cache_hits + stats.cache_misses == stats.queries_served
    assert stats.queries_served > 0

    # Settled answers are bit-identical to a fresh unsharded server,
    # and each query finds its whole bundle, straddling ones included.
    single = CloudServer(camera, cache_size=0)
    single.ingest(server.records())
    sharded_res = server.query_many(all_queries)
    single_res = single.query_many(all_queries)
    assert [len(r.ranked) for r in sharded_res] == (
        [RECORDS_PER_BUNDLE] * len(all_queries))
    for a, b in zip(sharded_res, single_res):
        assert a.candidates == b.candidates
        assert a.after_filter == b.after_filter
        assert ([(r.fov.key(), r.distance, r.covers, r.score)
                 for r in a.ranked]
                == [(r.fov.key(), r.distance, r.covers, r.score)
                    for r in b.ranked])


def test_cache_ledger_reconciles_with_mutating_fleet():
    """Hits + misses == queries served, across cold, warm and
    invalidated rounds (a shard mutating must not break the ledger)."""
    camera = CameraModel()
    server = ShardedCloudServer(camera, n_shards=3, origin=ORIGIN,
                                cache_size=64)
    vid, payload, query = _bundle(0, 0)
    assert server.ingest_bundle(payload).status is IngestStatus.ACCEPTED

    server.query_many([query, query])     # cold round: both miss
    server.query_many([query])            # warm hit
    _, payload2, query2 = _bundle(1, 1)
    server.ingest_bundle(payload2)        # bumps one shard's epoch
    server.query_many([query, query2])    # vector changed: misses again

    stats = server.stats
    assert stats.queries_served == 5
    assert stats.cache_hits + stats.cache_misses == 5
    assert stats.cache_hits >= 1          # the warm round must hit
