"""The columnar commit path: a commit group lands as columns.

From the wire to the column store -- decode, the group's columns,
``split``, ``insert_many``, standby sync, snapshot save and load,
promotion -- no :class:`RepresentativeFoV` is built.  A row's record is
built the first time a result asks for it, once; objects a caller
hands in are kept as the rows' records.  The tests count constructions
by wrapping ``RepresentativeFoV.__post_init__``, which every
constructor call runs.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.camera import CameraModel
from repro.core.fov import RecordColumns, RepresentativeFoV
from repro.core.index import FoVIndex
from repro.core.query import Query
from repro.core.server import CloudServer
from repro.core.wal import WriteAheadLog
from repro.shard import (ReplicaSet, ShardedCloudServer,
                         load_sharded_snapshot, save_sharded_snapshot)

from tests.net.test_protocol_fuzz import walk_records
from tests.shard.test_failover import (CAMERA, N_SHARDS, ORIGIN, bundles,
                                       make_queries, make_records, rows)


@pytest.fixture
def built(monkeypatch):
    """A list that grows by one per RepresentativeFoV constructed."""
    seen: list[RepresentativeFoV] = []
    original = RepresentativeFoV.__post_init__

    def counted(self):
        seen.append(self)
        original(self)

    monkeypatch.setattr(RepresentativeFoV, "__post_init__", counted)
    return seen


def groups(n_groups=3, per_group=40):
    return [bundles(make_records(per_group, seed=30 + g, tag=f"g{g}"),
                    per=8, tag=f"g{g}") for g in range(n_groups)]


def fleet(wal=None):
    return ShardedCloudServer(CAMERA, n_shards=N_SHARDS, origin=ORIGIN,
                              seed=1, cache_size=16, wal=wal)


def test_commit_sync_save_load_and_promote_build_no_record(built, tmp_path):
    payloads = groups()
    built.clear()
    wal = WriteAheadLog(str(tmp_path / "ingest.wal"))
    srv = fleet(wal)
    replicas = ReplicaSet(srv)
    srv.ingest_batch(payloads[0])
    replicas.sync()                                 # full captures
    for group in payloads[1:]:
        srv.ingest_batch(group)
        replicas.sync()                             # tails
    save_sharded_snapshot(tmp_path / "snap", srv)
    reloaded = load_sharded_snapshot(tmp_path / "snap", CAMERA)
    replicas.kill(1)
    replicas.promote(1)
    wal.close()
    recovered = fleet()
    assert recovered.replay_wal(wal.path) == sum(len(g) for g in payloads)
    single = CloudServer(CAMERA, engine="packed")
    for group in payloads:
        single.ingest_batch(group)
    assert built == []
    assert len(reloaded.records()) == len(recovered.records()) == 120


def test_a_result_builds_each_row_once(built):
    payloads = groups()
    queries = [Query(t_start=0.0, t_end=100.0, center=f.point, radius=50.0,
                     top_n=4) for f in make_records(40, seed=30)[::5]]
    built.clear()
    srv = fleet()
    for group in payloads:
        srv.ingest_batch(group)
    first = [srv.query(q).ranked for q in queries]
    fovs = [r.fov for ranked in first for r in ranked]
    # each shard visit builds its top rows; the merge keeps some
    assert fovs and {id(f) for f in fovs} <= {id(f) for f in built}
    n = len(built)
    srv._clear_result_caches()
    again = [srv.query(q).ranked for q in queries]
    assert again == first and len(built) == n       # the memo answered
    assert all(a.fov is b.fov for x, y in zip(first, again)
               for a, b in zip(x, y))


def test_caller_objects_are_the_results(built):
    recs = make_records(200, seed=3)
    queries = [Query(t_start=0.0, t_end=300.0, center=f.point, radius=80.0)
               for f in recs[::20]]
    built.clear()
    server = CloudServer(CAMERA, engine="packed", cache_size=0)
    server.ingest(recs)
    ids = {id(f) for f in recs}
    answered = [server.query(q).ranked for q in queries]
    assert any(answered)
    assert all(id(r.fov) in ids for ranked in answered for r in ranked)
    assert built == []


def test_columnar_path_equals_the_scalar_decoder():
    """A commit group landed as columns holds and ranks exactly what
    a per-record ``decode_fov`` walk's record objects do when ingested
    one bundle at a time."""
    columnar, scalar = fleet(), fleet()
    for group in groups():
        columnar.ingest_batch(group)
        for payload in group:
            scalar.ingest(walk_records(payload)[1])
    assert ([s.content_digest() for s in columnar.shards]
            == [s.content_digest() for s in scalar.shards])
    for q in make_queries(10, seed=6):
        assert rows(columnar.query(q)) == rows(scalar.query(q))


def test_split_keeps_order_and_caller_objects():
    recs = make_records(90, seed=8)
    parts = fleet().partitioner.split(RecordColumns.of(recs))
    assert sorted((f for p in parts for f in p),
                  key=recs.index) == recs
    for sid, part in enumerate(parts):
        assert [id(f) for f in part] == [
            id(f) for f in recs if fleet().partitioner.shard_of(f) == sid]


def test_columns_that_cannot_materialise_are_refused():
    """A segment ending before it starts fails RepresentativeFoV; as
    columns (a crafted snapshot) it must be refused before landing,
    not stored to fail when a result asks for it."""
    cols = RecordColumns.of(make_records(5, seed=9))
    t_end = cols.t_end.copy()
    t_end[3] = cols.t_start[3] - 1.0
    bad = RecordColumns(lat=cols.lat, lng=cols.lng, theta=cols.theta,
                        t_start=cols.t_start, t_end=t_end,
                        video_ids=cols.video_ids,
                        segment_ids=cols.segment_ids)
    index = FoVIndex()
    with pytest.raises(ValueError, match="ends before it starts.*v-0003"):
        index.insert_many(bad)
    assert len(index) == 0 and index.epoch == 0


@pytest.mark.parametrize("vid", ["v\x00", "\x00", "a\x00b"],
                         ids=["trailing", "alone", "inside"])
def test_a_nul_video_id_is_refused_before_landing(vid):
    recs = make_records(4, seed=2)
    recs[2] = RepresentativeFoV(lat=recs[2].lat, lng=recs[2].lng, theta=0.0,
                                t_start=0.0, t_end=1.0, video_id=vid)
    for server in (CloudServer(CAMERA), fleet()):
        with pytest.raises(ValueError, match="NUL"):
            server.ingest(recs)
        assert server.records() == []


def test_delete_matches_every_field():
    a = RepresentativeFoV(lat=40.0, lng=116.3, theta=10.0, t_start=0.0,
                          t_end=5.0, video_id="a", segment_id=1)
    index = FoVIndex()
    index.insert_many([a])
    for near_miss in (RepresentativeFoV(**{**_fields(a), "theta": 11.0}),
                      RepresentativeFoV(**{**_fields(a), "video_id": "b"})):
        assert not index.delete(near_miss)
    assert index.delete(RepresentativeFoV(**_fields(a)))
    assert len(index) == 0


def test_memo_survives_a_removal():
    recs = make_records(50, seed=12)
    index = FoVIndex()
    index.insert_many(recs)
    assert index.evict_older_than(11.0) == 5
    view = index.packed_view()
    assert view.records.take(range(len(view))) == recs[5:]
    assert all(a is b for a, b in zip(view.records.take(range(45)),
                                      recs[5:]))
    assert index.records() == recs[5:]
    assert np.array_equal(view.t_start, [f.t_start for f in recs[5:]])


def test_a_view_builds_records_while_its_index_mutates():
    """The sharded router builds its winners' records after releasing
    the shard lock, so a view's ``records.take`` may run while the
    index appends rows (the memo list only grows) or removes some (the
    store moves to a new list).  Every record still matches its row,
    in the view and in the index."""
    recs = make_records(90, seed=13)
    columns = FoVIndex.bulk(recs).record_columns()  # no record objects
    index = FoVIndex()
    index.insert_many(columns.select(slice(0, 60)))
    view = index.packed_view()
    stop, wrong = threading.Event(), []

    def read() -> None:
        rng = np.random.default_rng()
        while not stop.is_set():
            at = rng.integers(0, 60, size=8).tolist()
            if view.records.take(at) != [recs[i] for i in at]:
                wrong.append(at)

    readers = [threading.Thread(target=read) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for reader in readers:
            reader.start()
        for k in range(60, 90, 5):
            index.insert_many(columns.select(slice(k, k + 5)))
            index.packed_view().records.take(range(len(index)))
            index.evict_older_than(float(k - 50))
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert wrong == []
    assert view.records.take(range(60)) == recs[:60]
    assert index.records() == recs[29:]     # t_end = i + 6 >= 35 stays


def test_a_views_geometry_block_holds_its_columns():
    """The router's funnel takes one ``(5, k)`` block per shard visit
    from ``view.geom``: it must stay C-contiguous as the store grows
    (``take`` copies a strided array whole) and hold the view's five
    geometry columns in its first ``len(view)`` columns."""
    columns = FoVIndex.bulk(make_records(90, seed=14)).record_columns()
    index = FoVIndex()
    for k in range(0, 90, 30):
        index.insert_many(columns.select(slice(k, k + 30)))
        view = index.packed_view()
        assert view.geom.flags.c_contiguous
        assert np.array_equal(view.geom[:, :len(view)],
                              [view.lat, view.lng, view.theta,
                               view.t_start, view.t_end])


def _fields(fov):
    return {name: getattr(fov, name) for name in
            ("lat", "lng", "theta", "t_start", "t_end", "video_id",
             "segment_id")}


def test_digest_agrees_across_backends_for_integer_coordinates():
    """The linear backend keeps the caller's objects, the column store
    float64 columns; ``lat=40`` and ``lat=40.0`` are one record."""
    recs = [RepresentativeFoV(lat=40, lng=116, theta=90, t_start=0,
                              t_end=5, video_id="v", segment_id=i)
            for i in range(3)]
    linear, rtree = FoVIndex(backend="linear"), FoVIndex()
    linear.insert_many(recs)
    rtree.insert_many(recs)
    assert linear.content_digest() == rtree.content_digest()
