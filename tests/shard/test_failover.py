"""Shard failover: kill/promote parity, fail-stop writes, tamper checks.

The replica tier's contract (docs/SHARDING.md §9):

* promoting a warm standby restores the fleet to **bit-identical**
  serving state -- every query result and the fleet's dedup digests
  match a control fleet that never failed;
* while a primary is absent the fleet is **fail-stop**: queries
  needing the dead shard raise
  :class:`~repro.shard.server.ShardUnavailableError`, every write is
  refused (so the dedup set cannot record a bundle the index never
  saw), and queries the routing prunes away still succeed;
* a standby whose packed buffer does not hash to its manifest digest
  is rejected before a single byte of it is trusted;
* a standby is a base plus tail segments: a sync ships only the rows
  appended since the last capture, folds into a full capture after a
  removal, a promotion, or once the tails reach the base's size, and
  a damaged, dropped or reordered segment is refused at promotion.
"""

from __future__ import annotations

import gc
import threading
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core.cache import QueryResultCache
from repro.core.camera import CameraModel
from repro.core.flatsnap import unpack_snapshot
from repro.core.quarantine import QuarantineStore
from repro.core.query import Query
from repro.core.server import ServerStats
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection
from repro.net.protocol import encode_bundle
from repro.obs.runtime import Observability
from repro.shard import (ReplicaSegment, ReplicaSet, ShardedCloudServer,
                         ShardUnavailableError, load_sharded_snapshot,
                         save_sharded_snapshot)

from tests.shard.test_sharded_server import make_records as city_records

ORIGIN = GeoPoint(lat=40.0, lng=116.3)
N_SHARDS = 3
CAMERA = CameraModel()


def make_records(n, seed, tag="v"):
    from repro.core.fov import RepresentativeFoV
    proj = LocalProjection(ORIGIN)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        x, y = rng.uniform(-2000.0, 2000.0, size=2)
        g = proj.to_geo(float(x), float(y))
        out.append(RepresentativeFoV(
            video_id=f"{tag}-{i:04d}", segment_id=0,
            t_start=float(i), t_end=float(i + 6),
            lat=g.lat, lng=g.lng,
            theta=float(rng.uniform(0.0, 360.0))))
    return out


def make_queries(n, seed, radius=1200.0):
    proj = LocalProjection(ORIGIN)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x, y = rng.uniform(-2000.0, 2000.0, size=2)
        g = proj.to_geo(float(x), float(y))
        out.append(Query(t_start=0.0, t_end=1000.0, center=g,
                         radius=radius, top_n=8))
    return out


def make_server():
    return ShardedCloudServer(CAMERA, n_shards=N_SHARDS, origin=ORIGIN,
                              seed=1, cache_size=16)


def rows(result):
    return [(r.fov.key(), r.distance, r.covers, r.score)
            for r in result.ranked]


def bundles(records, per=10, tag="b"):
    out = []
    for i in range(0, len(records), per):
        out.append(encode_bundle(f"{tag}-{i // per:03d}",
                                 records[i:i + per]))
    return out


def standby_records(replica):
    """A standby's records in row order: the base, then each tail."""
    return [fov for segment in replica.segments()
            for fov in unpack_snapshot(segment.packed)]


def sync_counts(srv):
    syncs = srv.obs.registry.get("failover.replica_syncs")
    return {kind: syncs.labels(kind=kind).value for kind in ("full", "tail")}


def tailed_fleet():
    """A fleet whose every standby holds a base plus three tails."""
    srv = make_server()
    srv.ingest(make_records(150, seed=80))
    replicas = ReplicaSet(srv)
    replicas.sync()
    for i in range(3):
        srv.ingest(make_records(12, seed=81 + i, tag=f"t{i}"))
        assert replicas.sync() == N_SHARDS
    return srv, replicas


@pytest.mark.parametrize("victim", range(N_SHARDS))
def test_kill_promote_is_bit_identical_to_control(victim):
    """Kill each shard in turn mid-run; the promoted fleet matches an
    unfailed control: ranked rows, record keys, and dedup state."""
    srv, ctrl = make_server(), make_server()
    phase1 = bundles(make_records(60, seed=10), tag="p1")
    phase2 = bundles(make_records(40, seed=11, tag="w"), tag="p2")
    queries = make_queries(12, seed=12)

    srv.ingest_batch(phase1)
    ctrl.ingest_batch(phase1)
    replicas = ReplicaSet(srv)
    assert replicas.sync() == N_SHARDS

    replicas.kill(victim)
    assert srv.down_shards == frozenset({victim})
    promoted = replicas.promote(victim)
    assert srv.shards[victim] is promoted
    assert srv.down_shards == frozenset()
    assert replicas.downtime_s(victim) > 0.0

    # Life goes on after promotion: both fleets take the same second
    # commit group and answer the same queries identically.
    srv.ingest_batch(phase2)
    ctrl.ingest_batch(phase2)
    for q in queries:
        assert rows(srv.query(q)) == rows(ctrl.query(q))
    assert (sorted(r.key() for r in srv.records())
            == sorted(r.key() for r in ctrl.records()))
    assert srv.seen_digests == ctrl.seen_digests


def dropped_queries(srv):
    return srv.obs.registry.get("failover.dropped_queries").value


def test_down_shard_is_fail_stop():
    srv = make_server()
    records = make_records(60, seed=20)
    srv.ingest_batch(bundles(records))
    replicas = ReplicaSet(srv)
    replicas.sync()
    victim = 1

    # A narrow query around a record whose route avoids the victim.
    narrow = next(
        q for q in (Query(t_start=0.0, t_end=1000.0,
                          center=GeoPoint(lat=r.lat, lng=r.lng),
                          radius=20.0, top_n=8) for r in records)
        if victim not in srv.partitioner.shards_for_query(q))
    narrow_rows = rows(srv.query(narrow))
    assert narrow_rows
    replicas.kill(victim)

    # A wide query that needs every shard is refused, identifies the
    # culprit, and the router counts it.
    wide = Query(t_start=0.0, t_end=1000.0, center=ORIGIN,
                 radius=3000.0, top_n=8)
    with pytest.raises(ShardUnavailableError) as exc:
        srv.query(wide)
    assert exc.value.shard_id == victim
    assert dropped_queries(srv) == 1

    # Queries the routing or the content bounds prune away from the
    # victim still answer: one whose route avoids it, and one whose
    # time window lies after every record's t_end.
    assert rows(srv.query(narrow)) == narrow_rows
    late = Query(t_start=2000.0, t_end=3000.0, center=ORIGIN,
                 radius=3000.0, top_n=8)
    assert victim in srv.partitioner.shards_for_query(late)
    assert srv.query(late).ranked == []
    assert dropped_queries(srv) == 1

    # Every write path is refused while the fleet is degraded.
    extra = make_records(5, seed=21, tag="x")
    with pytest.raises(ShardUnavailableError):
        srv.ingest(extra)
    refused = bundles(extra, tag="x")
    with pytest.raises(ShardUnavailableError):
        srv.ingest_batch(refused)
    with pytest.raises(ShardUnavailableError):
        srv.ingest_bundle(refused[0])
    with pytest.raises(ShardUnavailableError):
        srv.evict_older_than(100.0)

    # ... and recovery restores both reads and writes.
    replicas.promote(victim)
    assert srv.query(wide).candidates > 0
    srv.ingest(extra)
    # A refused bundle was not remembered: its retry is indexed, not
    # acked as a duplicate of nothing.
    (retry,) = srv.ingest_batch(refused)
    assert (retry.status.value, retry.records_indexed) == ("accepted", 5)


def test_a_batch_that_needs_a_down_shard_caches_nothing():
    """One query of a ``query_many`` batch needs the dead shard: the
    whole call is refused before any answer is cached, and the
    batch's other queries still answer on their own."""
    srv, control = make_server(), make_server()
    records = make_records(60, seed=20)
    for fleet in (srv, control):
        fleet.ingest_batch(bundles(records))
    replicas = ReplicaSet(srv)
    replicas.sync()
    victim = 1
    narrow = [q for q in (Query(t_start=0.0, t_end=1000.0,
                                center=GeoPoint(lat=r.lat, lng=r.lng),
                                radius=20.0, top_n=8) for r in records)
              if victim not in srv.partitioner.shards_for_query(q)][:3]
    wide = Query(t_start=0.0, t_end=1000.0, center=ORIGIN,
                 radius=3000.0, top_n=8)
    assert len(narrow) == 3
    srv.query_many(narrow)                  # cached before the kill
    replicas.kill(victim)

    with pytest.raises(ShardUnavailableError) as exc:
        srv.query_many(narrow[:2] + [wide] + narrow[2:])
    assert exc.value.shard_id == victim
    assert dropped_queries(srv) == 1

    # The kill moved the fleet's publication, and the refused batch
    # cached nothing under the new one: the next read misses every key.
    misses = srv.stats.cache_misses
    got = [rows(r) for r in srv.query_many(narrow)]
    assert got == [rows(r) for r in control.query_many(narrow)]
    assert srv.stats.cache_misses == misses + len(narrow)
    assert any(got) and len(srv._cache) == len(narrow)


def test_degraded_fleet_refuses_to_snapshot(tmp_path):
    """A killed slot is an empty placeholder: saving it would write a
    directory that reloads cleanly with the shard's records missing."""
    srv = make_server()
    srv.ingest(make_records(60, seed=22))
    replicas = ReplicaSet(srv)
    replicas.sync()
    victim = 1
    assert len(srv.shards[victim]) > 0
    replicas.kill(victim)
    with pytest.raises(ShardUnavailableError) as exc:
        save_sharded_snapshot(tmp_path, srv)
    assert exc.value.shard_id == victim
    assert list(tmp_path.iterdir()) == []       # refused before any write

    replicas.promote(victim)
    save_sharded_snapshot(tmp_path, srv)
    reloaded = load_sharded_snapshot(tmp_path, CAMERA)
    assert reloaded.indexed_count == 60
    assert ([s.content_digest() for s in reloaded.shards]
            == [s.content_digest() for s in srv.shards])


def test_tampered_replica_is_rejected():
    srv = make_server()
    srv.ingest_batch(bundles(make_records(45, seed=30)))
    replicas = ReplicaSet(srv)
    replicas.sync()
    victim = 2
    good = replicas.replica(victim)
    corrupt = bytearray(good.packed)
    corrupt[len(corrupt) // 2] ^= 0xFF
    replicas._replicas[victim] = type(good)(manifest=good.manifest,
                                            packed=bytes(corrupt))
    replicas.kill(victim)
    with pytest.raises(ValueError, match="tampered or torn"):
        replicas.promote(victim)
    # the fleet stays degraded: the bad standby was never installed
    assert srv.down_shards == frozenset({victim})
    # restoring the genuine buffer recovers
    replicas._replicas[victim] = good
    replicas.promote(victim)
    assert srv.down_shards == frozenset()


def test_promote_without_standby_or_bad_sid():
    srv = make_server()
    srv.ingest(make_records(10, seed=40))
    replicas = ReplicaSet(srv)
    with pytest.raises(ValueError, match="no standby"):
        replicas.promote(0)
    with pytest.raises(ValueError):
        srv.kill_shard(N_SHARDS)
    with pytest.raises(ValueError):
        srv.kill_shard(-1)


def test_promoting_a_live_shard_is_refused():
    """A shard that was never killed still serves every row it
    acknowledged; installing its last-synced standby over it would
    drop the rows landed since that sync.  The refusal changes
    nothing: not the slot, the down set or the result cache."""
    srv = make_server()
    srv.ingest(make_records(30, seed=41))
    replicas = ReplicaSet(srv)
    replicas.sync()
    srv.ingest(make_records(30, seed=42, tag="late"))
    probe = make_queries(1, seed=43)[0]
    answer = rows(srv.query(probe))
    shards = list(srv.shards)
    digests = [s.content_digest() for s in srv.shards]
    for sid in range(N_SHARDS):
        with pytest.raises(ValueError, match=f"shard {sid} is serving"):
            replicas.promote(sid)
    assert srv.indexed_count == 60
    assert srv.down_shards == frozenset()
    assert srv.shards == shards
    assert [s.content_digest() for s in srv.shards] == digests
    assert srv.obs.registry.get("failover.promotions").value == 0
    hits = srv.stats.cache_hits
    assert rows(srv.query(probe)) == answer
    assert srv.stats.cache_hits == hits + 1


def test_kill_frees_the_dead_primary_at_once():
    """A shard is an index with no reference cycle: the dead primary's
    index is freed when the kill returns, without waiting for the
    cyclic garbage collector."""
    srv = make_server()
    srv.ingest(make_records(60, seed=44))
    replicas = ReplicaSet(srv)
    replicas.sync()
    index = weakref.ref(srv.shards[0])
    gc.disable()
    try:
        replicas.kill(0)
        assert index() is None
    finally:
        gc.enable()


def test_ingest_stats_and_quarantine_exist_once_per_fleet(monkeypatch):
    """The router owns the fleet's only ingest path, stats, quarantine,
    instrument bundle and caches; a shard builds none of them, neither
    at start-up nor when a kill and a promotion replace one."""
    built: Counter[str] = Counter()
    for cls in (ServerStats, QuarantineStore, Observability,
                QueryResultCache):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__,
                     **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)

    srv = ShardedCloudServer(CAMERA, n_shards=4, origin=ORIGIN, seed=1)
    assert built == {"ServerStats": 1, "QuarantineStore": 1,
                     "Observability": 1, "QueryResultCache": 2}
    srv.ingest(make_records(40, seed=45))
    replicas = ReplicaSet(srv)
    replicas.sync()
    built.clear()
    replicas.kill(0)
    replicas.promote(0)
    assert built == Counter()


def test_sync_skips_unchanged_epochs():
    srv = make_server()
    srv.ingest(make_records(30, seed=50))
    replicas = ReplicaSet(srv)
    assert replicas.sync() == N_SHARDS
    assert replicas.sync() == 0                 # nothing moved
    srv.ingest(make_records(6, seed=51, tag="y"))
    assert 1 <= replicas.sync() <= N_SHARDS     # only touched shards
    assert replicas.epochs() == srv.epoch_vector()


def test_sync_after_promotion_tracks_content_not_epoch():
    """A promoted primary restarts its epoch at 1.  Once commit groups
    bring it back to its standby's stale epoch, the standby must still
    re-capture -- the content differs -- or a second failover loses
    acknowledged writes."""
    srv, ctrl = make_server(), make_server()

    def ingest(records):
        srv.ingest(records)
        ctrl.ingest(records)

    for i in range(4):
        ingest(make_records(15, seed=60 + i, tag=f"a{i}"))
    replicas = ReplicaSet(srv)
    replicas.sync()
    assert replicas.epochs() == (4, 4, 4)

    replicas.kill(0)
    replicas.promote(0)
    assert srv.epoch_vector()[0] == 1
    group = 0
    while srv.epoch_vector()[0] < 4:
        ingest(make_records(15, seed=70 + group, tag=f"b{group}"))
        group += 1
    assert srv.epoch_vector()[0] == 4
    assert replicas.sync() == N_SHARDS

    replicas.kill(0)
    replicas.promote(0)
    assert ([s.content_digest() for s in srv.shards]
            == [s.content_digest() for s in ctrl.shards])


def test_sync_skips_a_down_shard():
    """A killed slot is an empty placeholder; syncing it would replace
    the standby promotion needs with nothing."""
    srv = make_server()
    srv.ingest(make_records(30, seed=52))
    replicas = ReplicaSet(srv)
    replicas.sync()
    victim = 1
    good = replicas.replica(victim)
    digest = srv.shards[victim].content_digest()
    replicas.kill(victim)
    assert replicas.sync() == 0
    assert replicas.replica(victim) is good
    replicas.promote(victim)
    assert srv.shards[victim].content_digest() == digest


def test_sync_shard_refuses_a_down_shard():
    """A direct ``sync_shard`` of a killed slot would capture the empty
    placeholder in full and promotion would install an empty shard."""
    srv = make_server()
    srv.ingest(make_records(300, seed=53))
    replicas = ReplicaSet(srv)
    replicas.sync()
    victim = 1
    good = replicas.replica(victim)
    digest = srv.shards[victim].content_digest()
    assert len(srv.shards[victim]) > 0
    replicas.kill(victim)
    with pytest.raises(ShardUnavailableError) as exc:
        replicas.sync_shard(victim)
    assert exc.value.shard_id == victim
    assert replicas.replica(victim) is good
    replicas.promote(victim)
    assert srv.shards[victim].content_digest() == digest


def city_fleet():
    """The mid-call fixtures of ``tests/shard/test_sharded_server.py``:
    the fleet holds the first 600 of 900 records over 400 m (455 of
    them on shard 0), and the other 300 (221 on shard 0) are returned."""
    recs = city_records(900, np.random.default_rng(7), extent_m=400.0)
    srv = ShardedCloudServer(CAMERA, n_shards=N_SHARDS, origin=ORIGIN,
                             cache_size=0)
    srv.ingest(recs[:600])
    assert len(srv.shards[0]) == 455
    return srv, recs[600:]


def test_a_kill_mid_sync_keeps_the_standby(monkeypatch):
    """A kill that lands inside a sync's capture of the killed shard:
    the capture is refused rather than read from the empty placeholder,
    so the standby keeps its records and promotion installs them."""
    srv, later = city_fleet()
    replicas = ReplicaSet(srv)
    replicas.sync()
    standby = replicas.replica(0)
    digest = srv.shards[0].content_digest()
    srv.ingest(later)               # so shard 0's next sync captures
    capture = srv.capture_shard

    def kill_then_capture(sid, since=None):
        replicas.kill(sid)
        return capture(sid, since=since)

    monkeypatch.setattr(srv, "capture_shard", kill_then_capture)
    with pytest.raises(ShardUnavailableError) as exc:
        replicas.sync_shard(0)
    monkeypatch.undo()
    assert exc.value.shard_id == 0
    assert replicas.replica(0) is standby and len(standby) == 455
    replicas.promote(0)
    assert srv.shards[0].content_digest() == digest


#: Each write, as ``(the fleet method its fenced section calls, the
#: write)``; the write returns the rows it landed or evicted.
WRITES = {
    "ingest": ("_land", lambda srv, later: srv.ingest(later)),
    "ingest_bundle": ("_land", lambda srv, later: srv.ingest_bundle(
        encode_bundle("late", later)).records_indexed),
    "ingest_batch": ("_land", lambda srv, later: sum(
        o.records_indexed for o in srv.ingest_batch(
            [encode_bundle("late-a", later[:150]),
             encode_bundle("late-b", later[150:])]))),
    "evict_older_than": ("_evict",
                         lambda srv, later: srv.evict_older_than(1800.0)),
}


@pytest.mark.parametrize("write", sorted(WRITES))
def test_a_kill_waits_for_the_write_in_flight(monkeypatch, write):
    """Every write passes the fence and changes the fleet under the
    log-order lock, a commit group and an eviction without a WAL
    included: a kill waits for the write held inside that section, so
    no acknowledged row lands in, and no eviction skips, the killed
    slot's placeholder."""
    srv, later = city_fleet()
    fenced, run = WRITES[write]
    want = (300 if fenced == "_land"
            else sum(r.t_end < 1800.0 for r in srv.records()))
    assert want > 0
    inner = getattr(srv, fenced)
    entered, release = threading.Event(), threading.Event()

    def held(arg):
        entered.set()
        release.wait(10)
        return inner(arg)

    monkeypatch.setattr(srv, fenced, held)
    landed = []
    writer = threading.Thread(target=lambda: landed.append(run(srv, later)))
    killer = threading.Thread(target=srv.kill_shard, args=(0,))
    writer.start()
    try:
        assert entered.wait(10)
        killer.start()
        killer.join(0.2)
        assert killer.is_alive() and not srv.down_shards
    finally:
        release.set()
        writer.join(10)
        if killer.ident is not None:
            killer.join(10)
    assert not writer.is_alive() and not killer.is_alive()
    assert landed == [want]
    assert srv.down_shards == {0}
    assert len(srv.shards[0]) == 0


def test_standby_sync_and_snapshot_save_build_nothing(tmp_path, monkeypatch):
    """Full captures, tail captures and a saved snapshot pack record
    columns only: no grid is built, and no shard's serving view is
    touched."""
    from repro.spatial.grid import PackedPointGrid

    built = {"grid": 0}
    grid_build = PackedPointGrid.build.__func__

    def counting_build(cls, *args, **kwargs):
        built["grid"] += 1
        return grid_build(cls, *args, **kwargs)

    monkeypatch.setattr(PackedPointGrid, "build", classmethod(counting_build))

    srv = make_server()
    srv.ingest(make_records(90, seed=54))                   # no query
    views = [s._packed for s in srv.shards]
    replicas = ReplicaSet(srv)
    assert replicas.sync() == N_SHARDS                      # full captures
    srv.ingest(make_records(12, seed=55, tag="t"))
    assert replicas.sync() == N_SHARDS                      # tails
    assert sync_counts(srv) == {"full": N_SHARDS, "tail": N_SHARDS}
    save_sharded_snapshot(tmp_path, srv)
    assert built == {"grid": 0}
    assert all(s._packed is v for s, v in zip(srv.shards, views))
    # the counter does count: a read builds the views it searches
    srv.query(make_queries(1, seed=56, radius=5000.0)[0])
    assert built["grid"] > 0


def test_sync_ships_tails_that_rebuild_the_primary_in_order():
    srv, replicas = tailed_fleet()
    assert sync_counts(srv) == {"full": N_SHARDS, "tail": 3 * N_SHARDS}
    for sid in range(N_SHARDS):
        replica = replicas.replica(sid)
        assert len(replica.tails) == 3
        assert all(len(t.packed) < len(replica.packed)
                   for t in replica.tails)
        assert standby_records(replica) == srv.shards[sid].records()
        assert len(replica) == len(srv.shards[sid])
        assert replica.epoch == srv.epoch_vector()[sid]
    assert replicas.sync() == 0                 # nothing moved

    victim = 1
    rows_before = srv.shards[victim].records()
    replicas.kill(victim)
    replicas.promote(victim)
    assert srv.shards[victim].records() == rows_before


def _flip_a_tail_byte(replica):
    tail = replica.tails[1]
    corrupt = bytearray(tail.packed)
    corrupt[len(corrupt) // 2] ^= 0xFF
    damaged = ReplicaSegment(tail.manifest, bytes(corrupt))
    return replace(replica, tails=(replica.tails[0], damaged,
                                   replica.tails[2]))


@pytest.mark.parametrize("tamper, reason", [
    (_flip_a_tail_byte, "tampered or torn"),
    (lambda r: replace(r, tails=r.tails[:1] + r.tails[2:]),
     "record count|epoch chain"),
    (lambda r: replace(r, tails=(r.tails[1], r.tails[0], r.tails[2])),
     "epoch chain"),
], ids=["byte-flipped", "middle-dropped", "swapped"])
def test_tampered_tail_is_rejected(tamper, reason):
    srv, replicas = tailed_fleet()
    victim = 2
    good = replicas.replica(victim)
    replicas._replicas[victim] = tamper(good)
    replicas.kill(victim)
    with pytest.raises(ValueError, match=reason):
        replicas.promote(victim)
    # the fleet stays degraded: the bad standby was never installed
    assert srv.down_shards == frozenset({victim})
    replicas._replicas[victim] = good
    replicas.promote(victim)
    assert srv.down_shards == frozenset()
    assert len(srv.shards[victim]) == len(good)


def test_eviction_folds_the_standby():
    srv, replicas = tailed_fleet()
    assert srv.evict_older_than(20.0) > 0
    assert replicas.sync() == N_SHARDS
    assert sync_counts(srv) == {"full": 2 * N_SHARDS, "tail": 3 * N_SHARDS}
    for sid in range(N_SHARDS):
        replica = replicas.replica(sid)
        assert replica.tails == ()
        assert standby_records(replica) == srv.shards[sid].records()


def test_kill_and_install_fold_the_standby():
    """A promoted primary is a new index: its next sync is a full
    capture even though no record changed."""
    srv, replicas = tailed_fleet()
    replicas.kill(0)
    replicas.promote(0)
    assert replicas.sync() == 1
    assert sync_counts(srv) == {"full": N_SHARDS + 1, "tail": 3 * N_SHARDS}
    assert replicas.replica(0).tails == ()
    assert [len(replicas.replica(s).tails) for s in (1, 2)] == [3, 3]
    assert standby_records(replicas.replica(0)) == srv.shards[0].records()


def test_tails_fold_once_they_reach_the_base():
    srv = make_server()
    srv.ingest(make_records(30, seed=90))
    replicas = ReplicaSet(srv)
    replicas.sync()
    for i in range(8):
        srv.ingest(make_records(6, seed=91 + i, tag=f"g{i}"))
        replicas.sync()
        for sid in range(N_SHARDS):
            replica = replicas.replica(sid)
            assert len(replica) - replica.manifest.records \
                < replica.manifest.records
            assert standby_records(replica) == srv.shards[sid].records()
    counts = sync_counts(srv)
    assert counts["full"] > N_SHARDS and counts["tail"] > 0
