"""Unit tests for the sharded router: ingest, pruning, merge, metrics."""

import numpy as np
import pytest

from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.query import Query
from repro.core.server import CloudServer, IngestStatus
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection
from repro.net.protocol import encode_bundle
from repro.core.index import query_box_floats
from repro.shard import ShardedCloudServer, ShardUnavailableError
from repro.shard import server as server_module

ORIGIN = GeoPoint(lat=40.0, lng=116.3)
PROJ = LocalProjection(ORIGIN)


def make_records(n, rng, extent_m=4000.0, horizon_s=3600.0):
    out = []
    for i in range(n):
        x, y = rng.uniform(-extent_m, extent_m, 2)
        p = PROJ.to_geo(float(x), float(y))
        t0 = float(rng.uniform(0, horizon_s - 60))
        out.append(RepresentativeFoV(
            lat=p.lat, lng=p.lng, theta=float(rng.uniform(0, 360)),
            t_start=t0, t_end=t0 + 60.0,
            video_id=f"v{i % 9}", segment_id=i))
    return out


def make_queries(n, rng, extent_m=4000.0, horizon_s=3600.0):
    out = []
    for _ in range(n):
        x, y = rng.uniform(-extent_m, extent_m, 2)
        out.append(Query(
            t_start=0.0, t_end=horizon_s,
            center=PROJ.to_geo(float(x), float(y)),
            radius=float(rng.choice([100.0, 300.0, 800.0])), top_n=10))
    return out


@pytest.fixture
def camera():
    return CameraModel()


class TestIngest:
    def test_bundle_roundtrip_and_dedup(self, camera):
        server = ShardedCloudServer(camera, n_shards=4, origin=ORIGIN)
        rng = np.random.default_rng(1)
        fovs = make_records(50, rng)
        payload = encode_bundle("vid-1", fovs)
        out = server.ingest_bundle(payload, device_id="dev-1")
        assert out.status is IngestStatus.ACCEPTED
        assert out.records_indexed == 50
        assert server.indexed_count == 50
        again = server.ingest_bundle(payload)
        assert again.status is IngestStatus.DUPLICATE
        assert server.indexed_count == 50
        assert server.stats.bundles_received == 1
        assert server.stats.bundles_duplicated == 1

    def test_rejected_payload_quarantined_not_indexed(self, camera):
        server = ShardedCloudServer(camera, n_shards=4, origin=ORIGIN)
        out = server.ingest_bundle(b"garbage payload")
        assert out.status is IngestStatus.REJECTED
        assert server.indexed_count == 0
        assert server.stats.bundles_rejected == 1
        assert len(server.quarantine) == 1
        # rejection released the digest: a redelivery rejects again,
        # it is not misreported as a duplicate
        assert server.ingest_bundle(b"garbage payload").status \
            is IngestStatus.REJECTED

    def test_routing_metrics_and_gauges(self, camera):
        server = ShardedCloudServer(camera, n_shards=4, origin=ORIGIN)
        rng = np.random.default_rng(2)
        server.ingest(make_records(200, rng))
        routed = sum(
            server._route.labels(shard=str(sid)).value for sid in range(4))
        assert routed == 200
        snapshot = server.obs.registry.render_json()
        live = {s["labels"]["shard"]: s["value"]
                for s in snapshot["shard.records_live"]["samples"]}
        assert sum(live.values()) == 200
        epochs = {s["labels"]["shard"]: s["value"]
                  for s in snapshot["shard.epoch"]["samples"]}
        for sid in range(4):
            assert epochs[str(sid)] == server.shards[sid].epoch

    def test_eviction_fleet_wide(self, camera):
        server = ShardedCloudServer(camera, n_shards=3, origin=ORIGIN)
        rng = np.random.default_rng(3)
        recs = make_records(120, rng)
        server.ingest(recs)
        cutoff = 1800.0
        expect = sum(1 for f in recs if f.t_end < cutoff)
        assert server.evict_older_than(cutoff) == expect
        assert server.indexed_count == 120 - expect
        assert server.stats.records_evicted == expect

    def test_epoch_gauge_sums_the_vector_and_bumps_are_journaled(
            self, camera):
        """``index.epoch`` is the sum of the epoch vector, and every
        shard mutation journals one ``index.epoch_bump`` naming its
        cause and shard."""
        server = ShardedCloudServer(camera, n_shards=3, origin=ORIGIN)
        rng = np.random.default_rng(3)
        server.ingest(make_records(120, rng))
        server.evict_older_than(1800.0)
        vector = server.epoch_vector()
        assert vector == (2, 2, 2)
        assert server.obs.registry.get("index.epoch").value == sum(vector)
        bumps = [(e.fields["cause"], e.fields["shard"], e.fields["epoch"])
                 for e in server.obs.journal.events("index.epoch_bump")]
        assert bumps == [("ingest", 0, 1), ("ingest", 1, 1), ("ingest", 2, 1),
                         ("evict", 0, 2), ("evict", 1, 2), ("evict", 2, 2)]

    def test_non_finite_theta_rejected_before_any_shard(self, camera):
        server = ShardedCloudServer(camera, n_shards=4, origin=ORIGIN)
        rng = np.random.default_rng(4)
        server.ingest(make_records(40, rng))
        epochs, count = server.epoch_vector, server.indexed_count
        bad = RepresentativeFoV(lat=40.0, lng=116.3, theta=float("nan"),
                                t_start=0.0, t_end=60.0,
                                video_id="bad", segment_id=0)
        with pytest.raises(ValueError, match="nothing from this batch"):
            server.ingest(make_records(10, rng) + [bad])
        assert server.epoch_vector == epochs
        assert server.indexed_count == count


class TestQuery:
    def test_matches_single_server(self, camera):
        rng = np.random.default_rng(4)
        recs = make_records(2000, rng)
        queries = make_queries(64, rng)
        single = CloudServer(camera, cache_size=0)
        single.ingest(recs)
        server = ShardedCloudServer(camera, n_shards=6, origin=ORIGIN,
                                    cache_size=0)
        server.ingest(recs)
        for a, b in zip(single.query_many(queries),
                        server.query_many(queries)):
            assert a.candidates == b.candidates
            assert a.after_filter == b.after_filter
            assert ([(r.fov.key(), r.distance, r.covers, r.score)
                     for r in a.ranked]
                    == [(r.fov.key(), r.distance, r.covers, r.score)
                        for r in b.ranked])

    def test_a_mid_call_mutation_is_not_seen(self, camera, monkeypatch):
        """When the fleet mutates between two queries of one call, the
        whole call answers from the state it started on: the later
        queries rank as they would have before the ingest."""
        rng = np.random.default_rng(7)
        recs = make_records(900, rng, extent_m=400.0)
        queries = make_queries(8, rng, extent_m=400.0)
        server = ShardedCloudServer(camera, n_shards=3, origin=ORIGIN,
                                    cache_size=0)
        server.ingest(recs[:600])
        before = [server.query(q)[:4] for q in queries]
        control = ShardedCloudServer(camera, n_shards=3, origin=ORIGIN,
                                     cache_size=0)
        control.ingest(recs)
        after = [control.query(q)[:4] for q in queries]
        assert all(ranked for _, ranked, *_ in before + after)
        boxed = []

        def box_then_ingest(query):
            boxed.append(query)
            if len(boxed) == 5:         # before the fifth query's visits
                server.ingest(recs[600:])
            return query_box_floats(query)

        monkeypatch.setattr(server_module, "query_box_floats",
                            box_then_ingest)
        got = [r[:4] for r in server.query_many(queries)]
        assert got == before
        assert before[4:] != after[4:]
        monkeypatch.undo()
        assert [r[:4] for r in server.query_many(queries)] == after

    def test_a_mid_call_eviction_is_not_seen(self, camera, monkeypatch):
        """An eviction renumbers a shard's rows: a batch whose later
        queries run after it still reads every row against the state
        the call started on."""
        rng = np.random.default_rng(8)
        recs = make_records(900, rng, extent_m=400.0)
        queries = make_queries(8, rng, extent_m=400.0)
        server = ShardedCloudServer(camera, n_shards=3, origin=ORIGIN,
                                    cache_size=0)
        server.ingest(recs)
        before = [server.query(q)[:4] for q in queries]
        control = ShardedCloudServer(camera, n_shards=3, origin=ORIGIN,
                                     cache_size=0)
        control.ingest(recs)
        assert control.evict_older_than(1800.0) > 0
        after = [control.query(q)[:4] for q in queries]
        assert all(ranked for _, ranked, *_ in before + after)
        boxed = []

        def box_then_evict(query):
            boxed.append(query)
            if len(boxed) == 5:         # before the fifth query's visits
                server.evict_older_than(1800.0)
            return query_box_floats(query)

        monkeypatch.setattr(server_module, "query_box_floats",
                            box_then_evict)
        got = [r[:4] for r in server.query_many(queries)]
        assert got == before
        assert before[4:] != after[4:]
        monkeypatch.undo()
        assert [r[:4] for r in server.query_many(queries)] == after

    @pytest.mark.parametrize("call, n", [("query", 1), ("query_many", 8)])
    def test_a_mid_call_kill_answers_from_before_it(self, camera,
                                                    monkeypatch, call, n):
        """A kill that lands after a call started and before a visit of
        the killed shard: the call took the publication before the kill,
        so it answers from the pre-kill state, nothing is refused, and
        the next call is refused, counted once."""
        rng = np.random.default_rng(7)
        recs = make_records(900, rng, extent_m=400.0)
        queries = make_queries(8, rng, extent_m=400.0)[:n]
        server = ShardedCloudServer(camera, n_shards=3, origin=ORIGIN,
                                    cache_size=0)
        server.ingest(recs)
        want = [server.query(q)[:4] for q in queries]
        assert all(r[1] for r in want)
        boxed = []

        def box_then_kill(query):
            boxed.append(query)
            if len(boxed) == n // 2 + 1:    # before this query's visits
                server.kill_shard(0)
            return query_box_floats(query)

        monkeypatch.setattr(server_module, "query_box_floats", box_then_kill)
        arg = queries[0] if n == 1 else queries
        got = getattr(server, call)(arg)
        assert [r[:4] for r in ([got] if n == 1 else got)] == want
        assert server.down_shards == {0}
        dropped = server.obs.registry.get("failover.dropped_queries")
        assert dropped.value == 0
        monkeypatch.undo()
        with pytest.raises(ShardUnavailableError) as exc:
            getattr(server, call)(arg)
        assert exc.value.shard_id == 0
        assert dropped.value == 1

    def test_fanout_is_pruned(self, camera):
        """Tight queries over a wide city must not search every shard."""
        server = ShardedCloudServer(camera, n_shards=8, origin=ORIGIN,
                                    cell_m=1000.0, cache_size=0)
        rng = np.random.default_rng(5)
        server.ingest(make_records(1000, rng, extent_m=6000.0))
        queries = make_queries(32, rng, extent_m=6000.0)
        tight = [Query(t_start=q.t_start, t_end=q.t_end, center=q.center,
                       radius=50.0, top_n=q.top_n) for q in queries]
        server.query_many(tight)
        mean_fanout = server._fanout.sum / server._fanout.count
        assert mean_fanout < 8
        assert server._pruned.value > 0

    def test_only_the_packed_engine_serves(self, camera):
        with pytest.raises(ValueError, match="packed"):
            ShardedCloudServer(camera, n_shards=2, origin=ORIGIN,
                               engine="dynamic")

    def test_empty_fleet_answers_empty(self, camera):
        server = ShardedCloudServer(camera, n_shards=4, origin=ORIGIN)
        q = Query(t_start=0, t_end=10, center=ORIGIN, radius=100.0)
        result = server.query(q)
        assert result.ranked == []
        assert result.candidates == 0
        # no populated shard: content bounds prune the entire scatter
        assert server._fanout.sum == 0

    def test_cache_tagged_by_epoch_vector(self, camera):
        server = ShardedCloudServer(camera, n_shards=3, origin=ORIGIN,
                                    cache_size=16)
        rng = np.random.default_rng(6)
        server.ingest(make_records(100, rng))
        q = make_queries(1, rng)[0]
        server.query(q)
        server.query(q)
        assert server.stats.cache_hits == 1
        # mutating any one shard invalidates the vector
        server.ingest(make_records(1, rng))
        server.query(q)
        assert server.stats.cache_hits == 1
        assert server.stats.cache_misses == 2


class TestBatchedIngest:
    # The commit-group contract itself (outcomes, WAL, back-pressure)
    # runs against this router in tests/core/test_ingest_batch.py.

    def _payloads(self, rng, n_bundles=12, per=20):
        recs = make_records(n_bundles * per, rng)
        return [encode_bundle(f"vid-{i}", recs[i * per:(i + 1) * per])
                for i in range(n_bundles)]

    def test_one_epoch_bump_per_shard_per_group(self, camera):
        rng = np.random.default_rng(6)
        server = ShardedCloudServer(camera, n_shards=4, origin=ORIGIN)
        server.ingest_batch(self._payloads(rng, n_bundles=8))
        server.ingest_batch(self._payloads(np.random.default_rng(7),
                                           n_bundles=8))
        # Two commit groups, wide enough to touch every shard each time.
        assert server.epoch_vector() == (2, 2, 2, 2)
