"""Unit tests for the cloud-server facade."""

import numpy as np
import pytest

from repro import CameraModel, ClientPipeline, CloudServer, Query
from repro.core.fov import RepresentativeFoV
from repro.core.index import FoVIndex
from repro.core.oracle import answer
from repro.core.segmentation import SegmentationConfig
from repro.core.server import IngestStatus
from repro.net.channel import FaultProfile, FaultyChannel, RetryPolicy
from repro.net.protocol import encode_bundle
from repro.shard import ShardUnavailableError
from repro.traces.dataset import random_representative_fovs
from repro.traces.noise import SensorNoiseModel
from repro.traces.scenarios import CITY_ORIGIN, walk_scenario


@pytest.fixture
def server(camera):
    return CloudServer(camera)


class TestIngest:
    def test_receive_bundle_indexes_records(self, server, camera):
        client = ClientPipeline("alice", camera)
        trace = walk_scenario(duration_s=30, fps=10,
                              noise=SensorNoiseModel.ideal())
        bundle = client.record_trace(trace)
        n = server.receive_bundle(bundle.payload, device_id="alice")
        assert n == len(bundle.representatives)
        assert server.indexed_count == n
        assert server.stats.bundles_received == 1
        assert server.stats.descriptor_bytes_in == bundle.wire_bytes

    def test_corrupt_bundle_rejected(self, server):
        with pytest.raises(ValueError):
            server.receive_bundle(b"garbage-not-a-bundle")

    def test_ingest_decoded(self, server, rng):
        reps = random_representative_fovs(50, rng)
        assert server.ingest(reps) == 50
        assert server.indexed_count == 50


class TestQueryAndFetch:
    def _populate(self, server, camera):
        client = ClientPipeline("alice", camera)
        server.register_client(client)
        trace = walk_scenario(duration_s=60, fps=10,
                              noise=SensorNoiseModel.ideal())
        bundle = client.record_trace(trace)
        server.receive_bundle(bundle.payload, device_id="alice")
        return client, trace

    def test_query_finds_covered_point(self, server, camera):
        _, trace = self._populate(server, camera)
        # A point 50 m ahead of the first camera pose is covered.
        from repro.geo.earth import LocalProjection
        proj = trace.projection
        xy = trace.local_xy()
        import numpy as np
        ahead = proj.to_geo(xy[0, 0] + 50 * np.sin(np.radians(30.0)),
                            xy[0, 1] + 50 * np.cos(np.radians(30.0)))
        res = server.query(Query(t_start=0.0, t_end=60.0, center=ahead,
                                 radius=60.0))
        assert len(res) >= 1
        assert server.stats.queries_served == 1

    def test_fetch_segment_moves_bytes(self, server, camera):
        _, trace = self._populate(server, camera)
        rep = next(iter(server.index.range_search(
            Query(t_start=0.0, t_end=60.0, center=trace[0].point,
                  radius=500.0))))
        seg = server.fetch_segment(rep)
        assert len(seg.records) >= 1
        assert server.stats.segments_fetched == 1
        assert server.stats.segment_bytes_moved > 0

    def test_register_owner_for_preloaded_records(self, server, camera):
        # A bulk-loaded index has no bundle to name the owner: the
        # operator registers it, and the batched path's device ids do
        # the same as ingest_bundle's.
        client = ClientPipeline("alice", camera)
        server.register_client(client)
        bundle = client.record_trace(walk_scenario(
            duration_s=60, fps=10, noise=SensorNoiseModel.ideal()))
        server.ingest(bundle.representatives)
        rep = bundle.representatives[0]
        with pytest.raises(KeyError):
            server.fetch_segment(rep)
        server.register_owner(rep.video_id, "alice")
        assert len(server.fetch_segment(rep).records) >= 1

        batched = CloudServer(camera)
        batched.register_client(client)
        batched.ingest_batch([bundle.payload], ["alice"])
        assert len(batched.fetch_segment(rep).records) >= 1

    def test_fetch_unregistered_owner_raises(self, server, camera, rng):
        reps = random_representative_fovs(1, rng)
        server.ingest(reps)
        with pytest.raises(KeyError):
            server.fetch_segment(reps[0])


class TestBackends:
    def test_linear_backend_equivalent(self, camera, rng):
        reps = random_representative_fovs(300, rng)
        rt = CloudServer(camera, backend="rtree")
        ln = CloudServer(camera, backend="linear")
        rt.ingest(reps)
        ln.ingest(reps)
        q = Query(t_start=0.0, t_end=86400.0, center=CITY_ORIGIN,
                  radius=2500.0, top_n=50)
        assert rt.query(q).keys() == ln.query(q).keys()

    def test_the_index_picks_the_read_path(self, camera, rng):
        """A column store is served packed and the linear baseline by the
        oracle; an ``engine=`` naming the other path is refused when the
        server is built, not on its first query.  The perf ledger's
        oracle call builds and ranks like a packed server."""
        with pytest.raises(ValueError, match="'packed' engine"):
            CloudServer(camera, backend="linear", engine="packed")
        with pytest.raises(ValueError, match="'dynamic' engine"):
            CloudServer(camera, engine="dynamic")
        oracle = CloudServer(CameraModel(), backend="linear",
                             engine="dynamic", cache_size=0)
        packed = CloudServer(CameraModel(), cache_size=0)
        reps = random_representative_fovs(300, rng)
        oracle.ingest(reps)
        packed.ingest(reps)
        queries = [Query(t_start=0.0, t_end=86400.0, center=r.point,
                         radius=300.0, top_n=20) for r in reps[:16]]

        def rows(result):
            return (result.candidates, result.after_filter,
                    [(r.fov, r.distance, r.covers, r.score)
                     for r in result.ranked])

        want = [rows(packed.query(q)) for q in queries]
        assert any(after for _, after, _ in want)
        assert [rows(oracle.query(q)) for q in queries] == want
        assert [rows(r) for r in oracle.query_many(queries)] == want


def small_bundle(vid="vid-x", n=5):
    return encode_bundle(vid, [
        RepresentativeFoV(lat=40.0, lng=116.3, theta=(30.0 * i) % 360.0,
                          t_start=float(i), t_end=float(i) + 2.0,
                          video_id=vid, segment_id=i)
        for i in range(n)
    ])


class TestIngestHardening:
    def test_duplicate_bundle_is_exactly_once(self, server):
        payload = small_bundle()
        assert server.receive_bundle(payload) == 5
        assert server.receive_bundle(payload) == 0   # redelivery: no-op
        assert server.indexed_count == 5
        assert server.stats.bundles_received == 1
        assert server.stats.bundles_duplicated == 1
        assert server.stats.descriptor_bytes_in == len(payload)

    def test_ingest_bundle_never_raises(self, server):
        outcome = server.ingest_bundle(b"garbage-not-a-bundle")
        assert outcome.status is IngestStatus.REJECTED
        assert outcome.records_indexed == 0 and outcome.reason

    def test_rejected_payload_is_quarantined_with_its_reason(self, server):
        payload = bytearray(small_bundle())
        payload[-1] ^= 0xFF
        with pytest.raises(ValueError):
            server.receive_bundle(bytes(payload))
        assert server.stats.bundles_rejected == 1
        assert server.indexed_count == 0
        assert len(server.quarantine) == 1
        (entry,) = list(server.quarantine)
        assert entry.payload == bytes(payload)
        assert server.quarantine.reasons[entry.reason] == 1

    def test_mid_bundle_corruption_leaves_no_partial_state(self, server):
        # A sealed bundle (every checksum valid) whose *second* record
        # is semantic junk: validation must reject the whole bundle
        # before record 0 touches the index.
        payload = encode_bundle("v", [
            RepresentativeFoV(lat=lat, lng=116.3, theta=90.0, t_start=0.0,
                              t_end=2.0, video_id="v", segment_id=i)
            for i, lat in enumerate((40.0, float("nan")))])
        epoch = server.index.epoch
        with pytest.raises(ValueError, match="record 1"):
            server.receive_bundle(payload)
        assert server.indexed_count == 0
        assert server.index.epoch == epoch
        assert server.stats.records_indexed == 0
        assert list(server.index.records()) == []

    def test_one_epoch_bump_per_bundle(self, server):
        epoch = server.index.epoch
        server.receive_bundle(small_bundle(n=20))
        assert server.index.epoch == epoch + 1   # not one bump per record

    def test_make_uploader_converges_and_counts_retries(self, server):
        channel = FaultyChannel(FaultProfile(drop_rate=0.5), seed=11)
        uploader = server.make_uploader(channel,
                                        RetryPolicy(max_attempts=40))
        receipts = [uploader.upload(small_bundle(vid=f"v{i}"))
                    for i in range(10)]
        assert all(r.accepted for r in receipts)
        assert server.stats.bundles_retried == uploader.stats.retries > 0
        assert server.indexed_count == 50


class TestEvictionStats:
    def _ingest_spread(self, server, vid="v"):
        server.ingest([
            RepresentativeFoV(lat=40.0, lng=116.3, theta=10.0,
                              t_start=float(i * 10), t_end=float(i * 10) + 5,
                              video_id=vid, segment_id=i)
            for i in range(10)
        ])

    def test_evict_preserves_cumulative_records_indexed(self, server):
        # Regression: evict_older_than used to clobber records_indexed
        # down to the live count, rewriting ingest history.
        self._ingest_spread(server)
        assert server.stats.records_indexed == 10
        evicted = server.evict_older_than(51.0)
        assert evicted == 5
        assert server.stats.records_indexed == 10     # cumulative, untouched
        assert server.stats.records_live == 5 == server.indexed_count
        assert server.stats.records_evicted == 5

    def test_eviction_counter_accumulates(self, server):
        self._ingest_spread(server, vid="a")
        self._ingest_spread(server, vid="b")
        server.evict_older_than(21.0)
        server.evict_older_than(51.0)
        assert server.stats.records_evicted == 10
        assert server.stats.records_live == 10
        assert server.stats.records_indexed == 20


class TestFailover:
    """A ``CloudServer`` is a fleet of one, so its slot fails over like
    a shard: refused while down, and served from whatever index is
    promoted into it -- never from an engine bound to the dead one."""

    def test_kill_refuses_and_install_serves_the_promoted_index(
            self, server, camera, rng):
        reps = random_representative_fovs(300, rng)
        server.ingest(reps[:150])
        queries = [Query(t_start=0.0, t_end=86400.0, center=r.point,
                         radius=300.0, top_n=20) for r in reps[:16]]
        server.query(queries[0])
        server.query_many(queries)          # both read paths served slot 0
        dead = server.index
        server.kill_shard(0)
        with pytest.raises(ShardUnavailableError):
            server.query(queries[1])
        with pytest.raises(ShardUnavailableError):
            server.query_many(queries)
        with pytest.raises(ShardUnavailableError):
            server.ingest_bundle(small_bundle())
        promoted = FoVIndex.bulk(reps)      # rows the dead primary lacked
        server.install_shard(0, promoted)
        assert server.index is promoted

        def rows(result):
            return (result.candidates, result.after_filter,
                    [(r.fov, r.distance, r.covers, r.score)
                     for r in result.ranked])

        want = [rows(answer(promoted, q, camera)) for q in queries]
        assert want != [rows(answer(dead, q, camera)) for q in queries]
        assert [rows(server.query(q)) for q in queries] == want
        assert [rows(r) for r in server.query_many(queries)] == want
        assert server.ingest_bundle(small_bundle()).status is \
            IngestStatus.ACCEPTED
