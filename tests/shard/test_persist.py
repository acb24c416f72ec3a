"""Sharded snapshot persistence: save, reload, and tamper detection."""

import hashlib
import json
import sys
import threading

import numpy as np
import pytest

from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.ingest import IngestStatus
from repro.core.query import Query
from repro.core.wal import WriteAheadLog
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection
from repro.shard import (ShardedCloudServer, load_sharded_snapshot,
                         save_sharded_snapshot)
from repro.shard import server as server_module
from repro.shard.persist import MANIFEST_NAME

from tests.core.test_flatsnap import restamp
from tests.shard.test_failover import bundles
from tests.shard.test_failover import make_records as seeded_records
from tests.shard.test_sharded_server import (ORIGIN, make_queries,
                                             make_records)


@pytest.fixture
def camera():
    return CameraModel()


def build_fleet(camera, n_shards=5, n_records=800, seed=11):
    rng = np.random.default_rng(seed)
    server = ShardedCloudServer(camera, n_shards=n_shards, origin=ORIGIN)
    server.ingest(make_records(n_records, rng))
    return server, rng


class TestRoundTrip:
    def test_reload_is_bit_identical(self, camera, tmp_path):
        server, rng = build_fleet(camera)
        save_sharded_snapshot(tmp_path, server)
        reloaded = load_sharded_snapshot(tmp_path, camera)

        assert reloaded.n_shards == server.n_shards
        assert reloaded.indexed_count == server.indexed_count
        assert reloaded.stats.records_live == server.stats.records_live
        for sid in range(server.n_shards):
            assert (len(reloaded.shards[sid])
                    == len(server.shards[sid]))
            # float64 thetas survive to the bit, shard by shard.
            assert (reloaded.shards[sid].content_digest()
                    == server.shards[sid].content_digest())

        queries = make_queries(48, rng)
        for a, b in zip(server.query_many(queries),
                        reloaded.query_many(queries)):
            assert a.candidates == b.candidates
            assert a.after_filter == b.after_filter
            assert ([(r.fov.key(), r.distance, r.covers, r.score)
                     for r in a.ranked]
                    == [(r.fov.key(), r.distance, r.covers, r.score)
                        for r in b.ranked])

    def test_empty_shards_survive(self, camera, tmp_path):
        """A fleet where some shards hold nothing reloads cleanly."""
        server = ShardedCloudServer(camera, n_shards=6, origin=ORIGIN)
        rng = np.random.default_rng(2)
        # pin everything inside one cell's interior -> one shard
        p = LocalProjection(ORIGIN).to_geo(250.0, 250.0)
        pinned = [RepresentativeFoV(lat=p.lat, lng=p.lng, theta=f.theta,
                                    t_start=f.t_start, t_end=f.t_end,
                                    video_id=f.video_id,
                                    segment_id=f.segment_id)
                  for f in make_records(20, rng, extent_m=10.0)]
        server.ingest(pinned)
        populated = [len(s) for s in server.shards]
        assert populated.count(0) == 5
        save_sharded_snapshot(tmp_path, server)
        reloaded = load_sharded_snapshot(tmp_path, camera)
        assert [len(s) for s in reloaded.shards] == populated

    def test_save_reports_bytes(self, camera, tmp_path):
        server, _ = build_fleet(camera, n_records=50)
        written = save_sharded_snapshot(tmp_path, server)
        on_disk = sum(p.stat().st_size for p in tmp_path.iterdir())
        assert written == on_disk


def rewrite_manifest(tmp_path, mutate):
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    mutate(manifest)
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))


def restamp_sha256(tmp_path, sid):
    """Pin shard ``sid``'s file as it is now, as a careful tamperer
    would, so that only the checks inside the file can refuse it."""
    blob = (tmp_path / f"shard-{sid:03d}.fovpack").read_bytes()
    rewrite_manifest(tmp_path, lambda m: m["shards"][sid].update(
        sha256=hashlib.sha256(blob).hexdigest()))


class TestPackedSidecars:
    def test_v1_manifest_refused(self, camera, tmp_path):
        """The v1 layout (rows of ``packed`` and ``records``, no digests)
        is refused, not read by a second loader."""
        server, _ = build_fleet(camera, n_shards=3, n_records=60)
        save_sharded_snapshot(tmp_path, server)

        def as_v1(m):
            m.update(format="fov-sharded-snapshot-v1", records_total=60)
            for key in ("digests", "digests_sha256"):
                del m[key]
            for row in m["shards"]:
                del row["epoch"], row["sha256"]

        rewrite_manifest(tmp_path, as_v1)
        with pytest.raises(ValueError, match="v1 .*re-save the snapshot"):
            load_sharded_snapshot(tmp_path, camera)

    def test_corrupt_sidecar_rejected(self, camera, tmp_path):
        """A flipped bit fails the row's sha256; re-stamped to pass it,
        the file still fails its own ``FOVPACK1`` CRC."""
        server, _ = build_fleet(camera, n_shards=3, n_records=60)
        save_sharded_snapshot(tmp_path, server)
        victim = tmp_path / "shard-000.fovpack"
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        victim.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="tampered or torn"):
            load_sharded_snapshot(tmp_path, camera)
        restamp_sha256(tmp_path, 0)
        with pytest.raises(ValueError, match="CRC32"):
            load_sharded_snapshot(tmp_path, camera)

    def test_sidecars_do_not_affect_record_reload(self, camera, tmp_path):
        """Only ``.fovpack`` files are written or read: a stray or garbage
        ``shard-000.fovsnap`` from an older release changes nothing."""
        server, _ = build_fleet(camera, n_shards=3, n_records=60)
        save_sharded_snapshot(tmp_path, server)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            MANIFEST_NAME, "shard-000.fovpack", "shard-001.fovpack",
            "shard-002.fovpack"]
        (tmp_path / "shard-000.fovsnap").write_bytes(b"FOVSNAP1 garbage")
        reloaded = load_sharded_snapshot(tmp_path, camera)
        assert ([s.content_digest() for s in reloaded.shards]
                == [s.content_digest() for s in server.shards])


class TestFailureModes:
    def test_missing_manifest(self, camera, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            load_sharded_snapshot(tmp_path, camera)

    def test_unknown_format(self, camera, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": "nope"}))
        with pytest.raises(ValueError, match="format"):
            load_sharded_snapshot(tmp_path, camera)

    def test_corrupt_shard_file(self, camera, tmp_path):
        server, _ = build_fleet(camera, n_records=60)
        save_sharded_snapshot(tmp_path, server)
        victim = tmp_path / "shard-000.fovpack"
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="tampered or torn"):
            load_sharded_snapshot(tmp_path, camera)

    def test_version_1_shard_file(self, camera, tmp_path):
        """A CRC-clean ``.fovpack`` stamped with a retired layout
        version is refused, not guessed at, even under a sha256 that
        pins it."""
        server, _ = build_fleet(camera, n_records=60)
        save_sharded_snapshot(tmp_path, server)
        victim = tmp_path / "shard-001.fovpack"
        victim.write_bytes(restamp(victim.read_bytes(), 1))
        with pytest.raises(ValueError, match="tampered or torn"):
            load_sharded_snapshot(tmp_path, camera)
        restamp_sha256(tmp_path, 1)
        with pytest.raises(ValueError, match="version 1"):
            load_sharded_snapshot(tmp_path, camera)

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda blob: blob[:-9], id="truncated"),
        pytest.param(lambda blob: blob[:40], id="header-only"),
        pytest.param(lambda blob: b"", id="empty"),
        pytest.param(lambda blob: blob + b"\x00" * 64, id="extended"),
    ])
    def test_resized_shard_file(self, camera, tmp_path, damage):
        server, _ = build_fleet(camera, n_records=60)
        save_sharded_snapshot(tmp_path, server)
        victim = tmp_path / "shard-001.fovpack"
        victim.write_bytes(damage(victim.read_bytes()))
        with pytest.raises(ValueError):
            load_sharded_snapshot(tmp_path, camera)

    def test_shard_file_count_mismatch(self, camera, tmp_path):
        """Two shards' valid files swapped: each is refused by the
        sha256 its row pins, before anything is indexed."""
        server, _ = build_fleet(camera, n_shards=3, n_records=61)
        save_sharded_snapshot(tmp_path, server)
        sizes = [len(s) for s in server.shards]
        a, b = next((i, j) for i in range(3) for j in range(3)
                    if sizes[i] != sizes[j])
        fa, fb = (tmp_path / f"shard-{i:03d}.fovpack" for i in (a, b))
        blob_a, blob_b = fa.read_bytes(), fb.read_bytes()
        fa.write_bytes(blob_b)
        fb.write_bytes(blob_a)
        with pytest.raises(ValueError, match="tampered or torn"):
            load_sharded_snapshot(tmp_path, camera)

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda m: m.pop("n_shards"), id="no-n_shards"),
        pytest.param(lambda m: m.pop("seed"), id="no-seed"),
        pytest.param(lambda m: m["origin"].pop("lat"), id="no-origin-lat"),
        pytest.param(lambda m: m["shards"][1].pop("records"), id="no-row-records"),
        pytest.param(lambda m: m["shards"][1].pop("epoch"), id="no-row-epoch"),
        pytest.param(lambda m: m["shards"][1].pop("sha256"), id="no-row-sha256"),
        pytest.param(lambda m: m.pop("digests"), id="no-digests"),
        pytest.param(lambda m: m["digests"].pop(), id="dropped-digest"),
        pytest.param(lambda m: m.pop("digests_sha256"), id="no-digests_sha256"),
        pytest.param(lambda m: m.update(n_shards="5"), id="str-n_shards"),
        pytest.param(lambda m: m.update(n_shards=True), id="bool-n_shards"),
        pytest.param(lambda m: m.update(origin=[40.0, 116.3]), id="list-origin"),
        pytest.param(lambda m: m.update(cell_m=None), id="null-cell_m"),
        pytest.param(lambda m: m.update(cell_m=-500.0), id="negative-cell_m"),
        pytest.param(lambda m: m.update(shards={"0": "shard-000.fovpack"}), id="dict-shards"),
        pytest.param(lambda m: m["shards"][0].update(records="12"), id="str-row-records"),
        pytest.param(lambda m: m["shards"][2].update(packed=7), id="int-row-packed"),
        pytest.param(lambda m: m["shards"][0].update(epoch=1.0), id="float-row-epoch"),
        pytest.param(lambda m: m["shards"][0].update(epoch=9), id="wrong-row-epoch"),
        pytest.param(lambda m: m["shards"][0].update(records=0), id="wrong-row-records"),
        pytest.param(lambda m: m["shards"][0].update(sha256=None), id="null-row-sha256"),
        pytest.param(lambda m: m.update(digests="x"), id="str-digests"),
        pytest.param(lambda m: m["digests"].__setitem__(0, 7), id="int-digest"),
        pytest.param(lambda m: m["shards"].pop(), id="short-shards"),
        pytest.param(lambda m: m.update(n_shards=6), id="long-n_shards"),
    ])
    def test_incoherent_manifest_is_a_value_error(self, camera, tmp_path,
                                                  mutate):
        """Missing key, wrong type, or a ``shards`` list disagreeing with
        ``n_shards``: the loader refuses with ``ValueError``, never
        ``KeyError``/``TypeError``."""
        server, _ = build_fleet(camera, n_shards=5, n_records=60)
        server.ingest_batch(bundles(seeded_records(20, seed=1), per=5))
        save_sharded_snapshot(tmp_path, server)
        rewrite_manifest(tmp_path, mutate)
        with pytest.raises(ValueError):
            load_sharded_snapshot(tmp_path, camera)

    @pytest.mark.parametrize("text", ["", "[1, 2]", "{not json", "null"])
    def test_manifest_that_is_not_an_object(self, camera, tmp_path, text):
        (tmp_path / MANIFEST_NAME).write_text(text)
        with pytest.raises(ValueError):
            load_sharded_snapshot(tmp_path, camera)

    def test_tampered_routing_parameters(self, camera, tmp_path):
        """A changed seed routes rows elsewhere; the routing check trips."""
        server, _ = build_fleet(camera, n_shards=4, n_records=300)
        save_sharded_snapshot(tmp_path, server)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["seed"] = int(manifest["seed"]) + 1
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="routing"):
            load_sharded_snapshot(tmp_path, camera)

    def test_queries_after_reload_see_live_index(self, camera, tmp_path):
        """The reloaded fleet keeps serving ingest and queries."""
        server, rng = build_fleet(camera, n_records=100)
        save_sharded_snapshot(tmp_path, server)
        reloaded = load_sharded_snapshot(tmp_path, camera)
        extra = make_records(30, rng)
        reloaded.ingest(extra)
        assert reloaded.indexed_count == 130
        q = Query(t_start=0.0, t_end=3600.0,
                  center=GeoPoint(lat=extra[0].lat, lng=extra[0].lng),
                  radius=200.0, top_n=5)
        assert reloaded.query(q).candidates > 0


class TestExactlyOnce:
    """A reload restores the digests of the bundles the saved shards
    hold, and only those."""

    def test_a_redelivery_after_reload_is_a_duplicate(self, camera,
                                                      tmp_path):
        server = ShardedCloudServer(camera, n_shards=3, origin=ORIGIN)
        payload, = bundles(seeded_records(5, seed=60), per=5)
        assert server.ingest_bundle(payload).status is IngestStatus.ACCEPTED
        save_sharded_snapshot(tmp_path, server)
        reloaded = load_sharded_snapshot(tmp_path, camera)
        assert reloaded.ingest_bundle(payload).status is \
            IngestStatus.DUPLICATE
        assert reloaded.indexed_count == 5
        assert reloaded.seen_digests == server.seen_digests

    def test_replaying_the_own_log_into_a_reload_recovers_nothing(
            self, camera, tmp_path):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(str(path)) as wal:
            server = ShardedCloudServer(camera, n_shards=3, origin=ORIGIN,
                                        wal=wal)
            payloads = bundles(seeded_records(90, seed=61))
            server.ingest_batch(payloads[:4])
            server.ingest_batch(payloads[4:])
            save_sharded_snapshot(tmp_path / "snap", server)
        reloaded = load_sharded_snapshot(tmp_path / "snap", camera)
        assert reloaded.replay_wal(str(path)) == 0
        assert reloaded.indexed_count == 90
        assert ([s.content_digest() for s in reloaded.shards]
                == [s.content_digest() for s in server.shards])

    def test_a_bundle_still_decoding_at_save_is_not_saved(
            self, camera, tmp_path, monkeypatch):
        """Its digest is reserved, its records are not in any shard: a
        redelivery to the reloaded fleet must index it."""
        server = ShardedCloudServer(camera, n_shards=3, origin=ORIGIN)
        early, late = bundles(seeded_records(10, seed=62), per=5)
        server.ingest_bundle(early)
        decoding, release = threading.Event(), threading.Event()
        decode = server_module.decode_bundle_columns

        def blocking_decode(payload):
            if payload == late:
                decoding.set()
                assert release.wait(10)
            return decode(payload)

        monkeypatch.setattr(server_module, "decode_bundle_columns",
                            blocking_decode)
        outcomes = []
        writer = threading.Thread(
            target=lambda: outcomes.append(server.ingest_bundle(late)))
        writer.start()
        try:
            assert decoding.wait(10)
            save_sharded_snapshot(tmp_path, server)
        finally:
            release.set()
            writer.join(10)
        assert not writer.is_alive()
        assert outcomes[0].status is IngestStatus.ACCEPTED
        reloaded = load_sharded_snapshot(tmp_path, camera)
        assert reloaded.ingest_bundle(early).status is IngestStatus.DUPLICATE
        assert reloaded.ingest_bundle(late).status is IngestStatus.ACCEPTED
        assert reloaded.indexed_count == server.indexed_count == 10

    def test_saves_racing_commit_groups_pin_what_they_hold(self, camera,
                                                           tmp_path):
        """Saves taken while four writers commit groups: every reloaded
        fleet holds the records of exactly the bundles it remembers."""
        snaps = []
        server = ShardedCloudServer(camera, n_shards=3, origin=ORIGIN)
        payloads = bundles(seeded_records(480, seed=63), per=2)
        video_of = {hashlib.sha256(p).hexdigest(): f"b-{i:03d}"
                    for i, p in enumerate(payloads)}

        def write(mine):
            for i in range(0, len(mine), 3):
                server.ingest_batch(mine[i:i + 3])

        writers = [threading.Thread(target=write, args=(payloads[k::4],))
                   for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for w in writers:
                w.start()
            while any(w.is_alive() for w in writers) and len(snaps) < 40:
                snaps.append(tmp_path / f"snap{len(snaps)}")
                save_sharded_snapshot(snaps[-1], server)
        finally:
            for w in writers:
                w.join(30)
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in writers)
        assert server.indexed_count == 480
        assert len(snaps) > 1
        for snap in snaps:
            reloaded = load_sharded_snapshot(snap, camera)
            held = {f.video_id for f in reloaded.records()}
            assert held == {video_of[d] for d in reloaded.seen_digests}
