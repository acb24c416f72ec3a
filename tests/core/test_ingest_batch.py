"""Commit-group ingest, WAL durability, and back-pressure
(``ingest_bundle`` / ``ingest_batch`` / ``replay_wal`` /
``AdmissionQueue``): one contract, three fleets.

The batched path must be observationally identical to one-at-a-time
ingest -- same content digest, same dedup decisions, same quarantine
entries -- while amortising the epoch bump and fsync across the group.
Every server runs the fleet's one commit-group path
(:class:`~repro.shard.server.ShardedCloudServer`), so every fleet-bound
class below runs against ``CloudServer`` and is re-bound, by the
subclasses at the bottom, to a one-shard and a three-shard
``ShardedCloudServer``.  (Subclasses rather than a parametrised
fixture: the ``CloudServer`` test ids stay what they always were.)
"""

import gc
import os
import struct
import threading
import weakref
import zlib
from dataclasses import replace
from functools import partial

import pytest

from repro import CloudServer
from repro.core.fov import RepresentativeFoV
from repro.core.ingest import AdmissionQueue
from repro.core.server import IngestStatus
from repro.core.wal import WriteAheadLog, replay
from repro.geo.coords import GeoPoint
from repro.net.channel import FaultProfile, FaultyChannel, RetryPolicy
from repro.net.protocol import encode_bundle, encode_fov
from repro.shard import ShardedCloudServer

ORIGIN = GeoPoint(lat=40.0, lng=116.3)


def records(vid="vid-x", n=5, lat=40.0):
    # Each video sits on its own street and walks ~450 m per segment,
    # so a commit group of a few bundles reaches every shard.
    lng = 116.3 + (zlib.crc32(vid.encode()) % 50) * 0.003
    return [RepresentativeFoV(lat=lat + 0.004 * i, lng=lng,
                              theta=(30.0 * i) % 360.0,
                              t_start=float(i), t_end=float(i) + 2.0,
                              video_id=vid, segment_id=i)
            for i in range(n)]


def bundle(vid="vid-x", n=5, lat=40.0):
    return encode_bundle(vid, records(vid, n, lat))


def corrupt(payload: bytes) -> bytes:
    flipped = bytearray(payload)
    flipped[-1] ^= 0xFF
    return bytes(flipped)


def one_shard(camera, **kwargs):
    return ShardedCloudServer(camera, n_shards=1, origin=ORIGIN, **kwargs)


def three_shards(camera, **kwargs):
    return ShardedCloudServer(camera, n_shards=3, origin=ORIGIN, **kwargs)


def linear(camera, **kwargs):
    """The linear-scan baseline, which the oracle answers."""
    return CloudServer(camera, backend="linear", **kwargs)


def indexes(server):
    """The fleet's indexes: the server's own, or one per shard."""
    return server.shards if hasattr(server, "shards") else [server.index]


def digests(server):
    return [index.content_digest() for index in indexes(server)]


def epochs(server):
    return [index.epoch for index in indexes(server)]


class FlakyWal(WriteAheadLog):
    """A log whose next ``failures`` fsyncs raise (disk full, EIO)."""

    failures = 0

    def commit(self):
        if self.failures:
            self.failures -= 1
            raise OSError("fsync failed")
        super().commit()


class StallingWal(WriteAheadLog):
    """A log whose fsync parks until released: holds a bundle in flight."""

    def __init__(self, path):
        super().__init__(path)
        self.stalled = threading.Event()
        self.resume = threading.Event()

    def commit(self):
        self.stalled.set()
        assert self.resume.wait(timeout=10)
        super().commit()


@pytest.fixture
def make(request, camera):
    """Server factory for the fleet shape the test class is bound to."""
    return partial(request.cls.fleet, camera)


@pytest.fixture
def server(make):
    return make()


class TestIngestBatch:
    fleet = CloudServer

    def test_outcomes_positional_and_mixed(self, server):
        dup = bundle("dup")
        server.ingest_bundle(dup)
        payloads = [bundle("a"), dup, corrupt(bundle("bad")), bundle("b")]
        outcomes = server.ingest_batch(payloads)
        assert [o.status for o in outcomes] == [
            IngestStatus.ACCEPTED, IngestStatus.DUPLICATE,
            IngestStatus.REJECTED, IngestStatus.ACCEPTED]
        assert len(server.quarantine) == 1
        assert server.indexed_count == 15

    def test_intra_group_duplicate(self, server):
        same = bundle("twice")
        outcomes = server.ingest_batch([same, same])
        assert [o.status for o in outcomes] == [
            IngestStatus.ACCEPTED, IngestStatus.DUPLICATE]
        assert server.indexed_count == 5

    def test_one_epoch_bump_per_group(self, server):
        # Two commit groups, each wide enough to touch every shard:
        # one bump per index per group, however many bundles it holds.
        for group in ("v", "w"):
            before = epochs(server)
            server.ingest_batch([bundle(f"{group}{i}") for i in range(8)])
            assert epochs(server) == [e + 1 for e in before]

    def test_bit_identical_to_one_at_a_time(self, make):
        payloads = [bundle(f"v{i}", n=10, lat=40.0 + i * 1e-3)
                    for i in range(6)]
        payloads[3] = corrupt(payloads[3])
        one = make()
        sequential = [one.ingest_bundle(p) for p in payloads]
        batched = make()
        assert batched.ingest_batch(payloads) == sequential
        assert digests(batched) == digests(one)
        assert batched.seen_digests == one.seen_digests
        assert batched.indexed_count == one.indexed_count
        assert len(batched.quarantine) == len(one.quarantine) == 1
        (b_entry,) = list(batched.quarantine)
        (o_entry,) = list(one.quarantine)
        assert b_entry.payload == o_entry.payload
        assert b_entry.reason == o_entry.reason

    def test_corrupt_bundle_mid_group_isolated(self, make):
        # The corrupt member is quarantined alone; everything else in
        # the commit group lands exactly as if it had never been there.
        clean = [bundle(f"v{i}", n=7) for i in range(5)]
        with_bad = clean[:2] + [corrupt(bundle("evil"))] + clean[2:]
        reference = make()
        reference.ingest_batch(clean)
        victim = make()
        outcomes = victim.ingest_batch(with_bad)
        assert outcomes[2].status is IngestStatus.REJECTED
        assert sum(o.status is IngestStatus.ACCEPTED for o in outcomes) == 5
        assert digests(victim) == digests(reference)

    def test_legacy_fov1_bundle_is_rejected(self, server):
        # The checksum-less FOV1 envelope (header, id, raw 40-byte
        # records) with one mantissa bit of record 0's lat flipped: a
        # decoder that still read FOV1 would index lat 40.0000019.
        server.ingest_batch([bundle("a"), bundle("b")])
        before = (epochs(server), digests(server), server.indexed_count)
        vid = b"legacy"
        body = bytearray(b"".join(encode_fov(f)
                                  for f in records("legacy", 2)))
        body[3] ^= 0x10
        v1 = struct.pack("<4sBHI", b"FOV1", 1, len(vid), 2) + vid + body
        single = server.ingest_bundle(v1)
        (grouped,) = server.ingest_batch([v1])
        for outcome in (single, grouped):
            assert outcome.status is IngestStatus.REJECTED
            assert outcome.reason == "bad magic b'FOV1'"
        assert server.quarantine.reasons["bad magic b'FOV1'"] == 2
        assert [e.payload for e in server.quarantine] == [v1, v1]
        assert (epochs(server), digests(server),
                server.indexed_count) == before

    def test_empty_group(self, server):
        assert server.ingest_batch([]) == []

    def test_device_ids_must_match_payloads(self, server):
        with pytest.raises(ValueError, match="one to one"):
            server.ingest_batch([bundle("a"), bundle("b")], ["dev-a"])
        assert server.indexed_count == 0
        assert server.seen_digests == frozenset()


class TestWalDurability:
    fleet = CloudServer

    def test_batch_appends_then_one_sync(self, tmp_path, make):
        wal = WriteAheadLog(tmp_path / "ingest.wal")
        server = make(wal=wal)
        server.ingest_batch([bundle(f"v{i}") for i in range(10)])
        assert server.stats.wal_appends == 10
        assert server.stats.wal_syncs == 1
        assert server.stats.wal_bytes == os.path.getsize(wal.path)
        assert len(replay(wal.path)) == 10

    def test_rejected_and_duplicate_not_logged(self, tmp_path, make):
        wal = WriteAheadLog(tmp_path / "ingest.wal")
        server = make(wal=wal)
        good = bundle("good")
        server.ingest_batch([good, good, corrupt(bundle("bad"))])
        assert server.stats.wal_appends == 1
        assert replay(wal.path) == [good]

    def test_replay_converges_to_same_digest(self, tmp_path, make):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            origin = make(wal=wal)
            origin.ingest_batch([bundle(f"v{i}", n=8) for i in range(12)])
            want = digests(origin)
        recovered = make()
        assert recovered.replay_wal(path) == 12
        assert digests(recovered) == want
        assert recovered.stats.wal_replayed == 12

    def test_replay_is_idempotent_against_dedup(self, tmp_path, make):
        # Crash *after* index insert: the bundle is both in the WAL and
        # the index; replay must dedup it, not double-insert.
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            server = make(wal=wal)
            server.ingest_batch([bundle("v0"), bundle("v1")])
            want = digests(server)
            assert server.replay_wal() == 0   # all duplicates
            assert digests(server) == want
            assert server.indexed_count == 10

    def test_warm_replay_skips_the_evictions_it_applied(self, tmp_path,
                                                        make):
        # v1 lands after the cutoff with records older than it; replay
        # into the same server must not evict them a second time.
        with WriteAheadLog(tmp_path / "ingest.wal") as wal:
            server = make(wal=wal)
            server.ingest_batch([bundle("v0", n=8)])
            assert server.evict_older_than(6.0) == 4
            server.ingest_batch([bundle("v1", n=8)])
            want = digests(server)
            assert server.replay_wal() == 0
            assert digests(server) == want
            assert server.indexed_count == 12

    def test_deleting_the_server_frees_its_indexes(self, tmp_path, make):
        # The fleet commits its own writes: no second object holds a
        # bound method of it, so no reference cycle outlives the
        # server, and refcounting alone frees every index once the last
        # reference goes.
        gc.disable()
        try:
            with WriteAheadLog(tmp_path / "ingest.wal") as wal:
                server = make(wal=wal)
                server.ingest_batch([bundle(f"v{i}") for i in range(4)])
                assert server.replay_wal() == 0
                alive = [weakref.ref(index) for index in indexes(server)]
                del server
            assert [ref() for ref in alive] == [None] * len(alive)
        finally:
            gc.enable()

    def test_replay_needs_a_log(self, server):
        with pytest.raises(ValueError, match="no WAL configured"):
            server.replay_wal()

    @pytest.mark.parametrize("path", ["ingest_bundle", "ingest_batch"])
    def test_failed_fsync_releases_the_digest(self, tmp_path, make, path):
        # Nothing was indexed when the WAL write raised, so the retry
        # must be ACCEPTED -- not acked DUPLICATE with zero records.
        def offer(server, payload):
            if path == "ingest_bundle":
                return server.ingest_bundle(payload)
            return server.ingest_batch([payload])[0]

        with FlakyWal(tmp_path / "ingest.wal") as wal:
            server = make(wal=wal)
            payload = bundle("v0")
            wal.failures = 1
            with pytest.raises(OSError):
                offer(server, payload)
            assert server.indexed_count == 0
            assert server.seen_digests == frozenset()
            retry = offer(server, payload)
            assert retry.status is IngestStatus.ACCEPTED
            assert server.indexed_count == retry.records_indexed == 5
            assert server.seen_digests == {retry.digest}
        # The failed attempt's buffered entry may have reached the log
        # too; recovery dedups it.
        recovered = make()
        assert recovered.replay_wal(wal.path) == 1
        assert digests(recovered) == digests(server)


class TestAdmissionQueue:
    def test_partial_admission(self):
        q = AdmissionQueue(4)
        assert q.try_admit(3) == 3
        assert q.try_admit(3) == 1     # only one slot left
        assert q.try_admit() == 0      # full
        q.release(4)
        assert q.depth == 0

    def test_over_release_raises(self):
        q = AdmissionQueue(2)
        q.try_admit()
        with pytest.raises(ValueError):
            q.release(2)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)

    def test_thread_safety_never_oversubscribes(self):
        q = AdmissionQueue(10)
        peak = []

        def worker():
            for _ in range(500):
                got = q.try_admit(3)
                peak.append(q.depth)
                q.release(got)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert q.depth == 0
        assert max(peak) <= 10


class TestBackPressure:
    fleet = CloudServer

    def test_batch_sheds_tail_and_releases(self, make):
        server = make(admission_capacity=4)
        outcomes = server.ingest_batch([bundle(f"v{i}") for i in range(7)])
        statuses = [o.status for o in outcomes]
        assert statuses.count(IngestStatus.ACCEPTED) == 4
        assert statuses.count(IngestStatus.SHED) == 3
        assert server.stats.bundles_shed == 3
        # Slots freed: a follow-up group is admitted in full.
        again = server.ingest_batch([bundle(f"w{i}") for i in range(4)])
        assert all(o.status is IngestStatus.ACCEPTED for o in again)

    def test_shed_outcome_is_retryable(self, make):
        # An uploader facing a saturated server retries shed bundles
        # until they land -- shed is not an ack and not a reject.
        server = make(admission_capacity=1)
        channel = FaultyChannel(FaultProfile(), seed=7)
        uploader = server.make_uploader(channel, RetryPolicy(max_attempts=5))
        receipts = [uploader.upload(bundle(f"v{i}")) for i in range(6)]
        assert all(r.accepted for r in receipts)
        assert server.indexed_count == 30
        assert uploader.stats.acks_shed == 0  # serial sends never saturate

    def test_single_bundle_shed_when_saturated(self, tmp_path, make):
        # A peer's bundle is parked in its fsync, holding the only slot.
        with StallingWal(tmp_path / "ingest.wal") as wal:
            server = make(admission_capacity=1, wal=wal)
            peer = threading.Thread(target=server.ingest_bundle,
                                    args=(bundle("peer"),))
            peer.start()
            try:
                assert wal.stalled.wait(timeout=10)
                outcome = server.ingest_bundle(bundle("v"))
            finally:
                wal.resume.set()
                peer.join()
            assert outcome.status is IngestStatus.SHED
            assert outcome.records_indexed == 0
            assert server.stats.bundles_shed == 1
            assert server.ingest_bundle(bundle("v")).status is \
                IngestStatus.ACCEPTED
            assert server.indexed_count == 10


class TestBadGeometryRefused:
    """Direct ``ingest`` refuses what :class:`GeoPoint` refuses on every
    fleet, before any index (or shard) takes a record -- one shard too,
    whose ``split`` no longer projects the run."""

    @pytest.mark.parametrize("fleet", [linear, CloudServer, one_shard,
                                       three_shards],
                             ids=["dynamic", "packed", "one-shard",
                                  "three-shards"])
    @pytest.mark.parametrize("bad", [
        {"lat": 95.0}, {"lng": -181.0}, {"lat": float("nan")},
        {"theta": float("inf")}], ids=["lat-95", "lng-181", "nan-lat",
                                      "inf-theta"])
    def test_refused_before_anything_lands(self, camera, fleet, bad):
        server = fleet(camera)
        server.ingest([f for i in range(6) for f in records(f"v{i}")])
        before = (epochs(server), server.indexed_count)
        batch = [f for i in range(6) for f in records(f"w{i}")]
        batch[7] = replace(batch[7], **bad)
        with pytest.raises(ValueError, match="nothing from this batch"):
            server.ingest(batch)
        assert (epochs(server), server.indexed_count) == before


# -- the same contract on the sharded router ---------------------------------

class TestIngestBatchOneShard(TestIngestBatch):
    fleet = staticmethod(one_shard)


class TestIngestBatchThreeShards(TestIngestBatch):
    fleet = staticmethod(three_shards)


class TestWalDurabilityOneShard(TestWalDurability):
    fleet = staticmethod(one_shard)


class TestWalDurabilityThreeShards(TestWalDurability):
    fleet = staticmethod(three_shards)


class TestBackPressureOneShard(TestBackPressure):
    fleet = staticmethod(one_shard)


class TestBackPressureThreeShards(TestBackPressure):
    fleet = staticmethod(three_shards)
