"""Searched schedules against the replica tier.

A Hypothesis state machine drives a fleet with a :class:`ReplicaSet`
beside a never-failed control fleet through interleaved commit groups,
evictions, standby syncs, reads, and kill + promote of a drawn shard.
The invariants (the parity contract of docs/SHARDING.md §9):

* after every sync, each standby's base + tail records equal its
  primary's ``records()``, in order;
* while the victim is down, each probe query -- wide 1200 m ones, and
  narrow 20 m ones (some centred on stored records, so they answer
  rows) of which some route around the victim -- either returns the
  control fleet's rows or raises
  :class:`ShardUnavailableError` naming the victim, and only when the
  partitioner routes it there; the router's
  ``failover.dropped_queries`` rises by exactly the refusals; and a
  direct ``sync_shard`` of the victim is refused, its standby kept;
* after every promotion, the probes, a video query and each shard's
  ``content_digest()`` equal the control fleet's;
* a kill that lands inside a sync's capture of the victim
  (``kill_mid_sync``) leaves its standby as it was, and one that lands
  inside a ``query_many`` batch's visit loop (``kill_mid_read``) is not
  seen by the batch, which took the fleet's publication before it: the
  batch equals the oracle over the pre-kill state and nothing is
  refused, while the next read that needs the victim is refused and
  counted once; the promotion that follows answers the probes as the
  oracle does;
* after every save and reload -- the machine's fleet swapped for the
  reloaded one, with a fresh :class:`ReplicaSet` -- each shard's
  ``content_digest()`` equals the control fleet's, the probes equal the
  oracle, and a drawn earlier bundle redelivered acks ``DUPLICATE``;
* promoting a shard that is serving is refused (``no standby`` before
  its first sync, ``is serving`` after it, however stale the standby),
  and leaves the slot, the down set, the standby and every shard's
  ``content_digest()`` -- equal to the control fleet's -- as they were;
* after every commit group, the fleet holds exactly the records of a
  single linear-scan :class:`CloudServer` (which
  :func:`repro.core.oracle.answer` serves) fed the
  record objects of a per-record ``decode_fov`` walk over each bundle
  (``walk_records``) instead of the group: the fleet lands each group
  as columns, so this is the check that columns, ``split`` and the
  store agree with the wire;
* a read between writes -- the probes one by one and as one
  ``query_many`` batch, and a video query, answered
  from shard views that are a base plus a tail of the commit groups
  since -- equals that oracle.  The control fleet runs the same packed
  code, so only the oracle can tell a wrong ranking; the reads also
  leave tailed views in place for the syncs, captures and kills that
  follow.

A promotion is drawn only while every standby is current (a sync ran
after the last write): the replica tier promises no more than that.
``FUZZ_SEED`` (set by the CI fuzz-smoke matrix) seeds the search, so a
red run reproduces locally with ``FUZZ_SEED=<n> pytest <this file>``.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import replace

import hypothesis
import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, precondition,
                                 rule)

from repro.core.camera import CameraModel
from repro.core.index import query_box_floats
from repro.core.ingest import IngestStatus
from repro.core.query import Query
from repro.core.server import CloudServer
from repro.geo.coords import GeoPoint
from repro.shard import (ReplicaSet, ShardUnavailableError,
                         load_sharded_snapshot, save_sharded_snapshot)
from repro.shard import server as server_module
from repro.video.retrieval import VideoQuery

from tests.net.test_protocol_fuzz import walk_records
from tests.shard.test_failover import (N_SHARDS, ORIGIN, bundles,
                                       dropped_queries, make_queries,
                                       make_records, make_server, rows,
                                       standby_records)

FUZZ_SEED = int(os.environ.get("FUZZ_SEED", "0"))

PROBES = make_queries(6, seed=99) + make_queries(4, seed=98, radius=20.0)


def record_probes(records):
    """20 m probes centred on about six of ``records`` (so they answer
    rows), and a video probe whose trajectory visits the first four."""
    picked = records[::max(1, len(records) // 6)]
    narrow = [Query(t_start=0.0, t_end=1000.0,
                    center=GeoPoint(lat=r.lat, lng=r.lng),
                    radius=20.0, top_n=8) for r in picked]
    trajectory = (picked or make_records(1, seed=97))[:4]
    video = VideoQuery(
        segments=tuple(replace(r, video_id="probe", segment_id=i)
                       for i, r in enumerate(trajectory)),
        t_start=0.0, t_end=1000.0, radius=100.0, top_k=5)
    return narrow, video


def video_rows(result):
    return result.ranked, result.harvested


def content(records):
    return sorted((f.video_id, f.segment_id, f.lat, f.lng, f.theta,
                   f.t_start, f.t_end) for f in records)


@hypothesis.seed(FUZZ_SEED)
class ReplicaMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.fleet, self.control = make_server(), make_server()
        self.oracle = CloudServer(CameraModel(), backend="linear",
                                  cache_size=0)
        self.replicas = ReplicaSet(self.fleet)
        self.groups = 0
        self.payloads: list[bytes] = []
        self.current = False        # every standby holds its primary's rows
        self.reads = 0              # kill_mid_read calls, for fresh windows

    @rule(n=st.integers(1, 24), seed=st.integers(0, 2**16))
    def ingest_batch(self, n, seed):
        tag = f"g{self.groups}"
        self.groups += 1
        payloads = bundles(make_records(n, seed, tag=tag), per=8, tag=tag)
        self.payloads += payloads
        for srv in (self.fleet, self.control):
            srv.ingest_batch(payloads)
        self.oracle.ingest([fov for payload in payloads
                            for fov in walk_records(payload)[1]])
        assert content(self.fleet.records()) == content(self.oracle.records())
        self.current = False

    @rule(cutoff=st.integers(0, 30))
    def evict_older_than(self, cutoff):
        evicted = self.fleet.evict_older_than(float(cutoff))
        assert self.control.evict_older_than(float(cutoff)) == evicted
        assert self.oracle.evict_older_than(float(cutoff)) == evicted
        if evicted:
            self.current = False

    @rule()
    def query(self):
        narrow, video = record_probes(self.oracle.records())
        for q in PROBES + narrow:
            assert rows(self.fleet.query(q)) == rows(self.oracle.query(q))
        assert (video_rows(self.fleet.query_video(video))
                == video_rows(self.oracle.query_video(video)))

    @rule()
    def query_many(self):
        """The probes as one router batch: a single funnel pass over
        every shard's hits ranks each query as the oracle does."""
        narrow, _ = record_probes(self.oracle.records())
        batch = PROBES + narrow
        assert ([rows(r) for r in self.fleet.query_many(batch)]
                == [rows(r) for r in self.oracle.query_many(batch)])

    @rule()
    def sync(self):
        self.replicas.sync()
        for sid in range(N_SHARDS):
            assert (standby_records(self.replicas.replica(sid))
                    == self.fleet.shards[sid].records())
        self.current = True

    @precondition(lambda self: self.current)
    @rule(sid=st.integers(0, N_SHARDS - 1))
    def kill_and_promote(self, sid):
        narrow, video = record_probes(self.control.records())
        probes = PROBES + narrow
        self.replicas.kill(sid)
        dropped_before = dropped_queries(self.fleet)
        refused = 0
        for q in probes:
            try:
                got = rows(self.fleet.query(q))
            except ShardUnavailableError as exc:
                assert exc.shard_id == sid
                assert sid in self.fleet.partitioner.shards_for_query(q)
                refused += 1
            else:
                assert got == rows(self.control.query(q))
        assert dropped_queries(self.fleet) - dropped_before == refused
        # the placeholder is never captured over the standby
        standby = self.replicas.replica(sid)
        with pytest.raises(ShardUnavailableError) as refusal:
            self.replicas.sync_shard(sid)
        assert refusal.value.shard_id == sid
        assert self.replicas.replica(sid) is standby

        self.replicas.promote(sid)
        for q in probes:
            assert rows(self.fleet.query(q)) == rows(self.control.query(q))
        assert (video_rows(self.fleet.query_video(video))
                == video_rows(self.control.query_video(video)))
        assert ([s.content_digest() for s in self.fleet.shards]
                == [s.content_digest() for s in self.control.shards])

    @precondition(lambda self: self.current)
    @rule(sid=st.integers(0, N_SHARDS - 1))
    def kill_mid_sync(self, sid):
        """A kill lands inside a sync's capture of the victim.  The
        victim is failed over first, so that its new primary (a fresh
        removal token) makes the sync capture it in full."""
        self.replicas.kill(sid)
        self.replicas.promote(sid)
        standby = self.replicas.replica(sid)
        capture = self.fleet.capture_shard

        def kill_then_capture(shard, since=None):
            if shard == sid:
                self.replicas.kill(sid)
            return capture(shard, since=since)

        self.fleet.capture_shard = kill_then_capture
        try:
            self.replicas.sync()
        finally:
            del self.fleet.capture_shard
        assert self.fleet.down_shards == frozenset({sid})
        assert self.replicas.replica(sid) is standby
        self.replicas.promote(sid)
        self.query()
        assert ([s.content_digest() for s in self.fleet.shards]
                == [s.content_digest() for s in self.control.shards])

    @precondition(lambda self: self.current)
    @rule(sid=st.integers(0, N_SHARDS - 1), at=st.integers(0, 15))
    def kill_mid_read(self, sid, at):
        """A kill lands in a ``query_many`` batch's visit loop, before
        the ``at``-th missed query's visits (or the last one's): the
        batch answers from the publication it took before the kill, as
        the oracle does over the pre-kill state, and refuses nothing; a
        batch after the kill whose last query needs every shard holding
        rows is refused and counted once, and a promotion restores the
        oracle's answers."""
        narrow, _ = record_probes(self.control.records())
        self.reads += 1
        wide = Query(t_start=0.0, t_end=1000.0 + self.reads,
                     center=ORIGIN, radius=3000.0, top_n=8)
        batch = PROBES + narrow + [wide]
        boxed = []

        def box_then_kill(query):
            boxed.append(query)
            if len(boxed) == at + 1 or (query is wide and
                                        not self.fleet.down_shards):
                self.replicas.kill(sid)
            return query_box_floats(query)

        dropped_before = dropped_queries(self.fleet)
        server_module.query_box_floats = box_then_kill
        try:
            got = [rows(r) for r in self.fleet.query_many(batch)]
        finally:
            server_module.query_box_floats = query_box_floats
        assert got == [rows(r) for r in self.oracle.query_many(batch)]
        assert dropped_queries(self.fleet) == dropped_before
        assert self.fleet.down_shards == frozenset({sid})
        try:
            after = [rows(r) for r in self.fleet.query_many(batch)]
        except ShardUnavailableError as exc:
            assert exc.shard_id == sid
            assert dropped_queries(self.fleet) == dropped_before + 1
        else:
            assert not len(self.control.shards[sid])
            assert after == got
        self.replicas.promote(sid)
        self.query()
        self.query_many()

    @rule(pick=st.integers(0, 2**16))
    def save_and_reload(self, pick):
        with tempfile.TemporaryDirectory() as snap:
            save_sharded_snapshot(snap, self.fleet)
            self.fleet = load_sharded_snapshot(snap, CameraModel(),
                                               cache_size=16)
        self.replicas = ReplicaSet(self.fleet)
        self.current = False
        assert ([s.content_digest() for s in self.fleet.shards]
                == [s.content_digest() for s in self.control.shards])
        self.query()
        if self.payloads:
            payload = self.payloads[pick % len(self.payloads)]
            assert (self.fleet.ingest_bundle(payload).status
                    is IngestStatus.DUPLICATE)

    @rule(sid=st.integers(0, N_SHARDS - 1))
    def promote_live(self, sid):
        primary = self.fleet.shards[sid]
        standby = self.replicas.replica(sid)
        why = "no standby" if standby is None else f"shard {sid} is serving"
        with pytest.raises(ValueError, match=why):
            self.replicas.promote(sid)
        assert self.fleet.shards[sid] is primary
        assert self.fleet.down_shards == frozenset()
        assert self.replicas.replica(sid) is standby
        assert ([s.content_digest() for s in self.fleet.shards]
                == [s.content_digest() for s in self.control.shards])


ReplicaMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestReplicaMachine = ReplicaMachine.TestCase
