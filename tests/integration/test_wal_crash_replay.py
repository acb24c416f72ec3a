"""WAL crash-replay: kill the server between the WAL commit and the
index change (an insert or a retention eviction), then replay the log
into a fresh server and require the same content digest an
uninterrupted run produces.

``FUZZ_SEED`` (set by the CI fuzz-smoke matrix) varies the workload and
the crash point, so each CI job kills the server mid-stream at a
different commit group.
"""

import os
import sys
import threading

import numpy as np
import pytest

from repro import CloudServer
from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.index import FoVIndex
from repro.core.ingest import IngestStatus
from repro.core.wal import WriteAheadLog, replay
from repro.geo.coords import GeoPoint
from repro.net.protocol import encode_bundle
from repro.shard import ShardedCloudServer, ShardUnavailableError
from repro.traces.dataset import CityDataset

FUZZ_SEED = int(os.environ.get("FUZZ_SEED", "0"))

GROUP = 4


@pytest.fixture(scope="module")
def city():
    return CityDataset(n_providers=16, seed=1000 + FUZZ_SEED)


def groups(city):
    payloads = [rec.bundle.payload for rec in city.recordings]
    return [payloads[i:i + GROUP] for i in range(0, len(payloads), GROUP)]


class _CrashBeforeIndex(RuntimeError):
    """Stands in for the process dying after the WAL fsync."""


def test_crash_between_wal_commit_and_index_insert(city, tmp_path):
    # The uninterrupted run defines the digest replay must reach.
    want = CloudServer(city.camera)
    for group in groups(city):
        want.ingest_batch(group)
    want_digest = want.index.content_digest()

    rng = np.random.default_rng(FUZZ_SEED)
    crash_at = int(rng.integers(1, len(groups(city))))

    path = tmp_path / "ingest.wal"
    wal = WriteAheadLog(path)
    victim = CloudServer(city.camera, wal=wal)
    real_insert = victim.index.insert_many

    def dying_insert(fovs):
        # The WAL entry for this group is already durable; the index
        # never sees it -- the worst-case window the log exists for.
        raise _CrashBeforeIndex()

    for i, group in enumerate(groups(city)):
        if i == crash_at:
            victim.index.insert_many = dying_insert
            with pytest.raises(_CrashBeforeIndex):
                victim.ingest_batch(group)
            break
        victim.ingest_batch(group)
    wal.close()
    victim.index.insert_many = real_insert

    # The dead group's payloads are in the log even though the index
    # never saw them.
    logged = replay(path)
    assert len(logged) == (crash_at + 1) * GROUP
    assert victim.indexed_count < want.indexed_count

    # Recovery: replay the WAL into a fresh server, then re-offer the
    # rest of the stream exactly as the uploaders would.
    recovered = CloudServer(city.camera)
    assert recovered.replay_wal(path) == len(logged)
    for group in groups(city)[crash_at + 1:]:
        recovered.ingest_batch(group)
    assert recovered.index.content_digest() == want_digest


def test_replay_into_warm_server_is_idempotent(city, tmp_path):
    # Crash *after* the index insert instead: every group is both in
    # the WAL and in the index.  Replay must dedup, not double-index,
    # and must not re-apply a cutoff to the older records that landed
    # after it.
    gs = groups(city)
    half = len(gs) // 2
    path = tmp_path / "ingest.wal"
    with WriteAheadLog(path) as wal:
        server = CloudServer(city.camera, wal=wal)
        for group in gs[:half]:
            server.ingest_batch(group)
        cutoff = max(r.t_end for r in server.records())
        assert server.evict_older_than(cutoff) > 0
        for group in gs[half:]:
            server.ingest_batch(group)
        assert min(r.t_start for r in server.records()) < cutoff
        digest = server.index.content_digest()
        assert server.replay_wal() == 0
        assert server.index.content_digest() == digest


def test_torn_tail_replay_still_converges(city, tmp_path):
    # A crash mid-write leaves a torn final entry; recovery drops it
    # (it was never acknowledged) and replay covers everything else.
    path = tmp_path / "ingest.wal"
    wal = WriteAheadLog(path)
    server = CloudServer(city.camera, wal=wal)
    gs = groups(city)
    for group in gs[:-1]:
        server.ingest_batch(group)
    wal.close()
    data = path.read_bytes()
    path.write_bytes(data[:-11])     # tear the final committed entry

    recovered = CloudServer(city.camera)
    n = recovered.replay_wal(path)
    # One bundle of the final committed group was torn away...
    assert n == sum(len(g) for g in gs[:-1]) - 1
    # ...so re-offering the whole stream (at-least-once) converges.
    for group in gs:
        recovered.ingest_batch(group)
    want = CloudServer(city.camera)
    for group in gs:
        want.ingest_batch(group)
    assert recovered.index.content_digest() == want.index.content_digest()


# -- retention eviction -------------------------------------------------

ORIGIN = GeoPoint(lat=40.0, lng=116.3)
CUTOFF = 200.0


def _timed_groups():
    """40 records in 4 commit groups of one bundle each; the first two
    groups end before ``CUTOFF``, the last two after it."""
    out = []
    for g in range(4):
        recs = [RepresentativeFoV(
            lat=40.0 + 1e-4 * (10 * g + i), lng=116.3 + 1e-4 * i,
            theta=float(36 * i), t_start=100.0 * g, t_end=100.0 * g + 50.0,
            video_id=f"v{g}", segment_id=i) for i in range(10)]
        out.append([encode_bundle(f"v{g}", recs)])
    return out


FACADES = {
    "single": lambda wal=None: CloudServer(CameraModel(), wal=wal),
    "fleet": lambda wal=None: ShardedCloudServer(
        CameraModel(), n_shards=3, origin=ORIGIN, wal=wal),
}


def _digest(server):
    index = FoVIndex()
    index.insert_many(server.records())
    return index.content_digest()


@pytest.mark.parametrize("facade", sorted(FACADES))
def test_replay_keeps_evicted_records_evicted(facade, tmp_path):
    make = FACADES[facade]
    path = tmp_path / "ingest.wal"
    with WriteAheadLog(path) as wal:
        live = make(wal)
        for group in _timed_groups():
            live.ingest_batch(group)
        assert live.evict_older_than(CUTOFF) == 20
    assert live.indexed_count == 20
    assert live.stats.wal_syncs == 5        # four groups, one eviction
    assert live.stats.wal_bytes == path.stat().st_size

    recovered = make()
    assert recovered.replay_wal(path) == 4
    assert recovered.indexed_count == 20
    assert _digest(recovered) == _digest(live)


@pytest.mark.parametrize("facade", sorted(FACADES))
def test_eviction_replays_in_log_order(facade, tmp_path):
    # Groups after the eviction land old records that the cutoff would
    # have dropped had replay applied it last.
    make = FACADES[facade]
    gs = _timed_groups()
    path = tmp_path / "ingest.wal"
    with WriteAheadLog(path) as wal:
        live = make(wal)
        live.ingest_batch(gs[2])
        live.evict_older_than(CUTOFF)
        for group in (gs[0], gs[1], gs[3]):
            live.ingest_batch(group)
    assert replay(path)[1].cutoff_t == CUTOFF
    recovered = make()
    assert recovered.replay_wal(path) == 4
    assert recovered.indexed_count == live.indexed_count == 40
    assert _digest(recovered) == _digest(live)


class _CrashAtEviction(RuntimeError):
    """Stands in for the process dying at an eviction's WAL entry."""


@pytest.mark.parametrize("facade", sorted(FACADES))
@pytest.mark.parametrize("crash", ["before_entry", "after_entry"])
def test_crash_around_the_eviction_entry(facade, crash, tmp_path,
                                         monkeypatch):
    make = FACADES[facade]
    path = tmp_path / "ingest.wal"
    wal = WriteAheadLog(path)
    victim = make(wal)
    for group in _timed_groups():
        victim.ingest_batch(group)

    def dying(*_args):
        raise _CrashAtEviction()

    if crash == "before_entry":
        # Dies before the cutoff is logged: the eviction never happened.
        monkeypatch.setattr(wal, "append_eviction", dying)
        want = 40
    else:
        # The cutoff is durable but the index never changed: replay
        # must finish the eviction.
        monkeypatch.setattr(victim, "_evict", dying)
        want = 20
    with pytest.raises(_CrashAtEviction):
        victim.evict_older_than(CUTOFF)
    wal.close()
    assert victim.indexed_count == 40

    recovered = make()
    assert recovered.replay_wal(path) == 4
    assert recovered.indexed_count == want
    expect = make()
    for group in _timed_groups():
        expect.ingest_batch(group)
    if want == 20:
        expect.evict_older_than(CUTOFF)
    assert _digest(recovered) == _digest(expect)


def test_down_fleet_refuses_eviction_without_logging(tmp_path):
    path = tmp_path / "ingest.wal"
    with WriteAheadLog(path) as wal:
        fleet = FACADES["fleet"](wal)
        for group in _timed_groups():
            fleet.ingest_batch(group)
        fleet.kill_shard(0)
        with pytest.raises(ShardUnavailableError):
            fleet.evict_older_than(CUTOFF)
    assert all(isinstance(entry, bytes) for entry in replay(path))


def test_a_kill_waits_for_the_logged_eviction_in_flight(tmp_path,
                                                        monkeypatch):
    # A kill between the eviction's fleet check and its index change
    # would leave a durable cutoff that no shard applied.
    path = tmp_path / "ingest.wal"
    with WriteAheadLog(path) as wal:
        fleet = FACADES["fleet"](wal)
        for group in _timed_groups():
            fleet.ingest_batch(group)
        logged, release = threading.Event(), threading.Event()
        real_commit = wal.commit

        def held_commit():
            real_commit()
            logged.set()
            release.wait(10)

        monkeypatch.setattr(wal, "commit", held_commit)
        evictor = threading.Thread(target=fleet.evict_older_than,
                                   args=(CUTOFF,))
        evictor.start()
        assert logged.wait(10)
        killer = threading.Thread(target=fleet.kill_shard, args=(0,))
        killer.start()
        killer.join(0.2)
        assert killer.is_alive() and not fleet.down_shards
        release.set()
        evictor.join(10)
        killer.join(10)
    assert fleet.down_shards == {0}
    assert fleet.stats.records_evicted == 20


def test_a_bundle_the_fleet_refuses_is_not_logged(tmp_path):
    # Logged but refused, the bundle would replay before the cutoff
    # that the live fleet applied before the bundle's accepted retry.
    gs = _timed_groups()
    path = tmp_path / "ingest.wal"
    with WriteAheadLog(path) as wal:
        live = FACADES["fleet"](wal)
        live.ingest_batch(gs[3])
        primary = live.shards[0]
        live.kill_shard(0)
        with pytest.raises(ShardUnavailableError):
            live.ingest_batch(gs[0])
        assert len(replay(path)) == 1
        live.install_shard(0, primary)
        live.evict_older_than(CUTOFF)
        assert live.ingest_batch(gs[0])[0].status is IngestStatus.ACCEPTED
    assert live.indexed_count == 20

    recovered = FACADES["fleet"]()
    recovered.replay_wal(path)
    assert _digest(recovered) == _digest(live)


@pytest.mark.parametrize("facade", sorted(FACADES))
def test_concurrent_ingest_and_eviction_replay_to_the_live_content(
        facade, tmp_path):
    # Writers land groups of old and new records while an evictor
    # raises the cutoff: a group logged before a cutoff but landed after
    # it survives in the live index, so replay converges only if the
    # log holds commits and evictions in the order the index saw them.
    def bundle(w, g):
        recs = [RepresentativeFoV(
            lat=40.0 + 1e-4 * w, lng=116.3 + 1e-4 * i, theta=float(40 * i),
            t_start=float(g + i), t_end=float(g + i) + 0.5,
            video_id=f"w{w}-g{g}", segment_id=i) for i in range(4)]
        return encode_bundle(f"w{w}-g{g}", recs)

    path = tmp_path / "ingest.wal"
    wal = WriteAheadLog(path)
    live = FACADES[facade](wal)
    errors = []

    def writer(w):
        try:
            for g in range(25):
                live.ingest_batch([bundle(w, g)])
        except Exception as exc:   # surfaced by the assert below
            errors.append(exc)

    def evictor():
        try:
            for cutoff in range(2, 26, 2):
                live.evict_older_than(float(cutoff))
        except Exception as exc:
            errors.append(exc)

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(3)] + [threading.Thread(target=evictor)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    wal.close()

    recovered = FACADES[facade]()
    assert recovered.replay_wal(path) == 75
    assert _digest(recovered) == _digest(live)
