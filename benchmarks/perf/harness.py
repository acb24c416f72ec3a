"""Build the fleet, drive one operation stream, check the answers.

Load model: in-process, closed loop, one client, one thread.  The
serving stack is a synchronously-called library, so the client waits
for each reply before the next call and every call is timed on its own
with ``time.perf_counter``.  Garbage collection stays at its defaults.

The reference box is a 2-vCPU VM whose neighbours slow it by up to
1.8-fold for tens of minutes at a time: ten runs of one commit spread
(inter-quartile range over median) by 15-36 % in wall-clock, and the
medians of two such sets differ by up to 20 %.  So a fixed kernel
(:func:`calibrate`) is timed between operations about four times a
second, and the gated times are the wall-clock times divided by the
run's *slowdown* -- the kernel's mean time over its time on the quiet
box.  That brings the summed time of the same runs to 2-6 % and the
medians within 2 %.  Wall-clock values and the slowdown are reported
next to the gated ones; ``benchmarks/perf/aa/`` holds the run sets
behind these numbers.

A run has three parts with separate clocks:

* **set-up** (:func:`build_fleet`) -- fleet construction, base-corpus
  ``ingest`` and warm-up (on writing workloads one throw-away commit
  group, then one city-wide query so every shard's ``packed_view`` is
  built; standbys take their first sync).  Reported as ``setup_s``.
* **measured run** (:func:`run_ops`) -- the workload's fixed operation
  stream; every latency and throughput comes from here.
* **verification** (:func:`verify`) -- untimed; sampled answers are
  re-asked of a brute-force oracle, write outcomes and WAL recovery are
  compared with the generator's expectations.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.query import Query, QueryResult
from repro.core.server import CloudServer
from repro.core.wal import WriteAheadLog
from repro.geo.coords import GeoPoint
from repro.net.protocol import decode_bundle
from repro.shard.replica import ReplicaSet
from repro.shard.server import ShardedCloudServer
from repro.traces.scenarios import CITY_ORIGIN
from repro.video.retrieval import VideoQueryResult

from benchmarks.perf.trace import SpanRecorder
from benchmarks.perf.workloads import (CACHE_SIZE, EXTENT_M, HORIZON_S,
                                       N_SHARDS, Op, Workload)

__all__ = ["Fleet", "RunLog", "build_fleet", "run_ops", "verify",
           "results_digest", "calibrate", "slowdown", "POINT_SAMPLE_EVERY",
           "VIDEO_SAMPLE_EVERY"]

#: Oracle sample: every 50th point query (2 %), every 10th video query.
POINT_SAMPLE_EVERY = 50
VIDEO_SAMPLE_EVERY = 10

#: One query whose box covers the whole city: reaches every shard.
_WARMUP_QUERY = Query(t_start=0.0, t_end=HORIZON_S,
                      center=GeoPoint(lat=CITY_ORIGIN.lat,
                                      lng=CITY_ORIGIN.lng),
                      radius=EXTENT_M, top_n=1)


#: Mean :func:`calibrate` reading on the reference box with quiet
#: neighbours, so that a quiet run's slowdown is 1 and its gated times
#: equal its wall-clock times.  (One value maps noisy-period runs of all
#: four workloads onto their quiet-period wall-clock to within 1.5 %.)
CALIBRATION_REFERENCE_S = 0.0060
#: Busy time between two calibrations inside the measured run.
CALIBRATE_EVERY_S = 0.25

_rng = np.random.default_rng(0)
_CAL_SMALL = _rng.uniform(size=20_000)              # L2-resident
_CAL_LARGE = _rng.uniform(size=2_000_000)           # 16 MB, past the caches
_CAL_INDEX = _rng.integers(0, _CAL_LARGE.size, size=200_000)
_CAL_GATHERED = np.empty(_CAL_INDEX.size)
del _rng


def _kernel() -> None:
    """About 2 ms each of the three things the serving stack spends its
    time in: the interpreter (an arithmetic loop), NumPy compute on an
    L2-sized array (sort, filter, cosine), and cache-missing reads (a
    random gather from 16 MB into a preallocated buffer).  It allocates
    next to nothing, so it neither triggers nor pays for garbage
    collection."""
    acc = 0
    for i in range(40_000):
        acc += i * i
    for _ in range(8):
        np.sort(_CAL_SMALL)
        np.flatnonzero(_CAL_SMALL > 0.5)
        np.cos(_CAL_SMALL)
    np.take(_CAL_LARGE, _CAL_INDEX, out=_CAL_GATHERED)


def calibrate() -> float:
    """Seconds the fixed kernel takes right now.

    The kernel runs twice and the second pass is timed, so the reading
    starts from the kernel's own cache contents, not from whatever the
    program under test left there: a change to ``src/`` that evicts
    more cannot inflate the normaliser and hide itself.
    """
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def slowdown(samples: list[float]) -> float:
    """How much slower than the quiet reference box the samples ran."""
    return statistics.fmean(samples) / CALIBRATION_REFERENCE_S


def _new_server(wal: WriteAheadLog | None) -> ShardedCloudServer:
    """The deployed configuration of ISSUE 11 (default observability)."""
    return ShardedCloudServer(CameraModel(), n_shards=N_SHARDS,
                              origin=CITY_ORIGIN, engine="packed",
                              cache_size=CACHE_SIZE, wal=wal)


@dataclass
class Fleet:
    """The serving stack one run talks to."""

    server: ShardedCloudServer
    wal: WriteAheadLog | None = None
    replicas: ReplicaSet | None = None
    #: WAL-less fleet restored to the base corpus, awaiting the replay
    recovery: ShardedCloudServer | None = None

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()
            os.unlink(self.wal.path)
        self.server.close()
        if self.recovery is not None:
            self.recovery.close()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


def build_fleet(workload: Workload, wal_path: str) -> Fleet:
    """Set up the fleet for ``workload``: load, warm up, arm standbys."""
    kinds = {op.kind for op in workload.ops}
    wal = None
    if workload.writes:
        if os.path.exists(wal_path):
            os.unlink(wal_path)
        wal = WriteAheadLog(wal_path)
    fleet = Fleet(server=_new_server(wal), wal=wal)
    try:
        base = list(workload.base)
        fleet.server.ingest(base)
        if workload.writes:
            fleet.server.ingest_batch(list(workload.warmup_group))
        fleet.server.query(_WARMUP_QUERY)
        if "sync" in kinds:
            fleet.replicas = ReplicaSet(fleet.server)
            fleet.replicas.sync()
        if "replay" in kinds:
            fleet.recovery = _new_server(None)
            fleet.recovery.ingest(base)
    except BaseException:
        fleet.close()
        raise
    return fleet


@dataclass(frozen=True)
class Raised:
    """Stands in for the reply of a client call that raised."""

    traceback: str


@dataclass
class RunLog:
    """What one pass over the operation stream observed."""

    durations: list[float] = field(default_factory=list)    # one per op
    calibration: list[float] = field(default_factory=list)
    results: list[Any] = field(default_factory=list)        # one per op
    epoch_bumps: int = 0
    acked_records: int = 0
    recovered_records: int = 0
    promoted_records: int = 0

    @property
    def slowdown(self) -> float:
        return slowdown(self.calibration)

    def wall_seconds(self) -> float:
        """Wall-clock seconds inside client calls, the whole stream."""
        return sum(self.durations)


def _call(op: Op, fleet: Fleet, log: RunLog) -> tuple[float, Any]:
    """Issue one client call; returns ``(seconds, reply)``."""
    server = fleet.server
    clock = time.perf_counter
    if op.kind == "query":
        t0 = clock()
        reply = server.query(op.arg)
        return clock() - t0, reply
    if op.kind == "video":
        t0 = clock()
        reply = server.query_video(op.arg)
        return clock() - t0, reply
    if op.kind == "sweep":
        batch = list(op.arg)
        t0 = clock()
        reply = server.query_many(batch)
        return clock() - t0, reply
    if op.kind == "ingest":
        payloads = list(op.arg)
        before = server.epoch_vector()
        t0 = clock()
        reply = server.ingest_batch(payloads)
        dt = clock() - t0
        log.epoch_bumps += sum(b - a for a, b in
                               zip(before, server.epoch_vector()))
        log.acked_records += sum(o.records_indexed for o in reply)
        return dt, reply
    if op.kind == "sync":
        assert fleet.replicas is not None
        t0 = clock()
        reply = fleet.replicas.sync()
        return clock() - t0, reply
    if op.kind == "failover":
        assert fleet.replicas is not None
        t0 = clock()
        fleet.replicas.kill(op.arg)
        fleet.replicas.promote(op.arg)
        dt = clock() - t0
        promoted = fleet.replicas.replica(op.arg)
        assert promoted is not None
        log.promoted_records = len(promoted)
        return dt, None
    if op.kind == "replay":
        # The crash: the primary's log is closed as the OS left it,
        # and a fleet restored to the base corpus replays it.
        assert fleet.wal is not None and fleet.recovery is not None
        fleet.wal.close()
        before = fleet.recovery.indexed_count
        epochs = fleet.recovery.epoch_vector()
        t0 = clock()
        reply = fleet.recovery.replay_wal(fleet.wal.path)
        dt = clock() - t0
        log.recovered_records = fleet.recovery.indexed_count - before
        log.epoch_bumps += sum(b - a for a, b in
                               zip(epochs, fleet.recovery.epoch_vector()))
        return dt, reply
    raise ValueError(f"unknown op kind {op.kind!r}")


def run_ops(workload: Workload, fleet: Fleet,
            recorder: SpanRecorder | None = None) -> RunLog:
    """The measured run: every op in order, each timed on its own.

    With a ``recorder`` each client call additionally sits inside an
    ``op.<kind>`` span, the root the wrapped layers' spans hang off;
    the reported latencies still come from the same clock reads.  A
    call that raises is logged as :class:`Raised` for :func:`verify`
    to count, and the stream goes on.  Calibrations run between calls,
    outside every span and every latency.
    """
    log = RunLog()
    busy, next_calibration = 0.0, 0.0
    for op in workload.ops:
        if busy >= next_calibration:
            log.calibration.append(calibrate())
            next_calibration = busy + CALIBRATE_EVERY_S
        if recorder is not None:
            recorder.begin("op." + op.kind)
        t0 = time.perf_counter()
        try:
            dt, reply = _call(op, fleet, log)
        except Exception:       # the client's boundary: count, carry on
            dt, reply = time.perf_counter() - t0, Raised(
                traceback.format_exc(limit=-3))
        finally:
            if recorder is not None:
                recorder.end()
        busy += dt
        log.durations.append(dt)
        log.results.append(reply)
    log.calibration.append(calibrate())
    return log


# -- verification -------------------------------------------------------------

def _point_rows(result: QueryResult) -> tuple:
    return tuple((r.fov.key(), r.distance, r.covers, r.score)
                 for r in result.ranked)


def _video_rows(result: VideoQueryResult) -> tuple:
    return tuple(tuple(match) for match in result.ranked)


def results_digest(workload: Workload, log: RunLog) -> str:
    """sha256 over every ranked row the run returned, in op order."""
    h = hashlib.sha256()
    for i, (op, reply) in enumerate(zip(workload.ops, log.results)):
        if isinstance(reply, Raised):
            h.update(f"{i}|raised\n".encode())
        elif op.kind == "query":
            h.update(f"{i}|{_point_rows(reply)!r}\n".encode())
        elif op.kind == "sweep":
            for result in reply:
                h.update(f"{i}|{_point_rows(result)!r}\n".encode())
        elif op.kind == "video":
            h.update(f"{i}|{_video_rows(reply)!r}\n".encode())
    return h.hexdigest()


def _content(records: list[RepresentativeFoV]) -> list[tuple]:
    """Canonical, order-independent form of a record set."""
    return sorted((f.video_id, f.segment_id, f.lat, f.lng, f.theta,
                   f.t_start, f.t_end) for f in records)


@dataclass
class Verdict:
    """Operations attempted and the ones that missed their expectation."""

    attempted: int = 0
    failed: int = 0
    oracle_checks: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, note: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


def verify(workload: Workload, fleet: Fleet, log: RunLog) -> Verdict:
    """Compare the run with the generator's expectations and the oracle.

    The oracle is a single ``CloudServer`` on the linear-scan backend
    and the dynamic engine -- no grid, no packed view, no sharding, no
    cache.  It is stepped through the run's commit groups so that each
    sampled query is re-asked of exactly the record set it saw.
    """
    verdict = Verdict(attempted=len(workload.ops))
    oracle = CloudServer(CameraModel(), backend="linear", engine="dynamic",
                         cache_size=0)
    reads = any(op.kind in ("query", "sweep", "video") for op in workload.ops)
    expected = list(workload.base)      # base + acknowledged records

    def land(records: list[RepresentativeFoV]) -> None:
        expected.extend(records)
        if reads:                       # nobody asks an unread oracle
            oracle.ingest(records)

    if reads:
        oracle.ingest(expected)
    for payload in workload.warmup_group:
        land(decode_bundle(payload)[1])
    accepted: list[bytes] = []
    n_point = n_video = 0
    pool_before: list[tuple] = []
    pool_after: list[tuple] = []

    def ask(query: Query, result: QueryResult, label: str) -> None:
        verdict.oracle_checks += 1
        verdict.check(_point_rows(oracle.query(query)) == _point_rows(result),
                      f"{label}: ranked rows differ from the oracle")

    for i, (op, reply) in enumerate(zip(workload.ops, log.results)):
        if isinstance(reply, Raised):
            verdict.check(False, f"op {i} ({op.role}) raised:\n"
                                 f"{reply.traceback}")
        elif op.kind == "ingest":
            got = tuple(o.status.name for o in reply)
            verdict.check(got == op.expect,
                          f"op {i}: outcomes {got} != expected {op.expect}")
            fresh = [p for p, s in zip(op.arg, op.expect) if s == "ACCEPTED"]
            for payload in fresh:
                land(decode_bundle(payload)[1])
            accepted.extend(fresh)
        elif op.kind == "query":
            sampled = n_point % POINT_SAMPLE_EVERY == 0
            n_point += 1
            if op.role == "pool_before":
                pool_before.append(_point_rows(reply))
            elif op.role == "pool_after":
                pool_after.append(_point_rows(reply))
            if sampled or op.role != "query":
                ask(op.arg, reply, f"op {i} ({op.role})")
        elif op.kind == "sweep":
            verdict.check(len(reply) == len(op.arg),
                          f"op {i}: sweep answered {len(reply)} of "
                          f"{len(op.arg)} queries")
            for query, result in zip(op.arg, reply):
                if n_point % POINT_SAMPLE_EVERY == 0:
                    ask(query, result, f"op {i} (sweep)")
                n_point += 1
        elif op.kind == "video":
            if n_video % VIDEO_SAMPLE_EVERY == 0:
                verdict.oracle_checks += 1
                verdict.check(
                    _video_rows(oracle.query_video(op.arg))
                    == _video_rows(reply),
                    f"op {i}: video ranking differs from the oracle")
            n_video += 1
        elif op.kind == "replay":
            assert fleet.recovery is not None
            verdict.check(
                _content(fleet.recovery.records())
                == _content(fleet.server.records()),
                "replay: recovered fleet differs from the crashed one")
            # Dedup state is durable too: a redelivery after the
            # restart must still be recognised.
            again = fleet.recovery.ingest_batch(accepted)
            verdict.check(
                all(o.status.name == "DUPLICATE" for o in again),
                "replay: an acknowledged bundle was not recovered")
    verdict.check(
        log.acked_records == workload.expected.get("records_inserted", 0),
        "acknowledged record count differs from the generator's")
    verdict.check(pool_before == pool_after,
                  "failover: promoted fleet ranks the pool differently")
    verdict.check(
        _content(fleet.server.records()) == _content(expected),
        "final fleet content differs from base + acknowledged bundles")
    return verdict
