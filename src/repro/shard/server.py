"""Geo-sharded serving tier: one index per spatial shard.

:class:`ShardedCloudServer` is the cloud server of Figure 1 --
``ingest_bundle`` / ``ingest`` / ``query`` / ``query_many`` /
``query_video`` / ``evict_older_than`` -- over a fleet of shards, each
a bare :class:`~repro.core.index.FoVIndex` (and its packed view); the
router runs the funnel itself and owns every instrument around a read.
:class:`~repro.core.server.CloudServer` is its fleet of one, which
replaces only how a read's cache misses are answered.  The router:

* **routes ingest** by representative-FoV grid cell
  (:class:`~repro.shard.partition.GridPartitioner`), deduplicating
  bundle redeliveries fleet-wide by content digest before any shard is
  touched;
* **answers a call's queries in one funnel pass**: the partitioner
  names the shards whose cells could intersect each query's ``(p, r,
  [ts, te])`` box, a per-shard content bounding box prunes further,
  each surviving shard is descended under its lock, and the hits of
  every shard and query are projected, filtered, scored and sorted
  once, into rankings **bit-identical** to a single server holding
  every record (docs/SHARDING.md has the argument);
* **caches under the epoch vector**: the router-level result cache tags
  entries with the tuple of per-shard index epochs, re-read after the
  descent -- a result computed while any shard mutated is served but
  never cached, so a hit always equals the cold recomputation.

Thread safety: each shard has its own lock serialising index access
(a bundle's records land in a shard atomically -- ``insert_many`` is
one epoch bump); the digest/owner maps and the result caches lock
themselves (:class:`~repro.core.ingest.IngestCoordinator`,
:class:`~repro.core.cache.QueryResultCache`), and the router's own
ingest lock guards only the set of down shards.  Metric increments are
already thread-safe per family.
"""

from __future__ import annotations

import threading
from functools import partial
from operator import itemgetter
from typing import Callable, ContextManager, NamedTuple, Sequence

import numpy as np

from repro.core.camera import CameraModel
from repro.core.cache import QueryResultCache, query_cache_key, read_through
from repro.core.flatsnap import pack_snapshot
from repro.core.fov import RecordColumns, RepresentativeFoV
from repro.core.index import (Bounds, ContentMark, FoVIndex, PackedFoVIndex,
                              _checked_geometry, query_box_floats)
from repro.core.ingest import IngestCoordinator, IngestOutcome, ServerStats
from repro.core.query import Query, QueryResult
from repro.core.quarantine import QuarantineStore
from repro.core.ranking import DistanceRanker
from repro.core.retrieval import Part, _batch_execute
from repro.core.wal import WriteAheadLog
from repro.geo.coords import GeoPoint
from repro.net.channel import FaultyChannel, RetryPolicy, RetryingUploader
from repro.net.clock import default_timer
from repro.obs.runtime import Observability
from repro.shard.partition import DEFAULT_CELL_M, GridPartitioner
from repro.video.retrieval import VideoQuery, VideoQueryResult, \
    VideoQueryStats, retrieve_videos

__all__ = ["ShardCapture", "ShardedCloudServer", "ShardUnavailableError"]


class ShardCapture(NamedTuple):
    """One shard read by :meth:`ShardedCloudServer.capture_shard`."""

    epoch: int              #: the shard's epoch, stamped in ``packed``
    mark: ContentMark       #: the shard's content mark at capture
    packed: bytes           #: ``FOVPACK1`` buffer of the captured rows
    tail: bool              #: rows after ``since`` only, not every row


class ShardUnavailableError(RuntimeError):
    """A request needed a shard whose primary is down (fail-stop).

    Raised by the query path when routing plus content bounds say the
    dead shard could contribute rows (an answer without it would be
    silently wrong), and by every write path while *any* shard is
    down (a record landing on a placeholder would be discarded at
    promotion).  Retryable: once :meth:`ShardedCloudServer.install_shard`
    promotes a replica, the same request succeeds.
    """

    def __init__(self, shard_id: int) -> None:
        super().__init__(f"shard {shard_id} is down")
        self.shard_id = shard_id


def _refuse_while_down(lock: ContextManager[object], down: set[int]) -> None:
    """Writes are refused while any primary is absent (fail-stop)."""
    with lock:
        if down:
            raise ShardUnavailableError(min(down))


class ShardedCloudServer:
    """Scatter-gather retrieval service over geo-partitioned shards.

    Parameters
    ----------
    camera : CameraModel
        Camera constants shared with the provider fleet.
    n_shards : int
        Fleet size (>= 1).
    origin : GeoPoint
        Anchor of the deployment's local plane; every router for this
        deployment must use the same origin (and ``cell_m``/``seed``)
        or routing disagrees.
    cell_m, seed :
        Grid pitch and hash seed (see
        :class:`~repro.shard.partition.GridPartitioner`).
    strict_cover : bool
        The orientation filter's cover rule (see
        :class:`~repro.core.retrieval.RetrievalEngine`).
    engine : {"packed"}
        Anything else is refused with ``ValueError``.
    cache_size : int
        Router-level result cache capacity (``0`` disables).  Shards
        have no cache -- one cache layer, tagged by the epoch vector.
    obs : Observability, optional
        The router's instrument bundle.  Shards carry none: the router
        exports per-shard state as ``shard.epoch`` /
        ``shard.records_live`` gauges labelled by shard id.
    clock : callable, optional
        Monotonic timer for ``elapsed_s`` accounting
        (injectable; defaults to :func:`repro.net.clock.default_timer`).
    wal : WriteAheadLog, optional
        Router-level write-ahead log: accepted payloads are made
        durable before any shard indexes a record, fsynced once per
        commit group (:meth:`ingest_batch`), and retention cutoffs
        before any shard evicts; replayable with :meth:`replay_wal`.
    admission_capacity : int, optional
        Router-level back-pressure cap on in-flight bundles; the
        excess is ``SHED`` (retryable).  ``None`` disables it.
    """

    def __init__(self, camera: CameraModel, n_shards: int, origin: GeoPoint,
                 cell_m: float = DEFAULT_CELL_M, seed: int = 0,
                 strict_cover: bool = True, engine: str = "packed",
                 cache_size: int = 1024,
                 obs: Observability | None = None,
                 clock: Callable[[], float] | None = None,
                 wal: WriteAheadLog | None = None,
                 admission_capacity: int | None = None) -> None:
        if engine != "packed":
            raise ValueError(f"a sharded fleet serves from the packed "
                             f"engine, not {engine!r}")
        self.camera = camera
        self.partitioner = GridPartitioner(n_shards=n_shards, origin=origin,
                                           cell_m=cell_m, seed=seed)
        self.obs = obs if obs is not None else Observability.default()
        self._clock = clock if clock is not None else default_timer
        self._strict_cover = strict_cover
        self._ranker = DistanceRanker()
        self.shards: list[FoVIndex] = [FoVIndex() for _ in range(n_shards)]
        self._locks = [threading.RLock() for _ in range(n_shards)]
        # Each shard index's content box as of its last ingest; the
        # router's copy outlives the primary (kill_shard).
        self._bounds: list[Bounds | None] = [None] * n_shards
        self._ingest_lock = threading.Lock()
        self._down: set[int] = set()
        self.wal = wal
        self.stats = ServerStats(registry=self.obs.registry)
        self.quarantine = QuarantineStore(journal=self.obs.journal,
                                          registry=self.obs.registry)
        # The write check holds the lock and the set, not the router: the
        # coordinator keeps it, and a bound method would make a cycle.
        self._check_fleet_up = partial(_refuse_while_down,
                                       self._ingest_lock, self._down)
        self._ingest = IngestCoordinator(
            stats=self.stats, journal=self.obs.journal,
            quarantine=self.quarantine, wal=wal,
            admission_capacity=admission_capacity,
            check=self._check_fleet_up)
        self._cache = (
            QueryResultCache(cache_size, registry=self.obs.registry,
                             journal=self.obs.journal)
            if cache_size > 0 else None
        )
        # Video retrieval caches under the epoch *vector* (like point
        # queries); a private registry keeps ``cache.*`` reconcilable.
        self.video_stats = VideoQueryStats(registry=self.obs.registry)
        self._video_cache = (
            QueryResultCache(cache_size, journal=self.obs.journal)
            if cache_size > 0 else None
        )
        reg = self.obs.registry
        self._route = reg.counter(
            "shard.route", "Records routed to each shard on ingest",
            labelnames=("shard",))
        self._pruned = reg.counter(
            "shard.pruned",
            "Per-query shard visits skipped by routing or content bounds")
        self._fanout = reg.histogram(
            "shard.fanout_width", "Shards actually searched per query",
            buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
        self._epoch_gauge = reg.gauge(
            "shard.epoch", "Per-shard index mutation epoch",
            labelnames=("shard",))
        self._live_gauge = reg.gauge(
            "shard.records_live", "Per-shard index population",
            labelnames=("shard",))
        self._dropped = reg.counter(
            "failover.dropped_queries",
            "queries refused while a needed shard was down")
        self._descents = reg.counter("packed.descents",
                                     "Packed funnel passes")
        self._rows_tested = reg.counter("packed.entries_tested",
                                        "Grid rows read by the box test")
        self._rows_matched = reg.counter(
            "packed.entries_matched", "Box hits, before the sector-box test")
        self._read_peak = reg.gauge("packed.frontier_width_peak",
                                    "Most grid rows read by one pass")
        # Raising the peak reads it first; two passes must not interleave.
        self._peak_lock = threading.Lock()
        for sid in range(n_shards):
            self._epoch_gauge.labels(shard=str(sid)).set(0)
            self._live_gauge.labels(shard=str(sid)).set(0)

    @property
    def n_shards(self) -> int:
        return self.partitioner.n_shards

    @property
    def indexed_count(self) -> int:
        """Total live records across the fleet.

        Lock-free by design: called from gauge syncs that already hold
        one shard lock, where taking every lock would nest shard locks
        (forbidden by the RF010 lock order).  The count is advisory.
        """
        return sum(len(s) for s in self.shards)  # fovlint: disable=RF009

    def epoch_vector(self) -> tuple[int, ...]:
        """Per-shard index epochs -- the fleet's cache-invalidation tag.

        Deliberately lock-free: callers read the vector before and
        after a descent and only trust results when the two reads
        agree, so a torn read is detected, never cached.
        """
        return tuple([s.epoch for s in self.shards])  # fovlint: disable=RF009

    def records(self) -> list[RepresentativeFoV]:
        """Every indexed record, shard by shard (audits, snapshots)."""
        out: list[RepresentativeFoV] = []
        for sid in range(self.n_shards):
            with self._locks[sid]:
                out.extend(self.shards[sid].records())
        return out

    # -- failover ---------------------------------------------------------

    def _check_sid(self, sid: int) -> None:
        if not 0 <= sid < self.n_shards:
            raise ValueError(f"shard id {sid} out of range "
                             f"[0, {self.n_shards})")

    @property
    def down_shards(self) -> frozenset[int]:
        """Shard ids currently without a serving primary."""
        with self._ingest_lock:
            return frozenset(self._down)

    def shard_mark(self, sid: int) -> ContentMark:
        """Shard ``sid``'s :class:`~repro.core.index.ContentMark`, read
        under its lock (the token and count are two fields)."""
        self._check_sid(sid)
        with self._locks[sid]:
            return self.shards[sid].mark

    def capture_shard(self, sid: int,
                      since: ContentMark | None = None) -> ShardCapture:
        """Shard ``sid``'s records as one ``FOVPACK1`` buffer.

        With ``since`` -- a mark an earlier capture returned -- the
        buffer holds only the rows appended after it (``tail=True``)
        when the shard's token still matches, and every row otherwise.
        The mark and the column slices
        (:meth:`~repro.core.index.FoVIndex.record_columns`) are taken
        together under the shard lock; packing happens outside it (the
        slices are frozen).  No search structure is built, and the
        shard's serving view is left as it was.
        """
        self._check_sid(sid)
        with self._locks[sid]:
            index = self.shards[sid]
            mark = index.mark
            columns = None if since is None else index.record_columns(since)
            tail = columns is not None
            if columns is None:
                columns = index.record_columns()
        return ShardCapture(columns.epoch, mark, pack_snapshot(columns), tail)

    def capture_fleet(self) -> tuple[list[ShardCapture], frozenset[str]]:
        """Every shard's full capture, and the digests of the bundles
        whose records those captures hold, read as one state.

        Taken under the ingest coordinator's log-order lock, so no
        commit group or eviction lands in between, and a bundle still
        decoding (its digest reserved, its records not landed) is left
        out: a redelivery of it must index it.  Raises
        :class:`ShardUnavailableError` while any primary is down: a
        killed slot is an empty placeholder.
        """
        with self._ingest.exclusive():
            self._check_fleet_up()
            captures = [self.capture_shard(sid)
                        for sid in range(self.n_shards)]
            return captures, self._ingest.landed_digests()

    def kill_shard(self, sid: int) -> None:
        """Simulate losing shard ``sid``'s primary mid-run.

        The slot is replaced by an empty index, so the dead
        primary's data is really gone from the serving path: queries
        whose routing plus content bounds need the shard raise
        :class:`ShardUnavailableError`, and every write (ingest,
        eviction, WAL replay) is refused fleet-wide until
        :meth:`install_shard` restores the slot.  Router-level caches
        are cleared -- the empty index restarts the slot's epoch
        counter, so existing epoch-vector tags no longer identify the
        content they were computed from.  The dead primary is dropped.

        The slot goes down between writes, never between a write's
        fleet check and its index change, so a WAL holds no write the
        fleet refused part-way.
        """
        self._check_sid(sid)
        with self._ingest.exclusive(), self._ingest_lock:
            self._down.add(sid)
        with self._locks[sid]:
            self.shards[sid] = FoVIndex()
            self._sync_shard_gauges(sid, "kill")
        self._clear_result_caches()

    def install_shard(self, sid: int, index: FoVIndex) -> None:
        """Promote ``index`` into slot ``sid`` and resume serving it.

        Refused with ``ValueError``, before anything changes, unless the
        slot is down: a serving primary holds rows its standby may lack.

        The slot's content bounds become ``index``'s own, which cover
        every row it holds, so they still prune safely.  Caches are
        cleared for the same epoch-counter reason as
        :meth:`kill_shard`.
        """
        self._check_sid(sid)
        if sid not in self.down_shards:
            raise ValueError(f"shard {sid} is serving, not down")
        self._place(sid, index)
        with self._ingest_lock:
            self._down.discard(sid)
        self._clear_result_caches()

    def _place(self, sid: int, index: FoVIndex) -> None:
        """Fill slot ``sid`` with ``index``, under the slot's lock: the
        slot, its content bounds (the index's own) and its gauges."""
        with self._locks[sid]:
            self.shards[sid] = index
            self._bounds[sid] = index.bounds()
            self._sync_shard_gauges(sid, "install")

    def _clear_result_caches(self) -> None:
        for cache in (self._cache, self._video_cache):
            if cache is not None:
                cache.clear()

    # -- ingest -----------------------------------------------------------

    def _sync_shard_gauges(self, sid: int, cause: str) -> None:
        """Refresh shard ``sid``'s gauges and the fleet's after it
        changed, journaling an ``index.epoch_bump`` when its epoch moved
        (``cause`` is ``ingest``, ``evict``, ``kill`` or ``install``).
        The fleet's ``index.epoch`` is the sum of the epoch vector."""
        index = self.shards[sid]
        gauge = self._epoch_gauge.labels(shard=str(sid))
        if index.epoch != gauge.value:
            gauge.set(index.epoch)
            self.stats._epoch.set(sum(self.epoch_vector()))
            self.obs.journal.emit("index.epoch_bump", cause=cause, shard=sid,
                                  epoch=index.epoch)
        self._live_gauge.labels(shard=str(sid)).set(len(index))
        self.stats._live.set(self.indexed_count)

    def _ingest_parts(self, parts: list[RecordColumns | None]) -> int:
        """Land a pre-split record set, shard by shard; returns the count.

        Each shard's column slice lands atomically under that shard's
        lock (``insert_many`` -- one epoch bump, all-or-nothing within
        the shard); geometry was validated before this is called, so no
        shard can reject its slice after a sibling already indexed.  A
        slice is dropped from ``parts`` once taken, so the split batch
        and the rows it has become in the stores are never both held.
        """
        n = 0
        for sid, part in enumerate(parts):
            parts[sid] = None
            if part is None or not len(part):
                continue
            with self._locks[sid]:
                n += self.shards[sid].insert_many(part)
                self._bounds[sid] = self.shards[sid].bounds()
                self._sync_shard_gauges(sid, "ingest")
            self._route.labels(shard=str(sid)).inc(len(part))
        return n

    def _land(self, columns: RecordColumns) -> int:
        """Check one run of columns, split it across the fleet and land
        every slice; refused up front while any primary is down
        (fail-stop).  The whole batch is checked before any shard
        indexes a record."""
        self._check_fleet_up()
        _checked_geometry(columns)
        return self._ingest_parts(list(self.partitioner.split(columns)))

    def ingest(self, fovs: RecordColumns | Sequence[RepresentativeFoV]
               ) -> int:
        """Directly index already-decoded records (dataset loading):
        record objects, or columns such as a loaded snapshot.

        The whole batch is checked before any shard indexes a record.
        """
        n = self._land(RecordColumns.of(fovs))
        self.stats._records_indexed.inc(n)
        return n

    def register_owner(self, video_id: str, device_id: str) -> None:
        """Name the provider device holding ``video_id``'s footage."""
        self._ingest.register_owner(video_id, device_id)

    @property
    def seen_digests(self) -> frozenset[str]:
        """Content digests of every bundle indexed so far (read-only)."""
        return self._ingest.seen_digests

    def ingest_bundle(self, payload: bytes,
                      device_id: str | None = None) -> IngestOutcome:
        """Ingest one delivered bundle; never raises on bad payloads.

        The at-least-once ack path, a commit group of one
        (:class:`~repro.core.ingest.IngestCoordinator`): when
        back-pressure is configured and saturated the payload is
        ``SHED`` untouched (retryable); a malformed or corrupt payload
        is quarantined and ``REJECTED``; a byte-identical redelivery of
        an already-indexed bundle is acknowledged ``DUPLICATE`` without
        touching any index (exactly-once indexing, fleet-wide);
        otherwise every record is validated before any is indexed, the
        payload is made durable in the WAL (when configured), each
        shard's slice lands atomically via ``insert_many`` (one epoch
        bump per shard), and the outcome is ``ACCEPTED``.  While a
        primary is down it raises :class:`ShardUnavailableError`
        (retryable; nothing indexed, remembered or logged).
        """
        with self.obs.tracer.span("server.ingest_bundle", bytes=len(payload)):
            return self._ingest.commit([payload], [device_id], self._land)[0]

    def ingest_batch(self, payloads: Sequence[bytes],
                     device_ids: Sequence[str | None] | None = None,
                     ) -> list[IngestOutcome]:
        """Ingest a commit group across the fleet in one pass.

        Per-bundle outcomes match calling :meth:`ingest_bundle` on
        each payload in order; the amortisation differs: one WAL fsync
        for the group, and each shard receives its whole slice of the
        group's records as a single ``insert_many`` -- one epoch bump
        per *shard* per group instead of per bundle.  Under
        back-pressure the tail beyond the free capacity is ``SHED``.
        """
        with self.obs.tracer.span("server.ingest_batch", batch=len(payloads)):
            return self._ingest.commit(payloads, device_ids, self._land)

    def replay_wal(self, path: str | None = None) -> int:
        """Recover bundles from a write-ahead log after a crash.

        Re-offers every committed payload through the normal ingest
        pipeline *without* re-appending to the WAL, and re-applies
        every logged eviction at its place in the log; bundles that
        made it into the fleet before the crash deduplicate as
        ``DUPLICATE``, the rest are indexed now.  Replaying this
        server's own log into it again changes nothing: the evictions
        it already applied are skipped by sequence number, so none
        drops records that landed after it.  Returns how many bundles
        were recovered (newly indexed).  Back-pressure does not apply
        to recovery.
        """
        with self.obs.tracer.span("server.ingest_batch"):
            return self._ingest.replay_wal(path, self._land, self._evict)

    def make_uploader(self, channel: FaultyChannel,
                      policy: RetryPolicy | None = None) -> RetryingUploader:
        """A retrying uploader wired to this server's ingest path.

        Retransmissions are counted into ``stats.bundles_retried`` so
        the operator sees the at-least-once traffic the channel cost.
        """
        return self._ingest.make_uploader(self.ingest_bundle, channel, policy)

    def evict_older_than(self, cutoff_t: float) -> int:
        """Enforce a retention window fleet-wide; returns the count.

        Refused while any primary is down, before anything is logged.
        With a WAL the cutoff is logged and fsynced before any shard
        changes, so :meth:`replay_wal` evicts at the same point.
        Eviction lowers the *live* population and raises the eviction
        counter; ``records_indexed`` stays the cumulative all-time
        total.  Content bounds are left as-is: eviction only removes
        records, so the stale (wider) box stays a conservative prune.
        """
        return self._ingest.evict(cutoff_t, self._evict)

    def _evict(self, cutoff_t: float) -> int:
        self._check_fleet_up()
        evicted = 0
        for sid in range(self.n_shards):
            with self._locks[sid]:
                evicted += self.shards[sid].evict_older_than(cutoff_t)
                self._sync_shard_gauges(sid, "evict")
        self.stats._evicted.inc(evicted)
        return evicted

    # -- query ------------------------------------------------------------

    def _could_match(self, sid: int,
                     box: tuple[float, float, float, float, float, float]
                     ) -> bool:
        """Can shard ``sid``'s content box intersect the query box?

        ``box`` is :func:`~repro.core.index.query_box_floats`' six
        floats, ``(min_lng, min_lat, min_t, max_lng, max_lat, max_t)``.
        """
        b = self._bounds[sid]
        if b is None:
            return False
        return (b[0] <= box[3] and b[1] >= box[0]
                and b[2] <= box[4] and b[3] >= box[1]
                and b[4] <= box[5] and b[5] >= box[2])

    def _answer(self, queries: list[Query]) -> list[QueryResult]:
        """Descend each query's target shards, each under its lock (the
        targets come sorted), then rank every visit's hits in one
        :func:`~repro.core.retrieval._batch_execute` pass, counted as
        one pass.

        A single query hands on one funnel part per visit; a batch one
        per shard view, its visits' ids concatenated in query order, in
        shard order (a view a concurrent write replaced mid-call gets a
        part of its own, after the shard's earlier one)."""
        t0 = self._clock()
        down = self.down_shards
        cover = self.camera if self._strict_cover else None
        parts: list[Part] = []
        # id(view) -> (shard, view, query ids, the visits' ids)
        grouped: dict[int, tuple[int, PackedFoVIndex, list[int],
                                 list[np.ndarray]]] = {}
        hits: list[int] = []
        read = 0                        # rows read over every visit
        with self.obs.tracer.span("query.tree_descent", queries=len(queries)):
            for qi, query in enumerate(queries):
                targets = self.partitioner.shards_for_query(query)
                box = query_box_floats(query)
                tally = [0, 0]          # box hits, rows read
                visited = 0
                for sid in targets:
                    with self._locks[sid]:
                        if not self._could_match(sid, box):
                            self._pruned.inc()
                            continue
                        if sid in down:
                            # The answer would silently miss this
                            # shard's rows; failing loudly lets the
                            # caller retry after a replica is promoted.
                            self._dropped.inc()
                            raise ShardUnavailableError(sid)
                        view = self.shards[sid].packed_view()
                        ids = view.range_search_ids(query, cover, tally)
                    visited += 1
                    if not ids.size:
                        continue
                    if len(queries) == 1:
                        parts.append((view, None, ids))
                    else:
                        group = grouped.setdefault(
                            id(view), (sid, view, [], []))
                        group[2].append(qi)
                        group[3].append(ids)
                self._pruned.inc(self.n_shards - len(targets))
                self._fanout.observe(visited)
                hits.append(tally[0])
                read += tally[1]
        for _, view, qis, visits in sorted(grouped.values(),
                                           key=itemgetter(0)):
            parts.append((view, np.repeat(qis, [v.size for v in visits]),
                          np.concatenate(visits)))
        results = _batch_execute(parts, queries, hits, self.camera,
                                 self._strict_cover, self._ranker,
                                 self._clock, t0, self.obs.tracer)
        if queries:
            self._count_pass(sum(hits), read)
        return results

    def _count_pass(self, matched: int, read: int) -> None:
        """Count one funnel pass into the ``packed.*`` families: its box
        hits (the sum of its ``candidates``) and the grid rows its
        descent read over every visit."""
        self._descents.inc()
        self._rows_tested.inc(read)
        self._rows_matched.inc(matched)
        with self._peak_lock:
            if read > self._read_peak.value:
                self._read_peak.set(read)

    def _read_points(self, queries: list[Query]) -> list[QueryResult]:
        """Point queries through the epoch-vector-tagged result cache;
        every miss is answered in one :meth:`_answer` call.

        The epoch vector is read before the descent and again after
        (:func:`~repro.core.cache.read_through`): results are always
        *served*, but only cached when the two reads agree -- a batch
        that raced an ingest cannot poison the cache with a torn
        snapshot of the fleet.
        """
        self.stats._queries.inc(len(queries))
        return read_through(
            self._cache, [query_cache_key(q) for q in queries],
            self.epoch_vector,
            lambda missed: self._answer([queries[i] for i in missed]),
            self.stats._cache_hits, self.stats._cache_misses)

    def query(self, query: Query) -> QueryResult:
        """Answer one ranked spatio-temporal query (cache-aware)."""
        with self.obs.tracer.span("server.query"):
            return self._read_points([query])[0]

    def query_many(self, queries: list[Query]) -> list[QueryResult]:
        """Answer a batch: cached hits are merged in place, and every
        miss is answered in one funnel pass."""
        batch = list(queries)
        with self.obs.tracer.span("server.query_many", batch=len(batch)):
            return self._read_points(batch)

    def query_video(self, video_query: VideoQuery) -> VideoQueryResult:
        """Answer one video retrieval request over the fleet (cache-aware).

        The harvest batch rides :meth:`query_many`'s one funnel pass,
        whose rankings are bit-identical to a single server holding
        every record -- so the video top-k is
        too.  Caching follows the same epoch-vector discipline, with
        the frozen :class:`VideoQuery` as its own key: a result that
        raced an ingest is served but never cached.  The request is
        counted into ``video.*`` and traced as ``video.query``, around
        :func:`~repro.video.retrieval.retrieve_videos`' stage spans.
        """
        stats = self.video_stats

        def retrieve(_missed: list[int]) -> list[VideoQueryResult]:
            result = retrieve_videos(video_query, self.query_many,
                                     self.camera, clock=self._clock,
                                     tracer=self.obs.tracer)
            stats._segments_harvested.inc(result.segments_harvested)
            stats._videos_ranked.inc(result.videos_considered)
            return [result]

        with self.obs.tracer.span("video.query",
                                  segments=len(video_query.segments)):
            stats._queries.inc()
            result: VideoQueryResult = read_through(
                self._video_cache, [video_query], self.epoch_vector,
                retrieve, stats._cache_hits, stats._cache_misses)[0]
            return result

    def close(self) -> None:
        """Release fleet-held resources (idempotent).

        There is currently nothing to release, so no shard lock is
        taken; the call stays so that owners can shut a fleet down
        without knowing what it holds.
        """
