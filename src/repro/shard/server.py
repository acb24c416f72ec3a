"""Geo-sharded serving tier: one index per spatial shard.

:class:`ShardedCloudServer` presents the single-server surface --
``ingest_bundle`` / ``ingest`` / ``query`` / ``query_many`` /
``evict_older_than`` -- over a fleet of shards, each a bare
:class:`~repro.core.index.FoVIndex` (and its packed view); the router
runs the funnel itself.  The router:

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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.core.camera import CameraModel
from repro.core.cache import QueryResultCache, query_cache_key, read_through
from repro.core.flatsnap import pack_snapshot
from repro.core.fov import RecordColumns, RepresentativeFoV
from repro.core.index import (Bounds, ContentMark, FoVIndex,
                              _checked_geometry, query_box_floats)
from repro.core.ingest import IngestCoordinator
from repro.core.query import Query, QueryResult
from repro.core.quarantine import QuarantineStore
from repro.core.ranking import DistanceRanker
from repro.core.retrieval import Part, _batch_execute
from repro.core.server import IngestOutcome, ServerStats
from repro.core.wal import WriteAheadLog
from repro.geo.coords import GeoPoint
from repro.net.channel import FaultyChannel, RetryPolicy, RetryingUploader
from repro.net.clock import default_timer
from repro.obs.runtime import Observability
from repro.shard.partition import DEFAULT_CELL_M, GridPartitioner
from repro.video.retrieval import VideoQuery, VideoQueryResult, \
    VideoQueryStats, serve_video_query

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
        The orientation filter's cover rule (see RetrievalEngine).
    engine : {"packed"}
        Anything else is refused with ``ValueError``.
    cache_size : int
        Router-level result cache capacity (``0`` disables).  Shards
        have no cache -- one cache layer, tagged by the epoch vector.
    quarantine_capacity : int
        Dead-letter capacity for payloads rejected at the router.
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
        commit group (:meth:`ingest_batch`), replayable with
        :meth:`replay_wal`.
    admission_capacity : int, optional
        Router-level back-pressure cap on in-flight bundles; the
        excess is ``SHED`` (retryable).  ``None`` disables it.
    """

    def __init__(self, camera: CameraModel, n_shards: int, origin: GeoPoint,
                 cell_m: float = DEFAULT_CELL_M, seed: int = 0,
                 strict_cover: bool = True, engine: str = "packed",
                 cache_size: int = 1024,
                 quarantine_capacity: int = 256,
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
        self._down: frozenset[int] = frozenset()
        self.wal = wal
        self.stats = ServerStats(registry=self.obs.registry)
        self.quarantine = QuarantineStore(capacity=quarantine_capacity,
                                          journal=self.obs.journal,
                                          registry=self.obs.registry)
        self._ingest = IngestCoordinator(
            stats=self.stats, journal=self.obs.journal,
            quarantine=self.quarantine, wal=wal,
            admission_capacity=admission_capacity)
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
        return tuple(s.epoch for s in self.shards)  # fovlint: disable=RF009

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

    def _check_fleet_up(self) -> None:
        """Writes are refused while any primary is absent (fail-stop)."""
        down = self.down_shards
        if down:
            raise ShardUnavailableError(min(down))

    @property
    def down_shards(self) -> frozenset[int]:
        """Shard ids currently without a serving primary."""
        with self._ingest_lock:
            return self._down

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
        """
        self._check_sid(sid)
        with self._ingest_lock:
            self._down = self._down | {sid}
        with self._locks[sid]:
            self.shards[sid] = FoVIndex()
            self._sync_shard_gauges(sid)
        self._clear_result_caches()

    def install_shard(self, sid: int, index: FoVIndex) -> None:
        """Promote ``index`` into slot ``sid`` and resume serving it.

        Refused with ``ValueError``, before anything changes, unless the
        slot is down: a serving primary holds rows its standby may lack.

        Content bounds are kept as-is: a promoted replica restores the
        content the stale bounds conservatively described (nothing was
        allowed to land while the primary was absent).  Caches are
        cleared for the same epoch-counter reason as
        :meth:`kill_shard`.
        """
        self._check_sid(sid)
        if sid not in self.down_shards:
            raise ValueError(f"shard {sid} is serving, not down")
        with self._locks[sid]:
            self.shards[sid] = index
            self._sync_shard_gauges(sid)
        with self._ingest_lock:
            self._down = self._down - {sid}
        self._clear_result_caches()

    def _clear_result_caches(self) -> None:
        for cache in (self._cache, self._video_cache):
            if cache is not None:
                cache.clear()

    # -- ingest -----------------------------------------------------------

    def _sync_shard_gauges(self, sid: int) -> None:
        index = self.shards[sid]
        self._epoch_gauge.labels(shard=str(sid)).set(index.epoch)
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
                self._sync_shard_gauges(sid)
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

        The single server's contract
        (:meth:`repro.core.server.CloudServer.ingest_bundle`),
        exactly-once fleet-wide.  While a primary is down it raises
        :class:`ShardUnavailableError` (retryable; nothing indexed or
        remembered).
        """
        with self.obs.tracer.span("shard.ingest_bundle", bytes=len(payload)):
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
        with self.obs.tracer.span("shard.ingest_batch", batch=len(payloads)):
            return self._ingest.commit(payloads, device_ids, self._land)

    def replay_wal(self, path: str | None = None) -> int:
        """Recover bundles from a write-ahead log after a crash (see
        :meth:`repro.core.server.CloudServer.replay_wal`)."""
        with self.obs.tracer.span("shard.ingest_batch"):
            return self._ingest.replay_wal(path, self._land)

    def make_uploader(self, channel: FaultyChannel,
                      policy: RetryPolicy | None = None) -> RetryingUploader:
        """A retrying uploader wired to this router's ingest path (see
        :meth:`repro.core.server.CloudServer.make_uploader`)."""
        return self._ingest.make_uploader(self.ingest_bundle, channel, policy)

    def evict_older_than(self, cutoff_t: float) -> int:
        """Enforce a retention window fleet-wide; returns the count.

        Content bounds are left as-is: eviction only removes records,
        so the stale (wider) box stays a conservative prune.
        """
        self._check_fleet_up()
        evicted = 0
        for sid in range(self.n_shards):
            with self._locks[sid]:
                evicted += self.shards[sid].evict_older_than(cutoff_t)
                self._sync_shard_gauges(sid)
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
        :func:`~repro.core.retrieval._batch_execute` pass."""
        t0 = self._clock()
        down = self.down_shards
        cover = self.camera if self._strict_cover else None
        parts: list[Part] = []
        hits: list[int] = []
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
                    if ids.size:
                        parts.append((view, None if len(queries) == 1
                                      else np.full(ids.size, qi), ids))
                self._pruned.inc(self.n_shards - len(targets))
                self._fanout.observe(visited)
                hits.append(tally[0])
        return _batch_execute(parts, queries, hits, self.camera,
                              self._strict_cover, self._ranker, self._clock,
                              t0, self.obs.tracer)

    def query(self, query: Query) -> QueryResult:
        """Answer one ranked query (cache-aware); see :meth:`query_many`."""
        return self.query_many([query])[0]

    def query_many(self, queries: list[Query]) -> list[QueryResult]:
        """Answer a batch; hits come from the epoch-vector-tagged cache,
        and every miss is answered in one funnel pass (:meth:`_answer`).

        The epoch vector is read before the descent and again after
        (:func:`~repro.core.cache.read_through`): results are always
        *served*, but only cached when the two reads agree -- a batch
        that raced an ingest cannot poison the cache with a torn
        snapshot of the fleet.
        """
        batch = list(queries)
        with self.obs.tracer.span("shard.query_many", batch=len(batch)):
            self.stats._queries.inc(len(batch))
            return read_through(
                self._cache, [query_cache_key(q) for q in batch],
                self.epoch_vector,
                lambda missed: self._answer([batch[i] for i in missed]),
                self.stats._cache_hits, self.stats._cache_misses)

    def query_video(self, video_query: VideoQuery) -> VideoQueryResult:
        """Answer one video retrieval request over the fleet (cache-aware).

        The harvest batch rides :meth:`query_many`'s one funnel pass,
        whose rankings are bit-identical to a single server holding
        every record -- so the video top-k is
        too.  Caching follows the same epoch-vector discipline: a
        result that raced an ingest is served but never cached.
        """
        return serve_video_query(
            video_query, self.query_many, self.camera,
            cache=self._video_cache, epoch=self.epoch_vector,
            stats=self.video_stats, clock=self._clock,
            tracer=self.obs.tracer)

    def close(self) -> None:
        """Release fleet-held resources (idempotent).

        There is currently nothing to release, so no shard lock is
        taken; the call stays so that owners can shut a fleet down
        without knowing what it holds.
        """
