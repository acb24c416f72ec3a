"""Geo-sharded serving tier: one ``CloudServer`` per spatial shard.

:class:`ShardedCloudServer` presents the single-server surface --
``ingest_bundle`` / ``ingest`` / ``query`` / ``query_many`` /
``evict_older_than`` -- over a fleet of per-shard
:class:`~repro.core.server.CloudServer` instances, each owning its own
``FoVIndex`` (and packed view).  The router:

* **routes ingest** by representative-FoV grid cell
  (:class:`~repro.shard.partition.GridPartitioner`), deduplicating
  bundle redeliveries fleet-wide by content digest before any shard is
  touched;
* **answers queries by pruned scatter-gather**: the partitioner names
  the shards whose cells could intersect the query's ``(p, r, [ts,
  te])`` box, a per-shard content bounding box prunes further, and the
  surviving shards' canonical rankings are k-way merged into a result
  **bit-identical** to a single server holding every record
  (docs/SHARDING.md has the argument);
* **caches under the epoch vector**: the router-level result cache tags
  entries with the tuple of per-shard index epochs, re-read after the
  scatter -- a result computed while any shard mutated is served but
  never cached, so a hit always equals the cold recomputation.

Thread safety: each shard has its own lock serialising index access
(a bundle's records land in a shard atomically -- ``insert_many`` is
one epoch bump), the digest/owner maps sit behind an ingest lock, and
the (not internally thread-safe) result cache behind a cache lock.
Metric increments are already thread-safe per family.
"""

from __future__ import annotations

import hashlib
import heapq
import threading
from itertools import islice
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.camera import CameraModel
from repro.core.cache import QueryResultCache, query_cache_key
from repro.core.flatsnap import pack_snapshot
from repro.core.fov import RepresentativeFoV
from repro.core.index import Bounds, query_box
from repro.core.ingest import AdmissionQueue
from repro.core.query import Query, QueryResult, RankedFoV
from repro.core.quarantine import QuarantineStore
from repro.core.server import CloudServer, IngestOutcome, IngestStatus, ServerStats
from repro.core.wal import ENTRY_OVERHEAD, WriteAheadLog
from repro.core.wal import replay as wal_replay
from repro.geo.coords import GeoPoint
from repro.net.channel import FaultyChannel, RetryPolicy, RetryingUploader
from repro.net.clock import default_timer
from repro.net.protocol import BundleColumns, decode_bundle, \
    decode_bundle_columns
from repro.obs.runtime import Observability
from repro.shard.partition import DEFAULT_CELL_M, GridPartitioner
from repro.spatial.rtree import RTreeConfig
from repro.video.retrieval import VideoQuery, VideoQueryResult, \
    VideoQueryStats, retrieve_videos

__all__ = ["ShardedCloudServer", "ShardUnavailableError"]


class ShardUnavailableError(RuntimeError):
    """A request needed a shard whose primary is down (fail-stop).

    Raised by the query path when routing plus content bounds say the
    dead shard could contribute rows (a merged answer without it would
    be silently wrong), and by every write path while *any* shard is
    down (a record landing on a placeholder would be discarded at
    promotion).  Retryable: once :meth:`ShardedCloudServer.install_shard`
    promotes a replica, the same request succeeds.
    """

    def __init__(self, shard_id: int) -> None:
        super().__init__(f"shard {shard_id} is down")
        self.shard_id = shard_id


def _rank_key(row: RankedFoV) -> tuple[float, tuple[str, int]]:
    """The canonical total ranking order (repro.core.retrieval)."""
    return (-row.score, row.fov.key())


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
    strict_cover, engine, rtree_config :
        Forwarded to each per-shard server/engine.
    cache_size : int
        Router-level result cache capacity (``0`` disables).  Shard
        servers run cache-less -- one cache layer, tagged by the epoch
        vector.
    quarantine_capacity : int
        Dead-letter capacity for payloads rejected at the router.
    obs : Observability, optional
        The *router's* instrument bundle.  Each shard server gets a
        private bundle so its unlabelled ``index.*`` gauges cannot
        clobber a sibling's; the router re-exports per-shard state as
        ``shard.epoch`` / ``shard.records_live`` gauges labelled by
        shard id.
    clock : callable, optional
        Monotonic timer for merged ``elapsed_s`` accounting
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
                 rtree_config: RTreeConfig | None = None,
                 cache_size: int = 1024,
                 quarantine_capacity: int = 256,
                 obs: Observability | None = None,
                 clock: Callable[[], float] | None = None,
                 wal: WriteAheadLog | None = None,
                 admission_capacity: int | None = None) -> None:
        self.camera = camera
        self.partitioner = GridPartitioner(n_shards=n_shards, origin=origin,
                                           cell_m=cell_m, seed=seed)
        self.obs = obs if obs is not None else Observability.default()
        self._clock = clock if clock is not None else default_timer
        self._strict_cover = strict_cover
        self._engine = engine
        self._rtree_config = rtree_config
        self.shards: list[CloudServer] = [
            self.spawn_shard_server() for _ in range(n_shards)
        ]
        self._locks = [threading.RLock() for _ in range(n_shards)]
        # Each shard index's content box as of its last ingest; the
        # router's copy outlives the primary (kill_shard).
        self._bounds: list[Bounds | None] = [None] * n_shards
        self._ingest_lock = threading.Lock()
        self._down: frozenset[int] = frozenset()
        self._cache_lock = threading.Lock()
        self._seen_digests: set[str] = set()
        self._owners: dict[str, str] = {}
        self.wal = wal
        self._admission = (AdmissionQueue(admission_capacity)
                           if admission_capacity is not None else None)
        self.stats = ServerStats(registry=self.obs.registry)
        self.quarantine = QuarantineStore(capacity=quarantine_capacity,
                                          journal=self.obs.journal,
                                          registry=self.obs.registry)
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
        return sum(len(s.index) for s in self.shards)  # fovlint: disable=RF009

    def epoch_vector(self) -> tuple[int, ...]:
        """Per-shard index epochs -- the fleet's cache-invalidation tag.

        Deliberately lock-free: callers read the vector before and
        after a scatter and only trust results when the two reads
        agree, so a torn read is detected, never cached.
        """
        return tuple(s.index.epoch for s in self.shards)  # fovlint: disable=RF009

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
        with self._ingest_lock:
            down = self._down
        if down:
            raise ShardUnavailableError(min(down))

    @property
    def down_shards(self) -> frozenset[int]:
        """Shard ids currently without a serving primary."""
        with self._ingest_lock:
            return self._down

    def spawn_shard_server(self) -> CloudServer:
        """A fresh, empty per-shard server with this fleet's parameters.

        Replica promotion (:mod:`repro.shard.replica`) rebuilds a
        failed shard into one of these before :meth:`install_shard`
        swaps it into the slot.
        """
        return CloudServer(self.camera, rtree_config=self._rtree_config,
                           strict_cover=self._strict_cover,
                           engine=self._engine, cache_size=0,
                           obs=Observability.default())

    def capture_shard(self, sid: int) -> tuple[int, bytes]:
        """``(epoch, FOVPACK1 buffer)`` of shard ``sid``'s frozen view.

        The same flat packed segment the republish pool ships to its
        workers (:mod:`repro.core.flatsnap`), so a warm standby holds
        exactly what a zero-copy reader would attach.  The view is
        snapped under the shard lock; serialisation happens outside it
        (the view is immutable).
        """
        self._check_sid(sid)
        with self._locks[sid]:
            view = self.shards[sid].index.packed_view()
        return view.epoch, pack_snapshot(view)

    def kill_shard(self, sid: int) -> CloudServer:
        """Simulate losing shard ``sid``'s primary mid-run.

        The slot is replaced by an empty placeholder, so the dead
        primary's data is really gone from the serving path: queries
        whose routing plus content bounds need the shard raise
        :class:`ShardUnavailableError`, and every write (ingest,
        eviction, WAL replay) is refused fleet-wide until
        :meth:`install_shard` restores the slot.  Router-level caches
        are cleared -- the placeholder restarts the slot's epoch
        counter, so existing epoch-vector tags no longer identify the
        content they were computed from.  Returns the dead primary
        (tests audit it; a real failure would have lost it).
        """
        self._check_sid(sid)
        with self._ingest_lock:
            self._down = self._down | {sid}
        with self._locks[sid]:
            dead = self.shards[sid]
            self.shards[sid] = self.spawn_shard_server()
            self._sync_shard_gauges(sid)
        self._clear_result_caches()
        return dead

    def install_shard(self, sid: int, shard: CloudServer) -> None:
        """Promote ``shard`` into slot ``sid`` and resume serving it.

        Content bounds are kept as-is: a promoted replica restores the
        content the stale bounds conservatively described (nothing was
        allowed to land while the primary was absent).  Caches are
        cleared for the same epoch-counter reason as
        :meth:`kill_shard`.
        """
        self._check_sid(sid)
        with self._locks[sid]:
            self.shards[sid] = shard
            self._sync_shard_gauges(sid)
        with self._ingest_lock:
            self._down = self._down - {sid}
        self._clear_result_caches()

    def _clear_result_caches(self) -> None:
        with self._cache_lock:
            if self._cache is not None:
                self._cache.clear()
            if self._video_cache is not None:
                self._video_cache.clear()

    # -- ingest -----------------------------------------------------------

    def _sync_shard_gauges(self, sid: int) -> None:
        shard = self.shards[sid]
        self._epoch_gauge.labels(shard=str(sid)).set(shard.index.epoch)
        self._live_gauge.labels(shard=str(sid)).set(len(shard.index))
        self.stats._live.set(self.indexed_count)

    def _ingest_parts(self, parts: list[list[RepresentativeFoV]]) -> int:
        """Land a pre-split record set, shard by shard; returns the count.

        Each shard's slice lands atomically under that shard's lock
        (``insert_many`` -- one epoch bump, all-or-nothing within the
        shard); geometry was validated before this is called, so no
        shard can reject its slice after a sibling already indexed.
        """
        n = 0
        for sid, part in enumerate(parts):
            if not part:
                continue
            with self._locks[sid]:
                n += self.shards[sid].ingest(part)
                self._bounds[sid] = self.shards[sid].index.bounds()
                self._sync_shard_gauges(sid)
            self._route.labels(shard=str(sid)).inc(len(part))
        return n

    @staticmethod
    def _validate_geometry(fovs: Sequence[RepresentativeFoV]) -> None:
        """Reject the whole batch before any shard indexes a record.

        One vectorised finiteness pass over the batch's geometry
        matrix; the first offending record is named, matching the old
        per-record loop.
        """
        if not fovs:
            return
        geom = np.array([[f.lng, f.lat, f.t_start, f.t_end] for f in fovs],
                        dtype=float)
        finite = np.isfinite(geom).all(axis=1)
        if not bool(finite.all()):
            bad = fovs[int(np.argmin(finite))]
            raise ValueError(
                f"non-finite geometry in record {bad.key()!r}; "
                f"nothing from this batch was indexed"
            )

    def ingest(self, fovs: list[RepresentativeFoV]) -> int:
        """Directly index already-decoded records (dataset loading)."""
        self._check_fleet_up()
        self._validate_geometry(fovs)
        n = self._ingest_parts(self.partitioner.split(fovs))
        self.stats._records_indexed.inc(n)
        return n

    def ingest_bundle(self, payload: bytes,
                      device_id: str | None = None) -> IngestOutcome:
        """Ingest one delivered bundle; never raises on bad payloads.

        Same acknowledgement contract as the single server
        (:meth:`repro.core.server.CloudServer.ingest_bundle`), with
        fleet-wide exactly-once semantics: the content digest is
        *reserved* before decoding, so a concurrent byte-identical
        redelivery acks ``DUPLICATE`` instead of double-indexing; a
        rejected payload releases its reservation (redelivering a bad
        payload deterministically rejects again).
        """
        with self.obs.tracer.span("shard.ingest_bundle", bytes=len(payload)):
            if self._admission is not None and not self._admission.try_admit():
                return self._shed_outcome(payload)
            try:
                return self._ingest_one(payload, device_id)
            finally:
                if self._admission is not None:
                    self._admission.release()

    def _shed_outcome(self, payload: bytes) -> IngestOutcome:
        digest = hashlib.sha256(payload).hexdigest()
        self.stats._shed.inc()
        self.obs.journal.emit("ingest.shed", digest=digest)
        return IngestOutcome(status=IngestStatus.SHED,
                             records_indexed=0, digest=digest,
                             reason="admission queue full")

    def _wal_append(self, payloads: list[bytes]) -> None:
        """Buffered appends plus exactly one fsync for a commit group."""
        assert self.wal is not None
        for payload in payloads:
            self.wal.append(payload)
            self.stats._wal_appends.inc()
            self.stats._wal_bytes.inc(len(payload) + ENTRY_OVERHEAD)
        self.wal.commit()
        self.stats._wal_syncs.inc()

    def _ingest_one(self, payload: bytes,
                    device_id: str | None) -> IngestOutcome:
        self._check_fleet_up()
        digest = hashlib.sha256(payload).hexdigest()
        with self._ingest_lock:
            if digest in self._seen_digests:
                self.stats._duplicated.inc()
                self.obs.journal.emit("ingest.duplicate", digest=digest)
                return IngestOutcome(status=IngestStatus.DUPLICATE,
                                     records_indexed=0, digest=digest)
            self._seen_digests.add(digest)
        try:
            video_id, fovs = decode_bundle(payload)
            self._validate_geometry(fovs)
        except ValueError as exc:
            with self._ingest_lock:
                self._seen_digests.discard(digest)
            self.stats._rejected.inc()
            self.quarantine.add(payload, str(exc))
            self.obs.journal.emit("ingest.rejected", digest=digest,
                                  reason=str(exc))
            return IngestOutcome(status=IngestStatus.REJECTED,
                                 records_indexed=0, digest=digest,
                                 reason=str(exc))
        if self.wal is not None:
            self._wal_append([payload])
        n = self._ingest_parts(self.partitioner.split(fovs))
        if device_id is not None:
            with self._ingest_lock:
                self._owners[video_id] = device_id
        self.stats._accepted.inc()
        self.stats._records_indexed.inc(n)
        self.stats._bytes_in.inc(len(payload))
        self.obs.journal.emit("ingest.accepted", digest=digest,
                              video_id=video_id, records=n)
        return IngestOutcome(status=IngestStatus.ACCEPTED,
                             records_indexed=n, digest=digest,
                             video_id=video_id)

    def ingest_batch(self, payloads: list[bytes],
                     device_ids: list[str | None] | None = None,
                     ) -> list[IngestOutcome]:
        """Ingest a commit group across the fleet in one pass.

        Per-bundle outcomes match calling :meth:`ingest_bundle` on
        each payload in order; the amortisation differs: one WAL fsync
        for the group, and each shard receives its whole slice of the
        group's records as a single ``insert_many`` -- one epoch bump
        per *shard* per group instead of per bundle.  Under
        back-pressure the tail beyond the free capacity is ``SHED``.
        """
        return self._ingest_group(payloads, device_ids,
                                  durable=self.wal is not None,
                                  admit=True)

    def _ingest_group(self, payloads: list[bytes],
                      device_ids: list[str | None] | None,
                      *, durable: bool, admit: bool,
                      replaying: bool = False) -> list[IngestOutcome]:
        if device_ids is None:
            device_ids = [None] * len(payloads)
        if len(device_ids) != len(payloads):
            raise ValueError("device_ids must match payloads one to one")
        self._check_fleet_up()
        with self.obs.tracer.span("shard.ingest_batch", batch=len(payloads)):
            admitted = len(payloads)
            if admit and self._admission is not None:
                admitted = self._admission.try_admit(len(payloads))
            try:
                outcomes: list[IngestOutcome | None] = [None] * len(payloads)
                group: list[tuple[int, str, str | None, bytes,
                                  BundleColumns]] = []
                for pos, (payload, dev) in enumerate(
                        zip(payloads[:admitted], device_ids[:admitted])):
                    digest = hashlib.sha256(payload).hexdigest()
                    with self._ingest_lock:
                        if digest in self._seen_digests:
                            self.stats._duplicated.inc()
                            self.obs.journal.emit("ingest.duplicate",
                                                  digest=digest)
                            outcomes[pos] = IngestOutcome(
                                status=IngestStatus.DUPLICATE,
                                records_indexed=0, digest=digest)
                            continue
                        self._seen_digests.add(digest)
                    try:
                        # Wire decode already proves every coordinate
                        # finite and in range, so the separate
                        # geometry pass of the record path is not
                        # needed here.
                        columns = decode_bundle_columns(payload)
                    except ValueError as exc:
                        with self._ingest_lock:
                            self._seen_digests.discard(digest)
                        self.stats._rejected.inc()
                        self.quarantine.add(payload, str(exc))
                        self.obs.journal.emit("ingest.rejected",
                                              digest=digest, reason=str(exc))
                        outcomes[pos] = IngestOutcome(
                            status=IngestStatus.REJECTED,
                            records_indexed=0, digest=digest,
                            reason=str(exc))
                        continue
                    group.append((pos, digest, dev, payload, columns))
                if group:
                    if durable:
                        self._wal_append([p for _, _, _, p, _ in group])
                    merged: list[RepresentativeFoV] = []
                    for _, _, _, _, columns in group:
                        merged.extend(columns.records())
                    n = self._ingest_parts(self.partitioner.split(merged))
                    self.stats._records_indexed.inc(n)
                    for pos, digest, dev, payload, columns in group:
                        if dev is not None:
                            with self._ingest_lock:
                                self._owners[columns.video_id] = dev
                        self.stats._accepted.inc()
                        self.stats._bytes_in.inc(len(payload))
                        if replaying:
                            self.stats._wal_replayed.inc()
                        self.obs.journal.emit("ingest.accepted",
                                              digest=digest,
                                              video_id=columns.video_id,
                                              records=len(columns))
                        outcomes[pos] = IngestOutcome(
                            status=IngestStatus.ACCEPTED,
                            records_indexed=len(columns), digest=digest,
                            video_id=columns.video_id)
            finally:
                if admit and self._admission is not None and admitted:
                    self._admission.release(admitted)
            for pos in range(admitted, len(payloads)):
                outcomes[pos] = self._shed_outcome(payloads[pos])
            done = [o for o in outcomes if o is not None]
            assert len(done) == len(payloads)
            return done

    def replay_wal(self, path: "str | None" = None) -> int:
        """Recover bundles from a write-ahead log after a crash.

        Same contract as the single server's
        (:meth:`repro.core.server.CloudServer.replay_wal`): re-offers
        committed payloads without re-appending, deduplicates the ones
        that landed before the crash, and returns how many were newly
        indexed.
        """
        if path is None:
            if self.wal is None:
                raise ValueError("no WAL configured and no path given")
            path = self.wal.path
        payloads = wal_replay(path)
        outcomes = self._ingest_group(payloads, None, durable=False,
                                      admit=False, replaying=True)
        recovered = sum(1 for o in outcomes
                        if o.status is IngestStatus.ACCEPTED)
        self.obs.journal.emit("ingest.wal_replay", offered=len(payloads),
                              recovered=recovered)
        return recovered

    def make_uploader(self, channel: FaultyChannel,
                      policy: RetryPolicy | None = None) -> RetryingUploader:
        """A retrying uploader wired to this router's ingest path.

        Same contract as the single server's
        (:meth:`repro.core.server.CloudServer.make_uploader`):
        retransmissions count into ``stats.bundles_retried``.
        """
        def _on_retry() -> None:
            self.stats._retried.inc()

        return RetryingUploader(channel, self.ingest_bundle, policy=policy,
                                on_retry=_on_retry,
                                registry=self.obs.registry,
                                journal=self.obs.journal)

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

    def _could_match(self, sid: int, bmin: np.ndarray,
                     bmax: np.ndarray) -> bool:
        """Can shard ``sid``'s content box intersect the query box?"""
        b = self._bounds[sid]
        if b is None:
            return False
        return bool(b[0] <= bmax[0] and b[1] >= bmin[0]
                    and b[2] <= bmax[1] and b[3] >= bmin[1]
                    and b[4] <= bmax[2] and b[5] >= bmin[2])

    def _scatter_gather(self, query: Query) -> QueryResult:
        """Fan one query out to the surviving shards, merge canonically."""
        t0 = self._clock()
        targets = self.partitioner.shards_for_query(query)
        with self._ingest_lock:
            down = self._down
        bmin, bmax = query_box(query)
        parts: list[QueryResult] = []
        for sid in targets:
            with self._locks[sid]:
                if not self._could_match(sid, bmin, bmax):
                    self._pruned.inc()
                    continue
                if sid in down:
                    # The merged answer would silently miss this
                    # shard's rows; failing loudly lets the caller
                    # retry after a replica is promoted.
                    raise ShardUnavailableError(sid)
                parts.append(self.shards[sid].engine.execute(query))
        self._pruned.inc(self.n_shards - len(targets))
        self._fanout.observe(len(parts))
        merged: list[RankedFoV] = list(islice(
            heapq.merge(*(p.ranked for p in parts), key=_rank_key),
            query.top_n))
        return QueryResult(
            query=query,
            ranked=merged,
            candidates=sum(p.candidates for p in parts),
            after_filter=sum(p.after_filter for p in parts),
            elapsed_s=self._clock() - t0,
        )

    def query(self, query: Query) -> QueryResult:
        """Answer one ranked query by pruned scatter-gather (cache-aware)."""
        return self.query_many([query])[0]

    def query_many(self, queries: list[Query]) -> list[QueryResult]:
        """Answer a batch; hits merge from the epoch-vector-tagged cache.

        The epoch vector is read before the scatter and again after:
        results are always *served*, but only cached when the two reads
        agree -- a batch that raced an ingest cannot poison the cache
        with a torn snapshot of the fleet.
        """
        batch = list(queries)
        with self.obs.tracer.span("shard.query_many", batch=len(batch)):
            self.stats._queries.inc(len(batch))
            # The cache binding is fixed at construction (only cleared,
            # never rebound), so the None-check needs no lock.
            if self._cache is None:  # fovlint: disable=RF009
                return [self._scatter_gather(q) for q in batch]
            pre = self.epoch_vector()
            results: list[QueryResult | None] = [None] * len(batch)
            misses: list[tuple[int, Query]] = []
            with self._cache_lock:
                for i, q in enumerate(batch):
                    cached = self._cache.get(query_cache_key(q), pre)
                    if cached is not None:
                        self.stats._cache_hits.inc()
                        results[i] = cached
                    else:
                        self.stats._cache_misses.inc()
                        misses.append((i, q))
            for i, q in misses:
                results[i] = self._scatter_gather(q)
            if misses and self.epoch_vector() == pre:
                with self._cache_lock:
                    for i, q in misses:
                        self._cache.put(query_cache_key(q), pre, results[i])
            return [r for r in results if r is not None]

    def query_video(self, video_query: VideoQuery) -> VideoQueryResult:
        """Answer one video retrieval request over the fleet (cache-aware).

        The harvest batch rides :meth:`query_many`'s pruned
        scatter-gather, whose merged rankings are bit-identical to a
        single server holding every record -- so the video top-k is
        too.  Caching follows the router's epoch-vector discipline:
        the vector is read before the harvest and compared after, and
        a result that raced an ingest is served but never cached.
        """
        with self.obs.tracer.span("video.query",
                                  segments=len(video_query.segments)):
            self.video_stats._queries.inc()
            pre = self.epoch_vector()
            # Binding fixed at construction; see query_many.
            if self._video_cache is not None:  # fovlint: disable=RF009
                with self._cache_lock:
                    cached = self._video_cache.get(video_query, pre)
                if cached is not None:
                    self.video_stats._cache_hits.inc()
                    return cached
                self.video_stats._cache_misses.inc()
            result = retrieve_videos(video_query, self.query_many,
                                     self.camera, clock=self._clock,
                                     tracer=self.obs.tracer)
            if (self._video_cache is not None  # fovlint: disable=RF009
                    and self.epoch_vector() == pre):
                with self._cache_lock:
                    self._video_cache.put(video_query, pre, result)
            self.video_stats._segments_harvested.inc(result.segments_harvested)
            self.video_stats._videos_ranked.inc(len(result.ranked))
            return result

    def close(self) -> None:
        """Release per-shard engine resources (idempotent)."""
        for sid in range(self.n_shards):
            with self._locks[sid]:
                self.shards[sid].close()
