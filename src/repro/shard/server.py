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
* **answers a call's queries in one funnel pass over one published
  fleet state**: the partitioner names the shards whose cells could
  intersect each query's ``(p, r, [ts, te])`` box, a per-shard content
  bounding box prunes further, each surviving shard is descended, and
  the hits of every shard and query are projected, filtered, scored and
  sorted once, into rankings **bit-identical** to a single server
  holding every record (docs/SHARDING.md has the argument);
* **caches under the publication's sequence number**, which every
  write that changes the fleet advances, so a hit always equals the
  cold recomputation.

The fleet commits its own writes (``docs/PROTOCOL.md`` has the
delivery-semantics table): a commit group is admitted, each payload's
content digest reserved, decoded or quarantined, the accepted payloads
appended to the WAL and fsynced once, landed, and acknowledged.

Thread safety: every write -- a commit group's append and landing, an
eviction, a kill, an install -- runs under the log-order lock, so the
log's entry order is the order the fleet saw, and ends by rebinding one
immutable :class:`Publication`.  A read takes the publication once and
touches no live index, so it never waits for a write's fsync and never
sees part of one.  The digest lock guards the dedup and owner maps, and
the result caches lock themselves.  Metric increments are already
thread-safe per family.
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.camera import CameraModel
from repro.core.cache import QueryResultCache, query_cache_key, read_through
from repro.core.flatsnap import pack_snapshot
from repro.core.fov import RecordColumns, RepresentativeFoV
from repro.core.index import (Bounds, ContentMark, FoVIndex, IndexState,
                              PackedFoVIndex, _checked_geometry,
                              query_box_floats)
from repro.core.ingest import (AdmissionQueue, IngestOutcome, IngestStatus,
                               ServerStats)
from repro.core.query import Query, QueryResult
from repro.core.quarantine import QuarantineStore
from repro.core.ranking import DistanceRanker
from repro.core.retrieval import Part, _batch_execute
from repro.core.wal import ENTRY_OVERHEAD, EVICT_ENTRY_SIZE, Eviction, WriteAheadLog
from repro.core.wal import replay as wal_replay
from repro.geo.coords import GeoPoint
from repro.net.channel import FaultyChannel, RetryPolicy, RetryingUploader
from repro.net.clock import default_timer
from repro.net.protocol import BundleColumns, decode_bundle_columns
from repro.obs.runtime import Observability
from repro.shard.partition import DEFAULT_CELL_M, GridPartitioner
from repro.video.retrieval import VideoQuery, VideoQueryResult, \
    VideoQueryStats, retrieve_videos

__all__ = ["Publication", "ShardCapture", "ShardedCloudServer",
           "ShardUnavailableError"]


class ShardCapture(NamedTuple):
    """One shard read by :meth:`ShardedCloudServer.capture_shard`."""

    epoch: int              #: the shard's epoch, stamped in ``packed``
    mark: ContentMark       #: the shard's content mark at capture
    packed: bytes           #: ``FOVPACK1`` buffer of the captured rows
    tail: bool              #: rows after ``since`` only, not every row


class ShardUnavailableError(RuntimeError):
    """A request needed a shard whose primary is down (fail-stop).

    Raised by every read of the dead shard's slot -- a query whose
    routing plus content bounds say it could contribute rows, a
    capture -- where an answer without it would be silently wrong, and
    by every write path while *any* shard is down (a record landing
    on a placeholder would be discarded at promotion).  Retryable:
    once :meth:`ShardedCloudServer.install_shard` promotes a replica,
    the same request succeeds.
    """

    def __init__(self, shard_id: int) -> None:
        super().__init__(f"shard {shard_id} is down")
        self.shard_id = shard_id


class Publication(NamedTuple):
    """One fleet state: what a read call answers from.  It refers to no
    server, so it forms no reference cycle with an index."""

    seq: int                                #: result-cache tag; monotonic
    states: tuple[IndexState | None, ...]   #: per slot; ``None``: down
    bounds: tuple[Bounds | None, ...]       #: per slot; outlive a kill

    def serving(self, sid: int) -> IndexState:
        """Slot ``sid``'s state; refused while the slot is down (an
        empty placeholder would answer silently wrong)."""
        state = self.states[sid]
        if state is None:
            raise ShardUnavailableError(sid)
        return state

    @property
    def down(self) -> frozenset[int]:
        """Slots without a serving primary."""
        return frozenset(sid for sid, state in enumerate(self.states)
                         if state is None)

    def could_match(self, sid: int, box: tuple[float, float, float, float,
                                               float, float]) -> bool:
        """Can slot ``sid``'s content box intersect the query box?

        ``box`` is :func:`~repro.core.index.query_box_floats`' six floats,
        ``(min_lng, min_lat, min_t, max_lng, max_lat, max_t)``.
        """
        b = self.bounds[sid]
        return (b is not None and b[0] <= box[3] and b[1] >= box[0]
                and b[2] <= box[4] and b[3] >= box[1]
                and b[4] <= box[5] and b[5] >= box[2])


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
        have no cache -- one cache layer, tagged by the publication's
        sequence number.
    obs : Observability, optional
        The router's instrument bundle.  Shards carry none: the router
        exports per-shard state as ``shard.epoch`` /
        ``shard.records_live`` gauges labelled by shard id.
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
                 wal: WriteAheadLog | None = None,
                 admission_capacity: int | None = None) -> None:
        if engine != "packed":
            raise ValueError(f"a sharded fleet serves from the packed "
                             f"engine, not {engine!r}")
        self.camera = camera
        self.partitioner = GridPartitioner(n_shards=n_shards, origin=origin,
                                           cell_m=cell_m, seed=seed)
        self.obs = obs if obs is not None else Observability.default()
        self._clock = default_timer
        self._strict_cover = strict_cover
        self._ranker = DistanceRanker()
        # The live indexes: changed, and read, only under _log_order.
        self.shards: list[FoVIndex] = [FoVIndex() for _ in range(n_shards)]
        # Held from a write's fence check to its publication.
        self._log_order = threading.Lock()
        # Rebound whole, never mutated, and only under _log_order.
        self._pub = Publication(0, tuple(s.frozen() for s in self.shards),
                                (None,) * n_shards)
        # Eviction entries of the configured log already applied, by
        # sequence number (under _log_order).
        self._applied_evictions: set[int] = set()
        self.wal = wal
        self.stats = ServerStats(registry=self.obs.registry)
        self.quarantine = QuarantineStore(journal=self.obs.journal,
                                          registry=self.obs.registry)
        self._admission = (AdmissionQueue(admission_capacity)
                           if admission_capacity is not None else None)
        # Content digests seen, those whose group has not landed yet,
        # and video id -> device id (all under _digest_lock).
        self._digest_lock = threading.Lock()
        self._seen: set[str] = set()
        self._pending: set[str] = set()
        self._owners: dict[str, str] = {}
        self._cache = (
            QueryResultCache(cache_size, registry=self.obs.registry,
                             journal=self.obs.journal)
            if cache_size > 0 else None
        )
        # Video retrieval caches under the publication (like point
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
            "read calls refused while a needed shard was down")
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

    def _published(self) -> Publication:
        """The fleet state a read answers from, taken once per call.

        Lock-free by design: the publication is immutable and rebound
        whole under the log-order lock, so one load is never torn and
        never waits for a write's fsync.
        """
        return self._pub  # fovlint: disable=RF009

    @property
    def indexed_count(self) -> int:
        """Total live records across the published fleet."""
        return sum(state.count for state in self._published().states
                   if state is not None)

    def epoch_vector(self) -> tuple[int, ...]:
        """Per-shard index epochs of the published fleet (0 while a
        slot is down)."""
        return tuple([0 if state is None else state.epoch
                      for state in self._published().states])

    def records(self) -> list[RepresentativeFoV]:
        """Every indexed record, shard by shard (audits, snapshots); the
        linear baseline, which keeps no frozen rows, is read live under
        the log-order lock."""
        out: list[RepresentativeFoV] = []
        pub = self._published()
        for sid in range(self.n_shards):
            state = pub.serving(sid)
            if state.rows is not None:
                out.extend(state.columns())
                continue
            with self._log_order:
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
        return self._published().down

    def _refuse_writes_while_down(self) -> None:
        """The write fence, to a caller holding the log-order lock:
        every write is refused while any primary is down (a record
        landing on a placeholder would be discarded at promotion), and
        is checked here once, before anything is logged."""
        down = self._pub.down
        if down:
            raise ShardUnavailableError(min(down))

    def _publish(self, cause: str, sids: list[int], down: bool = False
                 ) -> None:
        """End a write that changed slots ``sids``, to a caller holding
        the log-order lock: rebind the publication, in one assignment,
        with each slot's frozen state -- ``None`` when ``down`` -- and
        its content bounds (the index's own; a down slot keeps its
        last).  Then refresh the slots' gauges, journaling an
        ``index.epoch_bump`` for each whose epoch moved (``cause`` is
        ``ingest``, ``evict``, ``kill`` or ``install``); the fleet's
        ``index.epoch`` is the sum of the epoch vector."""
        pub = self._pub
        states, bounds = list(pub.states), list(pub.bounds)
        for sid in sids:
            states[sid] = None if down else self.shards[sid].frozen()
            if not down:
                bounds[sid] = self.shards[sid].bounds()
        self._pub = Publication(pub.seq + 1, tuple(states), tuple(bounds))
        for sid in sids:
            state = states[sid]
            epoch, live = (0, 0) if state is None else (state.epoch,
                                                        state.count)
            gauge = self._epoch_gauge.labels(shard=str(sid))
            if epoch != gauge.value:
                gauge.set(epoch)
                self.obs.journal.emit("index.epoch_bump", cause=cause,
                                      shard=sid, epoch=epoch)
            self._live_gauge.labels(shard=str(sid)).set(live)
        self.stats._epoch.set(sum(self.epoch_vector()))
        self.stats._live.set(self.indexed_count)

    def shard_mark(self, sid: int) -> ContentMark:
        """Shard ``sid``'s published
        :class:`~repro.core.index.ContentMark`."""
        self._check_sid(sid)
        mark = self._published().serving(sid).mark
        if mark is None:
            raise TypeError("mark requires the rtree backend")
        return mark

    def capture_shard(self, sid: int,
                      since: ContentMark | None = None) -> ShardCapture:
        """Shard ``sid``'s records as one ``FOVPACK1`` buffer.

        With ``since`` -- a mark an earlier capture returned -- the
        buffer holds only the rows appended after it (``tail=True``)
        when the shard's token still matches, and every row otherwise.
        The mark and the column slices are one published state's
        (:meth:`~repro.core.index.IndexState.columns`), and frozen.  No
        search structure is built, and the shard's serving view is left
        as it was.
        """
        self._check_sid(sid)
        state = self._published().serving(sid)
        columns = None if since is None else state.columns(since)
        tail = columns is not None
        if columns is None:
            columns = state.columns()
        assert state.mark is not None       # columns() refused linear
        return ShardCapture(columns.epoch, state.mark,
                            pack_snapshot(columns), tail)

    def capture_fleet(self) -> tuple[list[ShardCapture], frozenset[str]]:
        """Every shard's full capture, and the digests of the bundles
        whose records those captures hold, read as one state.

        Taken under the log-order lock, so no commit group or eviction
        lands in between, and a bundle still decoding (its digest
        reserved, its records not landed) is left out: a redelivery of
        it must index it.  Raises :class:`ShardUnavailableError` while
        any primary is down.
        """
        with self._log_order:
            captures = [self.capture_shard(sid)
                        for sid in range(self.n_shards)]
            with self._digest_lock:
                return captures, frozenset(self._seen - self._pending)

    def kill_shard(self, sid: int) -> None:
        """Simulate losing shard ``sid``'s primary mid-run.

        The slot is replaced by an empty index and published down, so
        the dead primary's data is really gone from the serving path:
        queries whose routing plus content bounds need the shard raise
        :class:`ShardUnavailableError`, and every write (ingest,
        eviction, WAL replay) is refused fleet-wide until
        :meth:`install_shard` restores the slot.  The dead primary is
        dropped; only a read that took the publication before the kill
        still holds its state, and answers from it.

        The slot goes down between writes, never between a write's
        fleet check and its index change, so a WAL holds no write the
        fleet refused part-way.
        """
        self._check_sid(sid)
        with self._log_order:
            self.shards[sid] = FoVIndex()
            self._publish("kill", [sid], down=True)

    def install_shard(self, sid: int, index: FoVIndex) -> None:
        """Promote ``index`` into slot ``sid`` and resume serving it.

        Refused with ``ValueError``, before anything changes, unless the
        slot is down: a serving primary holds rows its standby may lack.

        The slot's content bounds become ``index``'s own, which cover
        every row it holds, so they still prune safely.
        """
        self._check_sid(sid)
        with self._log_order:
            if self._pub.states[sid] is not None:
                raise ValueError(f"shard {sid} is serving, not down")
            self._place(sid, index)

    def _place(self, sid: int, index: FoVIndex) -> None:
        """Fill slot ``sid`` with ``index`` and publish it serving: the
        slot, its content bounds (the index's own) and its gauges."""
        self.shards[sid] = index
        self._publish("install", [sid])

    # -- ingest -----------------------------------------------------------

    def _land(self, columns: RecordColumns) -> int:
        """Check one run of columns, split it across the fleet, land
        each shard's slice as one ``insert_many`` (one epoch bump) and
        publish them together; returns the count (the caller passed the
        write fence, under the log-order lock).  The whole batch is
        checked before any shard indexes a record.  A slice is dropped
        from ``parts`` once taken, so the split batch and the rows it
        has become in the stores are never both held."""
        _checked_geometry(columns)
        parts: list[RecordColumns | None] = list(
            self.partitioner.split(columns))
        n, landed = 0, list[int]()
        for sid, part in enumerate(parts):
            parts[sid] = None
            if part is None or not len(part):
                continue
            n += self.shards[sid].insert_many(part)
            landed.append(sid)
            self._route.labels(shard=str(sid)).inc(len(part))
        if landed:
            self._publish("ingest", landed)
        return n

    def ingest(self, fovs: RecordColumns | Sequence[RepresentativeFoV]
               ) -> int:
        """Directly index already-decoded records (dataset loading):
        record objects, or columns such as a loaded snapshot.

        The whole batch is checked before any shard indexes a record.
        Like every write, it passes the write fence under the log-order
        lock, so it is refused while a primary is down and a kill waits
        for it.
        """
        columns = RecordColumns.of(fovs)
        with self._log_order:
            self._refuse_writes_while_down()
            n = self._land(columns)
        self.stats._records_indexed.inc(n)
        return n

    def register_owner(self, video_id: str, device_id: str) -> None:
        """Name the provider device holding ``video_id``'s footage."""
        with self._digest_lock:
            self._owners[video_id] = device_id

    @property
    def seen_digests(self) -> frozenset[str]:
        """Content digests of every bundle indexed (or in flight) so far."""
        with self._digest_lock:
            return frozenset(self._seen)

    def ingest_bundle(self, payload: bytes,
                      device_id: str | None = None) -> IngestOutcome:
        """Ingest one delivered bundle; never raises on bad payloads.

        The at-least-once ack path, a commit group of one: when
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
            return self._commit([payload], [device_id])[0]

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
            return self._commit(payloads, device_ids)

    def _commit(self, payloads: Sequence[bytes],
                device_ids: Sequence[str | None] | None, *,
                replaying: bool = False) -> list[IngestOutcome]:
        """Ingest one commit group: admit -> reserve digest -> decode or
        quarantine -> WAL append and one fsync -> land -> ack.

        Outcomes are positional, and (with index content, dedup state,
        owners, quarantine) identical to committing each payload alone,
        in order.  ``replaying`` marks WAL recovery: no back-pressure,
        nothing re-appended to the log.
        """
        if device_ids is None:
            device_ids = [None] * len(payloads)
        if len(device_ids) != len(payloads):
            raise ValueError("device_ids must match payloads one to one")
        admission = None if replaying else self._admission
        admitted = (len(payloads) if admission is None
                    else admission.try_admit(len(payloads)))
        try:
            outcomes = self._commit_admitted(
                payloads[:admitted], device_ids[:admitted], replaying)
        finally:
            if admission is not None:
                admission.release(admitted)
        for payload in payloads[admitted:]:
            digest = hashlib.sha256(payload).hexdigest()
            self.stats._shed.inc()
            self.obs.journal.emit("ingest.shed", digest=digest)
            outcomes.append(IngestOutcome(
                status=IngestStatus.SHED, records_indexed=0, digest=digest,
                reason="admission queue full"))
        return outcomes

    def _commit_admitted(self, payloads: Sequence[bytes],
                         device_ids: Sequence[str | None],
                         replaying: bool) -> list[IngestOutcome]:
        """The admitted part of a group.  A payload's digest is
        *reserved* before decoding, so a byte-identical redelivery --
        earlier, concurrent, or later in the same group -- acks
        ``DUPLICATE`` without a decode.  A ``REJECTED`` payload gives
        its reservation back (redelivering it rejects again), and so
        does every member of a group whose WAL write or landing raised:
        nothing was indexed, so the retry must not be acked as a
        duplicate.  A reserved digest stays pending until its group lands,
        in the same log-order section, so :meth:`capture_fleet` names
        exactly the bundles whose records the fleet holds."""
        stats, journal = self.stats, self.obs.journal
        outcomes: list[IngestOutcome] = []
        group: list[tuple[str, str | None, bytes, BundleColumns]] = []
        reserved: list[str] = []
        try:
            for payload, dev in zip(payloads, device_ids):
                digest = hashlib.sha256(payload).hexdigest()
                with self._digest_lock:
                    duplicate = digest in self._seen
                    if not duplicate:
                        self._seen.add(digest)
                        self._pending.add(digest)
                if duplicate:
                    stats._duplicated.inc()
                    journal.emit("ingest.duplicate", digest=digest)
                    outcomes.append(IngestOutcome(
                        status=IngestStatus.DUPLICATE, records_indexed=0,
                        digest=digest))
                    continue
                reserved.append(digest)
                try:
                    columns = decode_bundle_columns(payload)
                except ValueError as exc:
                    self._release([reserved.pop()])
                    stats._rejected.inc()
                    self.quarantine.add(payload, str(exc))
                    journal.emit("ingest.rejected", digest=digest,
                                 reason=str(exc))
                    outcomes.append(IngestOutcome(
                        status=IngestStatus.REJECTED, records_indexed=0,
                        digest=digest, reason=str(exc)))
                    continue
                group.append((digest, dev, payload, columns))
                outcomes.append(IngestOutcome(
                    status=IngestStatus.ACCEPTED,
                    records_indexed=len(columns), digest=digest,
                    video_id=columns.video_id))
            if not group:
                return outcomes
            wal = None if replaying else self.wal
            with self._log_order:
                self._refuse_writes_while_down()
                if wal is not None:
                    for _, _, payload, _ in group:
                        wal.append(payload)
                        stats._wal_appends.inc()
                        stats._wal_bytes.inc(len(payload) + ENTRY_OVERHEAD)
                    wal.commit()
                    stats._wal_syncs.inc()
                # Owners before the landing publishes, so a read that
                # returns a video can fetch its segments.
                with self._digest_lock:
                    self._pending.difference_update(reserved)
                    self._owners.update((c.video_id, dev)
                                        for _, dev, _, c in group
                                        if dev is not None)
                indexed = self._land(
                    RecordColumns.concat([c for *_, c in group]))
        except BaseException:
            self._release(reserved)
            raise
        stats._records_indexed.inc(indexed)
        for digest, _, payload, columns in group:
            stats._accepted.inc()
            stats._bytes_in.inc(len(payload))
            if replaying:
                stats._wal_replayed.inc()
            journal.emit("ingest.accepted", digest=digest,
                         video_id=columns.video_id, records=len(columns))
        return outcomes

    def _release(self, digests: list[str]) -> None:
        """Give back the reservations of bundles that did not land."""
        with self._digest_lock:
            self._seen.difference_update(digests)
            self._pending.difference_update(digests)

    def replay_wal(self, path: str | None = None) -> int:
        """Recover bundles from a write-ahead log after a crash.

        Re-offers every committed payload through the normal ingest
        pipeline *without* re-appending to the WAL -- each run of
        bundle payloads as one commit group -- and re-applies every
        logged eviction at its place in the log; bundles that made it
        into the fleet before the crash deduplicate as ``DUPLICATE``,
        the rest are indexed now.  Replaying this server's own log into
        it again changes nothing: the evictions it already applied are
        skipped by sequence number, so none drops records that landed
        after it.  Returns how many bundles were recovered (newly
        indexed).  Back-pressure does not apply to recovery.
        """
        with self.obs.tracer.span("server.ingest_batch"):
            if path is None:
                if self.wal is None:
                    raise ValueError("no WAL configured and no path given")
                path = self.wal.path
            own = (self.wal is not None
                   and os.path.samefile(path, self.wal.path))
            offered = recovered = 0
            run: list[bytes] = []
            for entry in [*wal_replay(path), None]:
                if isinstance(entry, bytes):
                    run.append(entry)
                    continue
                if run:
                    outcomes = self._commit(run, None, replaying=True)
                    offered += len(run)
                    recovered += sum(1 for o in outcomes
                                     if o.status is IngestStatus.ACCEPTED)
                    run = []
                if entry is not None:
                    self._replay_eviction(entry, own)
            self.obs.journal.emit("ingest.wal_replay", offered=offered,
                                  recovered=recovered)
            return recovered

    def _replay_eviction(self, entry: Eviction, own: bool) -> None:
        with self._log_order:
            if own and entry.seq in self._applied_evictions:
                return
            self._refuse_writes_while_down()
            self._evict(entry.cutoff_t)
            if own:
                self._applied_evictions.add(entry.seq)

    def make_uploader(self, channel: FaultyChannel,
                      policy: RetryPolicy | None = None) -> RetryingUploader:
        """A retrying uploader wired to this server's ingest path.

        Retransmissions are counted into ``stats.bundles_retried`` so
        the operator sees the at-least-once traffic the channel cost.
        """
        return RetryingUploader(channel, self.ingest_bundle, policy=policy,
                                on_retry=self.stats._retried.inc,
                                registry=self.stats.registry,
                                journal=self.obs.journal)

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
        wal = self.wal
        with self._log_order:
            self._refuse_writes_while_down()
            if wal is None:
                return self._evict(cutoff_t)
            seq = wal.append_eviction(cutoff_t)
            self.stats._wal_bytes.inc(EVICT_ENTRY_SIZE)
            wal.commit()
            self.stats._wal_syncs.inc()
            evicted = self._evict(cutoff_t)
            self._applied_evictions.add(seq)
            return evicted

    def _evict(self, cutoff_t: float) -> int:
        evicted, changed = 0, list[int]()
        for sid in range(self.n_shards):
            n = self.shards[sid].evict_older_than(cutoff_t)
            if n:
                evicted += n
                changed.append(sid)
        if changed:
            self._publish("evict", changed)
        self.stats._evicted.inc(evicted)
        return evicted

    # -- query ------------------------------------------------------------

    def _answer(self, pub: Publication,
                queries: list[Query]) -> list[QueryResult]:
        """Descend each query's target shards in ``pub`` (the targets
        come sorted), then rank every visit's hits in one
        :func:`~repro.core.retrieval._batch_execute` pass, counted as
        one pass.

        A single query hands on one funnel part per visit; a batch one
        per shard, its visits' ids concatenated in query order, in
        shard order."""
        t0 = self._clock()
        cover = self.camera if self._strict_cover else None
        parts: list[Part] = []
        # shard -> (its view, query ids, the visits' ids)
        grouped: dict[int, tuple[PackedFoVIndex, list[int],
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
                    if not pub.could_match(sid, box):
                        self._pruned.inc()
                        continue
                    state = pub.serving(sid)
                    view = state.index.packed_view(state)
                    ids = view.range_search_ids(query, cover, tally)
                    visited += 1
                    if not ids.size:
                        continue
                    if len(queries) == 1:
                        parts.append((view, None, ids))
                    else:
                        group = grouped.setdefault(sid, (view, [], []))
                        group[1].append(qi)
                        group[2].append(ids)
                self._pruned.inc(self.n_shards - len(targets))
                self._fanout.observe(visited)
                hits.append(tally[0])
                read += tally[1]
        for sid in sorted(grouped):
            view, qis, visits = grouped[sid]
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

    def _read_points(self, queries: list[Query],
                     pub: Publication | None = None) -> list[QueryResult]:
        """Point queries through the result cache; every miss is
        answered in one :meth:`_answer` call.  The whole call answers
        from one publication -- ``pub``, or the current one -- and
        caches under its sequence number, so a write landing mid-call is
        not seen at all.  A refused call counts one drop."""
        taken = self._published() if pub is None else pub
        try:
            return read_through(
                self._cache, [query_cache_key(q) for q in queries], taken.seq,
                lambda missed: self._answer(taken, [queries[i]
                                                    for i in missed]),
                self.stats._cache_hits, self.stats._cache_misses)
        except ShardUnavailableError:
            self._dropped.inc()
            raise

    def query(self, query: Query) -> QueryResult:
        """Answer one ranked spatio-temporal query (cache-aware)."""
        with self.obs.tracer.span("server.query"):
            self.stats._queries.inc()
            return self._read_points([query])[0]

    def query_many(self, queries: list[Query]) -> list[QueryResult]:
        """Answer a batch: cached hits are merged in place, and every
        miss is answered in one funnel pass."""
        batch = list(queries)
        with self.obs.tracer.span("server.query_many", batch=len(batch)):
            self.stats._queries.inc(len(batch))
            return self._read_points(batch)

    def query_video(self, video_query: VideoQuery) -> VideoQueryResult:
        """Answer one video retrieval request over the fleet (cache-aware).

        The harvest batch rides :meth:`_read_points` (no inquirer
        query is counted), whose rankings are bit-identical to a single
        server holding every record -- so the video top-k is too.  The
        harvest answers from the publication the request took, and the
        result caches under it, keyed by the frozen :class:`VideoQuery`.
        The request is counted into ``video.*`` and traced as
        ``video.query``, around
        :func:`~repro.video.retrieval.retrieve_videos`' stage spans.
        """
        stats = self.video_stats
        pub = self._published()

        def retrieve(_missed: list[int]) -> list[VideoQueryResult]:
            result = retrieve_videos(
                video_query, lambda batch: self._read_points(batch, pub),
                self.camera, clock=self._clock, tracer=self.obs.tracer)
            stats._segments_harvested.inc(result.segments_harvested)
            stats._videos_ranked.inc(result.videos_considered)
            return [result]

        with self.obs.tracer.span("video.query",
                                  segments=len(video_query.segments)):
            stats._queries.inc()
            result: VideoQueryResult = read_through(
                self._video_cache, [video_query], pub.seq,
                retrieve, stats._cache_hits, stats._cache_misses)[0]
            return result

    def close(self) -> None:
        """Release fleet-held resources (idempotent).

        There is currently nothing to release: a read holds no lock and
        the publication is plain data.  The call stays so that owners
        can shut a fleet down without knowing what it holds.
        """
