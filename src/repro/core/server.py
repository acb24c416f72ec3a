"""Cloud-server facade: ingest descriptor bundles, answer ranked queries.

The server half of Figure 1.  It decodes upload bundles (validating the
wire format), keeps one :class:`~repro.core.index.FoVIndex`, runs the
filter/rank retrieval, and -- when an inquirer picks a result -- asks
the owning client for exactly that segment, accounting the bytes moved.
The index picks the read path: a column store is served by the packed
:class:`~repro.core.retrieval.RetrievalEngine`; the linear-scan
baseline holds no columns to pack, so :func:`repro.core.oracle.answer`
answers it.

The ingest path assumes a hostile, at-least-once network
(``docs/PROTOCOL.md``): every bundle is validated end to end before a
single record is indexed (all-or-nothing), byte-identical redeliveries
are deduplicated by content digest into exactly-once indexing, and
rejected payloads land in a bounded
:class:`~repro.core.quarantine.QuarantineStore` with their rejection
reason instead of vanishing.

Commit groups, the optional write-ahead log and admission
back-pressure are :class:`~repro.core.ingest.IngestCoordinator`'s; this
facade supplies only where accepted records land (its index).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.cache import QueryResultCache, query_cache_key, read_through
from repro.core.camera import CameraModel
from repro.core.fov import RecordColumns, RepresentativeFoV
from repro.core.index import FoVIndex
from repro.core.ingest import IngestCoordinator, IngestOutcome, IngestStatus
from repro.core.oracle import answer
from repro.core.pipeline import ClientPipeline, StoredSegment
from repro.core.quarantine import QuarantineStore
from repro.core.query import Query, QueryResult
from repro.core.retrieval import RetrievalEngine
from repro.core.wal import WriteAheadLog
from repro.net.channel import FaultyChannel, RetryPolicy, RetryingUploader
from repro.net.traffic import TrafficModel, VideoProfile
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import Observability
from repro.video.retrieval import VideoQuery, VideoQueryResult, \
    VideoQueryStats, serve_video_query

__all__ = ["CloudServer", "IngestOutcome", "IngestStatus", "ServerStats"]


class ServerStats:
    """Read-through facade over the server's metric families.

    The counters live in a :class:`~repro.obs.metrics.MetricsRegistry`
    (so they show up in the ``repro-fov metrics`` exposition alongside
    everything else); each property here reads one instrument, so the
    evaluation harness and the tests read
    ``server.stats.bundles_received`` etc. as plain ints.

    ``records_indexed`` is cumulative over the server's lifetime;
    ``records_live`` is the current index population (eviction lowers
    it, but never rewrites history).
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        bundles = reg.counter(
            "ingest.bundles", "Delivered upload bundles by outcome",
            labelnames=("status",))
        self._accepted = bundles.labels(status="accepted")
        self._rejected = bundles.labels(status="rejected")
        self._duplicated = bundles.labels(status="duplicate")
        self._retried = reg.counter(
            "ingest.bundles_retried",
            "Bundle retransmissions the at-least-once transport cost")
        self._shed = reg.counter(
            "ingest.shed",
            "Bundles refused admission by back-pressure (retryable)")
        self._wal_appends = reg.counter(
            "ingest.wal_appends", "Bundle payloads appended to the WAL")
        self._wal_bytes = reg.counter(
            "ingest.wal_bytes", "Bytes written to the WAL (framing included)")
        self._wal_syncs = reg.counter(
            "ingest.wal_syncs",
            "WAL fsyncs (one per commit group or logged eviction)")
        self._wal_replayed = reg.counter(
            "ingest.wal_replayed",
            "Bundles recovered into the index by WAL replay")
        self._records_indexed = reg.counter(
            "ingest.records_indexed",
            "Representative FoVs indexed over the server's lifetime")
        self._bytes_in = reg.counter(
            "ingest.bytes", "Descriptor payload bytes accepted on ingest")
        self._live = reg.gauge(
            "index.records_live", "Current index population")
        self._epoch = reg.gauge(
            "index.epoch", "Index mutation epoch (bumps invalidate caches)")
        self._evicted = reg.counter(
            "index.records_evicted", "Records dropped by retention eviction")
        self._queries = reg.counter(
            "query.requests", "Ranked spatio-temporal queries answered")
        self._cache_hits = reg.counter(
            "query.cache_hits", "Queries answered from the result cache")
        self._cache_misses = reg.counter(
            "query.cache_misses", "Queries that had to run the engine")
        self._segments = reg.counter(
            "fetch.segments", "Video segments pulled from owning clients")
        self._segment_bytes = reg.counter(
            "fetch.segment_bytes", "Video-scale bytes moved by segment fetches")

    @property
    def bundles_received(self) -> int:
        """Bundles accepted and indexed."""
        return int(self._accepted.value)

    @property
    def bundles_rejected(self) -> int:
        """Bundles refused (malformed or corrupt) and quarantined."""
        return int(self._rejected.value)

    @property
    def bundles_duplicated(self) -> int:
        """Byte-identical redeliveries deduplicated on arrival."""
        return int(self._duplicated.value)

    @property
    def bundles_retried(self) -> int:
        """Retransmissions observed via the retrying uploader."""
        return int(self._retried.value)

    @property
    def bundles_shed(self) -> int:
        """Bundles refused admission by back-pressure (retryable)."""
        return int(self._shed.value)

    @property
    def wal_appends(self) -> int:
        """Bundle payloads appended to the write-ahead log."""
        return int(self._wal_appends.value)

    @property
    def wal_bytes(self) -> int:
        """Bytes written to the WAL, framing included."""
        return int(self._wal_bytes.value)

    @property
    def wal_syncs(self) -> int:
        """WAL fsyncs -- one per commit group (not per bundle) and one
        per logged eviction."""
        return int(self._wal_syncs.value)

    @property
    def wal_replayed(self) -> int:
        """Bundles recovered into the index by WAL replay."""
        return int(self._wal_replayed.value)

    @property
    def records_indexed(self) -> int:
        """Cumulative records indexed (never lowered by eviction)."""
        return int(self._records_indexed.value)

    @property
    def records_live(self) -> int:
        """Current index population."""
        return int(self._live.value)

    @property
    def records_evicted(self) -> int:
        """Records dropped by retention eviction."""
        return int(self._evicted.value)

    @property
    def descriptor_bytes_in(self) -> int:
        """Descriptor payload bytes accepted on ingest."""
        return int(self._bytes_in.value)

    @property
    def queries_served(self) -> int:
        """Ranked queries answered (cache hits included)."""
        return int(self._queries.value)

    @property
    def segments_fetched(self) -> int:
        """Video segments pulled from owning clients."""
        return int(self._segments.value)

    @property
    def segment_bytes_moved(self) -> float:
        """Video-scale bytes moved by segment fetches."""
        return self._segment_bytes.value

    @property
    def cache_hits(self) -> int:
        """Queries answered from the result cache."""
        return int(self._cache_hits.value)

    @property
    def cache_misses(self) -> int:
        """Queries that had to run the engine."""
        return int(self._cache_misses.value)


class CloudServer:
    """The retrieval service.

    Parameters
    ----------
    camera : CameraModel
        Camera constants shared with the provider fleet (used by the
        orientation filter).
    backend : {"rtree", "linear"}
        Index backend; ``"linear"`` swaps in the brute-force baseline,
        which the oracle (:func:`repro.core.oracle.answer`) answers.
    strict_cover : bool
        Orientation-filter mode (see :class:`RetrievalEngine`).
    video_profile : VideoProfile, optional
        Encoding profile used to account segment-fetch bytes.
    engine : {None, "packed", "dynamic"}
        Selects nothing: the index picks the read path.  Kept as a
        check for existing callers -- ``"packed"`` is accepted for a
        column store, ``"dynamic"`` for the linear baseline, anything
        else raises ``ValueError``.
    cache_size : int
        Capacity of the epoch-tagged LRU query-result cache; ``0``
        disables caching.  Entries are invalidated automatically
        whenever the index mutates (insert, delete, eviction) via the
        index epoch, so a hit always equals the cold recomputation.
    index : FoVIndex, optional
        Use an existing index (``FoVIndex.bulk`` over a loaded
        ``.fovpack``'s records, or one built with an ``rtree_config``)
        instead of building an empty one; ``backend`` is then ignored.
    quarantine_capacity : int
        How many rejected payloads the dead-letter store retains
        (older entries age out but stay counted).
    wal : WriteAheadLog, optional
        When given, every accepted payload is appended to this
        write-ahead log *before* it is indexed and fsynced once per
        commit group, and every retention cutoff before it is applied,
        making ingest durable and replayable (:meth:`replay_wal`).
        ``None`` (default) keeps the server memory-only.
    admission_capacity : int, optional
        Cap on in-flight bundles; beyond it ingest sheds with the
        retryable ``SHED`` outcome instead of buffering without bound.
        ``None`` (default) disables back-pressure.
    obs : Observability, optional
        Instrument bundle shared by every component of this server
        (stats registry, engine spans, cache counters, journal).  The
        default -- :meth:`Observability.default` -- keeps metrics and
        the event journal on (both clock-free) with tracing off; pass
        :meth:`Observability.tracing` to also collect span trees.
    """

    def __init__(self, camera: CameraModel, backend: str = "rtree",
                 strict_cover: bool = True,
                 video_profile: VideoProfile | None = None,
                 engine: str | None = None,
                 cache_size: int = 1024,
                 index: FoVIndex | None = None,
                 quarantine_capacity: int = 256,
                 obs: Observability | None = None,
                 wal: WriteAheadLog | None = None,
                 admission_capacity: int | None = None):
        self.camera = camera
        self.obs = obs if obs is not None else Observability.default()
        self.index = index if index is not None else FoVIndex(backend=backend)
        linear = self.index.backend == "linear"
        if engine not in (None, "dynamic" if linear else "packed"):
            raise ValueError(f"a {self.index.backend} index is not served "
                             f"by the {engine!r} engine")
        self._strict_cover = strict_cover
        self.engine = None if linear else RetrievalEngine(
            self.index, camera, strict_cover=strict_cover, obs=self.obs)
        self.traffic = TrafficModel(video_profile)
        self.stats = ServerStats(registry=self.obs.registry)
        self.stats._live.set(len(self.index))
        self.stats._epoch.set(self.index.epoch)
        self.quarantine = QuarantineStore(capacity=quarantine_capacity,
                                          journal=self.obs.journal,
                                          registry=self.obs.registry)
        self._cache = (
            QueryResultCache(cache_size, registry=self.obs.registry,
                             journal=self.obs.journal)
            if cache_size > 0 else None
        )
        # Video-to-video retrieval rides the same epoch-tagged caching
        # discipline; its cache keeps a private registry so the point
        # cache's ``cache.*`` families stay reconcilable on their own.
        self.video_stats = VideoQueryStats(registry=self.obs.registry)
        self._video_cache = (
            QueryResultCache(cache_size, journal=self.obs.journal)
            if cache_size > 0 else None
        )
        self._clients: dict[str, ClientPipeline] = {}
        self.wal = wal
        self._ingest = IngestCoordinator(
            stats=self.stats, journal=self.obs.journal,
            quarantine=self.quarantine, wal=wal,
            admission_capacity=admission_capacity)

    def _sync_index_gauges(self, cause: str) -> None:
        """Refresh the live-population and epoch gauges after a mutation,
        journaling the epoch bump (``cause`` is ``ingest`` or ``evict``)."""
        self.stats._live.set(len(self.index))
        old = int(self.stats._epoch.value)
        if self.index.epoch != old:
            self.stats._epoch.set(self.index.epoch)
            self.obs.journal.emit("index.epoch_bump", cause=cause,
                                  epoch=self.index.epoch)

    # -- provider side ----------------------------------------------------

    def register_client(self, client: ClientPipeline) -> None:
        """Make a provider reachable for segment fetches."""
        self._clients[client.device_id] = client

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
        touching the index (exactly-once indexing); otherwise every
        record is validated before any is indexed, the payload is made
        durable in the WAL (when configured), the whole bundle lands
        atomically via ``insert_many`` (one epoch bump), and the
        outcome is ``ACCEPTED``.
        """
        with self.obs.tracer.span("server.ingest_bundle", bytes=len(payload)):
            return self._ingest.commit([payload], [device_id], self._land)[0]

    def ingest_batch(self, payloads: Sequence[bytes],
                     device_ids: Sequence[str | None] | None = None,
                     ) -> list[IngestOutcome]:
        """Ingest a commit group of delivered bundles in one pass.

        Per-bundle outcomes (and the final index content, dedup state,
        owners, and quarantine) are identical to calling
        :meth:`ingest_bundle` on each payload in order; what changes is
        the amortisation: the WAL is fsynced once for the whole group,
        and all accepted records land in a single ``insert_many`` --
        one epoch bump and one cache/packed-view invalidation per
        *group* instead of per bundle.  Under back-pressure the group
        is partially admitted in order: the first ``capacity -
        in_flight`` bundles proceed, the tail is ``SHED`` for the
        uploader to re-offer.
        """
        with self.obs.tracer.span("server.ingest_batch", batch=len(payloads)):
            return self._ingest.commit(payloads, device_ids, self._land)

    def replay_wal(self, path: str | None = None) -> int:
        """Recover bundles from a write-ahead log after a crash.

        Re-offers every committed payload through the normal ingest
        pipeline *without* re-appending to the WAL, and re-applies
        every logged eviction at its place in the log; bundles that
        made it into the index before the crash deduplicate as
        ``DUPLICATE``, the rest are indexed now.  Replaying this
        server's own log into it again changes nothing: the evictions
        it already applied are skipped by sequence number, so none
        drops records that landed after it.  Returns how many bundles
        were recovered (newly indexed).  Back-pressure does not apply
        to recovery.
        """
        with self.obs.tracer.span("server.ingest_batch"):
            return self._ingest.replay_wal(path, self._land, self._evict)

    def receive_bundle(self, payload: bytes, device_id: str | None = None) -> int:
        """Ingest one upload bundle; returns the number of records indexed.

        The raising facade over :meth:`ingest_bundle` for callers on a
        trusted transport: a rejected payload raises ``ValueError``
        (after being quarantined and counted); a duplicate redelivery
        is a no-op returning 0.
        """
        outcome = self.ingest_bundle(payload, device_id=device_id)
        if outcome.status is IngestStatus.REJECTED:
            raise ValueError(outcome.reason)
        return outcome.records_indexed

    def make_uploader(self, channel: FaultyChannel,
                      policy: RetryPolicy | None = None) -> RetryingUploader:
        """A retrying uploader wired to this server's ingest path.

        Retransmissions are counted into ``stats.bundles_retried`` so
        the operator sees the at-least-once traffic the channel cost.
        """
        return self._ingest.make_uploader(self.ingest_bundle, channel, policy)

    def ingest(self, fovs: RecordColumns | Sequence[RepresentativeFoV]
               ) -> int:
        """Directly index already-decoded records (dataset loading):
        record objects, or columns such as a loaded snapshot."""
        n = self._land(fovs)
        self.stats._records_indexed.inc(n)
        return n

    def _land(self, fovs: RecordColumns | Sequence[RepresentativeFoV]
              ) -> int:
        """One atomic ``insert_many`` (one epoch bump) plus gauge sync."""
        n = self.index.insert_many(fovs)
        self._sync_index_gauges("ingest")
        return n

    # -- inquirer side ------------------------------------------------------

    def _epoch(self) -> int:
        return self.index.epoch

    def _read_points(self, queries: Sequence[Query],
                     execute: Callable[[list[Query]], Sequence[QueryResult]],
                     ) -> list[QueryResult]:
        """Point queries through the epoch-tagged result cache; only
        the misses reach ``execute``."""
        self.stats._queries.inc(len(queries))
        return read_through(
            self._cache, [query_cache_key(q) for q in queries], self._epoch,
            lambda missed: execute([queries[i] for i in missed]),
            self.stats._cache_hits, self.stats._cache_misses)

    def _answer(self, queries: list[Query],
                batched: bool) -> list[QueryResult]:
        """Run a read's cache misses: the packed engine, or, on the
        linear baseline, the oracle a query at a time."""
        if self.engine is None:
            return [answer(self.index, q, self.camera, self._strict_cover)
                    for q in queries]
        if batched:
            return self.engine.execute_many(queries)
        return [self.engine.execute(q) for q in queries]

    def query(self, query: Query) -> QueryResult:
        """Answer one ranked spatio-temporal query (cache-aware)."""
        with self.obs.tracer.span("server.query"):
            return self._read_points(
                [query], lambda qs: self._answer(qs, batched=False))[0]

    def query_many(self, queries: list[Query]) -> list[QueryResult]:
        """Answer a batch of queries (see RetrievalEngine.execute_many).

        Cached hits are merged in place; only the misses reach the
        engine's batched funnel.
        """
        batch = list(queries)
        with self.obs.tracer.span("server.query_many", batch=len(batch)):
            return self._read_points(
                batch, lambda qs: self._answer(qs, batched=True))

    def query_video(self, video_query: VideoQuery) -> VideoQueryResult:
        """Answer one video-to-video retrieval request (cache-aware).

        The query trajectory's FoVs go out as one batched
        :meth:`query_many` harvest, candidates score per stored video
        (:mod:`repro.video.scoring`), and the top-k ranks under the
        canonical ``(-score, video_id)`` order.  Results cache under
        the index epoch exactly like point queries: the frozen
        :class:`~repro.video.retrieval.VideoQuery` is its own key, and
        any index mutation invalidates via the epoch tag.
        """
        return serve_video_query(
            video_query, self.query_many, self.camera,
            cache=self._video_cache, epoch=self._epoch,
            stats=self.video_stats, tracer=self.obs.tracer)

    def fetch_segment(self, fov: RepresentativeFoV) -> StoredSegment:
        """Pull one matched segment from its owning client.

        This is the only step that moves video-scale bytes, and only
        for segments an inquirer actually selected.
        """
        device_id = self._ingest.owner_of(fov.video_id)
        if device_id is None or device_id not in self._clients:
            raise KeyError(f"no registered owner for video {fov.video_id!r}")
        segment = self._clients[device_id].fetch_segment(fov.video_id, fov.segment_id)
        self.stats._segments.inc()
        self.stats._segment_bytes.inc(
            self.traffic.profile.bytes_for(segment.duration))
        return segment

    def evict_older_than(self, cutoff_t: float) -> int:
        """Enforce a retention window; returns the eviction count.

        With a WAL the cutoff is logged and fsynced before the index
        changes, so :meth:`replay_wal` evicts at the same point.
        Eviction lowers the *live* population and raises the eviction
        counter; ``records_indexed`` stays the cumulative all-time
        total.
        """
        return self._ingest.evict(cutoff_t, self._evict)

    def _evict(self, cutoff_t: float) -> int:
        evicted = self.index.evict_older_than(cutoff_t)
        self.stats._evicted.inc(evicted)
        self._sync_index_gauges("evict")
        return evicted

    def records(self) -> list[RepresentativeFoV]:
        """Every indexed record (audits, parity checks, snapshots)."""
        return self.index.records()

    def close(self) -> None:
        """Release server-held resources (idempotent).

        There is currently nothing to release; the call stays so that
        owners can shut a server down without knowing what it holds.
        """

    @property
    def indexed_count(self) -> int:
        return len(self.index)
