"""Cloud-server facade: ingest descriptor bundles, answer ranked queries.

The server half of Figure 1, as one machine: a
:class:`~repro.shard.server.ShardedCloudServer` whose fleet is one
shard.  Bundle ingest, commit groups, the write-ahead log, eviction,
the result caches, video retrieval and the stats are the fleet's; so
is failover (``kill_shard(0)`` / ``install_shard(0, index)``) and
every instrument around a read -- the ``server.query`` span, its four
stage spans and the ``packed.*`` counters.  This class adds what a
single server has and a fleet does not -- the provider registry and
segment fetches -- and replaces one step of the read path: slot 0's
published state is answered by one
:func:`~repro.core.retrieval._view_pass` over its packed view, whose
batched grid pass one index affords, or, on the linear-scan baseline,
which holds no columns to pack, by :func:`repro.core.oracle.answer`.
"""

from __future__ import annotations

from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.index import FoVIndex
from repro.core.ingest import IngestOutcome, IngestStatus, ServerStats
from repro.core.oracle import answer
from repro.core.pipeline import ClientPipeline, StoredSegment
from repro.core.query import Query, QueryResult
from repro.core.retrieval import _view_pass
from repro.core.wal import WriteAheadLog
from repro.geo.coords import GeoPoint
from repro.net.traffic import TrafficModel
from repro.obs.runtime import Observability
from repro.shard.server import Publication, ShardedCloudServer

__all__ = ["CloudServer", "IngestOutcome", "IngestStatus", "ServerStats"]


class CloudServer(ShardedCloudServer):
    """The retrieval service on one machine.

    Parameters
    ----------
    camera : CameraModel
        Camera constants shared with the provider fleet (used by the
        orientation filter).
    backend : {"rtree", "linear"}
        Index backend; ``"linear"`` swaps in the brute-force baseline,
        which the oracle (:func:`repro.core.oracle.answer`) answers.
    strict_cover : bool
        Orientation-filter mode (see
        :class:`~repro.core.retrieval.RetrievalEngine`).
    engine : {None, "packed", "dynamic"}
        Selects nothing: the index picks the read path.  Kept as a
        check for existing callers -- ``"packed"`` is accepted for a
        column store, ``"dynamic"`` for the linear baseline, anything
        else raises ``ValueError``.
    cache_size : int
        Capacity of the LRU query-result cache (``0`` disables); every
        write invalidates it, so a hit equals the cold recomputation.
    index : FoVIndex, optional
        Use an existing index (``FoVIndex.bulk`` over a loaded
        ``.fovpack``'s records, or one built with an ``rtree_config``)
        instead of building an empty one; ``backend`` is then ignored.
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
        (stats registry, funnel spans and counters, cache counters,
        journal).  The default -- :meth:`Observability.default` --
        keeps metrics and the event journal on (both clock-free) with
        tracing off; pass :meth:`Observability.tracing` to also collect
        span trees.
    """

    def __init__(self, camera: CameraModel, backend: str = "rtree",
                 strict_cover: bool = True,
                 engine: str | None = None,
                 cache_size: int = 1024,
                 index: FoVIndex | None = None,
                 obs: Observability | None = None,
                 wal: WriteAheadLog | None = None,
                 admission_capacity: int | None = None):
        index = index if index is not None else FoVIndex(backend=backend)
        linear = index.backend == "linear"
        if engine not in (None, "dynamic" if linear else "packed"):
            raise ValueError(f"a {index.backend} index is not served "
                             f"by the {engine!r} engine")
        # One shard owns every cell, so the plane's origin routes nothing.
        super().__init__(camera, n_shards=1, origin=GeoPoint(0.0, 0.0),
                         strict_cover=strict_cover, cache_size=cache_size,
                         obs=obs, wal=wal,
                         admission_capacity=admission_capacity)
        self.traffic = TrafficModel()
        self._clients: dict[str, ClientPipeline] = {}
        self._place(0, index)

    # The fleet's own functions, bound here by name because the perf
    # ledger (``benchmarks/perf``) treats the two classes apart: it
    # wraps ``CloudServer.ingest`` by looking it up in this class's
    # ``__dict__``, and its contract tests patch ``ShardedCloudServer
    # .query`` to break the served answers, which must not reach the
    # ``CloudServer`` that checks them.
    ingest = ShardedCloudServer.ingest
    query = ShardedCloudServer.query

    @property
    def index(self) -> FoVIndex:
        """The index serving slot 0 now (a promoted one after failover)."""
        with self._log_order:
            return self.shards[0]

    def _published(self) -> Publication:
        """The publication, after publishing a change made to the index
        directly, not through this server (the caller of ``index=``
        holds it too); no write holds the log-order lock then, while a
        write in flight publishes its own change when it ends."""
        pub = super()._published()
        state = pub.states[0]
        if (state is not None and state.epoch != state.index.epoch
                and self._log_order.acquire(blocking=False)):
            try:
                self._publish("ingest", [0])
                pub = super()._published()
            finally:
                self._log_order.release()
        return pub

    def _answer(self, pub: Publication,
                queries: list[Query]) -> list[QueryResult]:
        """Run a read's cache misses over slot 0's state in ``pub``:
        one :func:`~repro.core.retrieval._view_pass` over its packed
        view, counted as one pass.  The linear baseline, which keeps no
        frozen rows, is answered, uncounted, by the oracle a query at a
        time under the log-order lock (it is the reference, not a
        serving shape).  Refused while the slot is down."""
        state = pub.serving(0)
        if state.rows is None:
            with self._log_order:
                return [answer(self.shards[0], q, self.camera,
                               self._strict_cover) for q in queries]
        results, matched, read = _view_pass(
            state.index.packed_view(state), queries, self.camera,
            self._strict_cover, self._ranker, self._clock, self.obs.tracer)
        if queries:
            self._count_pass(matched, read)
        return results

    # -- what a single server has and a fleet does not ---------------------

    def register_client(self, client: ClientPipeline) -> None:
        """Make a provider reachable for segment fetches."""
        self._clients[client.device_id] = client

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

    def fetch_segment(self, fov: RepresentativeFoV) -> StoredSegment:
        """Pull one matched segment from its owning client.

        This is the only step that moves video-scale bytes, and only
        for segments an inquirer actually selected.
        """
        with self._digest_lock:
            device_id = self._owners.get(fov.video_id)
        if device_id is None or device_id not in self._clients:
            raise KeyError(f"no registered owner for video {fov.video_id!r}")
        segment = self._clients[device_id].fetch_segment(fov.video_id, fov.segment_id)
        self.stats._segments.inc()
        self.stats._segment_bytes.inc(
            self.traffic.profile.bytes_for(segment.duration))
        return segment
