"""The instrument catalog: every metric family and span name, declared once.

RF008 stops metric names being minted at runtime; RF013 closes the
remaining gap by checking every *literal* name bound at a call site
against this catalog — a typo'd family (``cache.hit`` vs
``cache.hits``), a kind drift (a counter re-registered as a gauge), or
a dead entry that nothing emits any more all become lint findings
instead of silent dashboard holes.

The catalog is deliberately a pair of plain literal dicts: the linter
reads them straight out of this module's AST (no import needed when
linting a bare checkout), and the runtime can import them for
``repro-fov obs``-style tooling.  Adding an instrument is a two-line
diff: the call site and the entry here.

``METRICS`` maps family name -> ``(kind, description)`` where kind is
``"counter"``, ``"gauge"`` or ``"histogram"`` and must match the
registry method the family is bound with.  ``SPANS`` maps span name ->
description; spans may be entered at any number of call sites.
"""

from __future__ import annotations

from typing import Final, Mapping

__all__ = ["METRICS", "SPANS"]

METRICS: Final[Mapping[str, tuple[str, str]]] = {
    # -- query result cache (core/cache.py) ---------------------------------
    "cache.hits": ("counter", "lookups answered from the result cache"),
    "cache.misses": ("counter", "lookups that fell through to the engine"),
    "cache.stale_drops": ("counter", "entries dropped on epoch-vector mismatch"),
    "cache.evictions": ("counter", "entries evicted by the LRU capacity bound"),
    # -- lossy upload channel (net/channel.py) ------------------------------
    "channel.transmissions": ("counter", "bundle transmissions attempted"),
    "channel.copies": ("counter", "payload bytes defensively copied"),
    "upload.attempts": ("counter", "uploader send attempts, by outcome"),
    "upload.retries": ("counter", "uploader retries after a failed attempt"),
    "upload.outcomes": ("counter", "terminal upload outcomes, by status"),
    # -- single-node server (core/server.py) --------------------------------
    "ingest.bundles": ("counter", "bundles ingested, by dedup outcome"),
    "ingest.bundles_retried": ("counter",
                               "bundle retransmissions by the retrying uploader"),
    "ingest.records_indexed": ("counter", "FoV records inserted into the index"),
    "ingest.bytes": ("counter", "payload bytes accepted by ingest"),
    "ingest.shed": ("counter", "bundles refused admission by back-pressure"),
    "ingest.wal_appends": ("counter", "bundle payloads appended to the WAL"),
    "ingest.wal_bytes": ("counter", "WAL bytes written, framing included"),
    "ingest.wal_syncs": ("counter",
                         "WAL fsyncs, one per commit group or eviction"),
    "ingest.wal_replayed": ("counter", "bundles recovered by WAL replay"),
    "quarantine.dropped": ("counter", "quarantined payloads aged out of window"),
    "index.records_live": ("gauge", "records currently resident in the index"),
    "index.epoch": ("gauge", "current index mutation epoch"),
    "index.records_evicted": ("counter", "records removed by retention eviction"),
    "query.requests": ("counter", "point queries served, cache hits included"),
    "query.cache_hits": ("counter", "server-level query cache hits"),
    "query.cache_misses": ("counter", "server-level query cache misses"),
    "fetch.segments": ("counter", "video segments fetched after ranking"),
    "fetch.segment_bytes": ("counter", "bytes of video segment payload fetched"),
    # -- sharded router (shard/server.py) -----------------------------------
    "shard.route": ("counter", "bundle routings, by shard id"),
    "shard.pruned": ("counter", "shards skipped by the bounds prefilter"),
    "shard.fanout_width": ("histogram", "shards consulted per scatter query"),
    "shard.epoch": ("gauge", "per-shard index epoch"),
    "shard.records_live": ("gauge", "per-shard live record count"),
    "failover.dropped_queries": ("counter", "queries refused during downtime"),
    # -- shard replica tier (shard/replica.py) ------------------------------
    "failover.kills": ("counter", "shard primaries killed mid-run"),
    "failover.promotions": ("counter", "warm standbys promoted to primary"),
    "failover.replica_syncs": ("counter",
                               "standby captures of a shard view, by kind "
                               "(full / tail)"),
    "failover.replica_bytes": ("counter", "packed bytes captured by syncs"),
    "failover.downtime_s": ("gauge", "kill-to-promotion seconds, by shard"),
    # -- video-to-video retrieval (video/retrieval.py) ----------------------
    "video.queries": ("counter", "video-to-video retrieval requests answered"),
    "video.cache_hits": ("counter", "video queries answered from the cache"),
    "video.cache_misses": ("counter", "video queries that ran the pipeline"),
    "video.segments_harvested": ("counter", "distinct segments harvest surfaced"),
    "video.videos_ranked": ("counter", "candidate videos scored and ranked"),
    # -- packed funnel passes (shard/server.py, every fleet shape) ----------
    "packed.descents": ("counter", "packed funnel passes: one per read call"),
    "packed.entries_tested": ("counter", "grid rows the descent's box test read"),
    "packed.entries_matched": ("counter", "box hits, before the sector-box test"),
    "packed.frontier_width_peak": ("gauge", "most grid rows read by one pass"),
    # -- tracer self-instrumentation (obs/trace.py) -------------------------
    "span.duration_s": ("histogram", "wall-clock duration of finished spans"),
}

SPANS: Final[Mapping[str, str]] = {
    "query.tree_descent": "packed-grid candidate descent, every shard visit",
    "query.projection": "camera positions into each query's local plane",
    "query.orientation_filter": "orientation cone filtering",
    "query.rank": "distance scoring and top-N ranking",
    "server.ingest_bundle": "server bundle ingest (a fleet of any size)",
    "server.ingest_batch": "server commit-group ingest or WAL replay",
    "server.query": "server single query",
    "server.query_many": "server query batch, one funnel pass",
    "failover.promote": "standby verification, rebuild, and install",
    "video.query": "one end-to-end video-to-video retrieval request",
    "video.harvest": "batched point-query harvest of the query trajectory",
    "video.score": "per-candidate similarity matrices and sequence scoring",
    "video.rank": "canonical (-score, video_id) top-k ranking",
}
