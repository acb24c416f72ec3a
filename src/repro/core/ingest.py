"""The ingest vocabulary of Figure 1's cloud server.

The commit-group pipeline itself is the fleet's
(:class:`~repro.shard.server.ShardedCloudServer`; ``docs/PROTOCOL.md``
has its delivery-semantics table).  Here are its acknowledgement
(:class:`IngestStatus`, :class:`IngestOutcome`), the counters it and
the read path keep (:class:`ServerStats`), and its back-pressure half,
:class:`AdmissionQueue`: beyond a configured number of in-flight
bundles the server *sheds* the excess with an explicit, retryable
``shed`` acknowledgement instead of buffering without bound.  The
:class:`~repro.net.channel.RetryingUploader` retries any ack that is
neither terminal-ok nor ``rejected``, so shed bundles are re-offered
after backoff -- at-least-once delivery plus the content-digest dedup
keeps the outcome exactly-once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum

from repro.obs.metrics import MetricsRegistry

__all__ = ["AdmissionQueue", "IngestOutcome", "IngestStatus", "ServerStats"]


class IngestStatus(Enum):
    """What happened to one delivered bundle."""

    ACCEPTED = "accepted"
    DUPLICATE = "duplicate"
    REJECTED = "rejected"
    #: Refused admission by back-pressure; retryable (the uploader
    #: backs off and re-offers), unlike the terminal ``REJECTED``.
    SHED = "shed"


@dataclass(frozen=True)
class IngestOutcome:
    """The ingest path's acknowledgement for one delivered payload."""

    status: IngestStatus
    records_indexed: int
    digest: str
    video_id: str | None = None
    reason: str | None = None


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


class AdmissionQueue:
    """A capacity-bounded in-flight counter, not a buffer.

    ``try_admit(n)`` grants between 0 and ``n`` slots atomically (a
    batch larger than the free capacity is *partially* admitted; the
    caller sheds the remainder), ``release`` returns slots.  Nothing
    is ever queued here -- holding real payloads would be the
    unbounded buffering this class exists to prevent.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"admission capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._depth = 0
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def depth(self) -> int:
        """Currently admitted (in-flight) bundles."""
        with self._lock:
            return self._depth

    def try_admit(self, n: int = 1) -> int:
        """Atomically claim up to ``n`` slots; returns how many were
        granted (0 when saturated -- the caller sheds)."""
        if n < 0:
            raise ValueError(f"cannot admit {n} bundles")
        with self._lock:
            granted = min(n, self._capacity - self._depth)
            self._depth += granted
        return granted

    def release(self, n: int = 1) -> None:
        """Return ``n`` previously granted slots."""
        with self._lock:
            if n > self._depth:
                raise ValueError(
                    f"releasing {n} slots but only {self._depth} in flight")
            self._depth -= n
