"""The ingest pipeline of Figure 1's cloud server, written once.

:class:`IngestCoordinator` is the commit-group ingest the server runs
(``docs/PROTOCOL.md`` has its delivery-semantics table), and
:class:`ServerStats` the counters it and the read path keep.
:class:`AdmissionQueue` is its back-pressure half: beyond a configured
number of in-flight bundles the server *sheds* the excess with an
explicit, retryable ``shed`` acknowledgement instead of buffering
without bound.  The :class:`~repro.net.channel.RetryingUploader`
retries any ack that is neither terminal-ok nor ``rejected``, so shed
bundles are re-offered after backoff -- at-least-once delivery plus the
content-digest dedup keeps the outcome exactly-once.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, ContextManager, Iterable, Sequence

from repro.core.fov import RecordColumns
from repro.core.quarantine import QuarantineStore
from repro.core.wal import ENTRY_OVERHEAD, EVICT_ENTRY_SIZE, Eviction, WriteAheadLog
from repro.core.wal import replay as wal_replay
from repro.net.channel import FaultyChannel, RetryPolicy, RetryingUploader
from repro.net.protocol import BundleColumns, decode_bundle_columns
from repro.obs.journal import EventJournal
from repro.obs.metrics import MetricsRegistry

__all__ = ["AdmissionQueue", "IngestCoordinator", "IngestOutcome",
           "IngestStatus", "ServerStats"]


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


class IngestCoordinator:
    """Commit-group ingest: admit -> dedup -> decode -> WAL -> land -> ack.

    One instance per server, which passes each :meth:`commit` (and
    :meth:`replay_wal`) its ``land(columns) -> int``: index every
    accepted record of the group -- its decoded columns end to end, no
    record object built -- in one all-or-nothing call (one epoch bump
    per index touched) and return the count.  ``ShardedCloudServer``
    splits the group across its fleet; ``CloudServer`` is its fleet of
    one.  It stores no ``land``: a bound method kept here would put the
    server in a reference cycle.

    A payload's content digest is *reserved* under the lock before
    decoding, so a byte-identical redelivery -- earlier, concurrent, or
    later in the same group -- acks ``DUPLICATE`` without a decode.  A
    ``REJECTED`` payload gives its reservation back (redelivering it
    rejects again), and so does every member of a group whose WAL
    write or ``land`` raised: nothing was indexed, so the retry must
    not be acked as a duplicate.

    :meth:`evict` logs a retention cutoff the same way.  A group's
    append and its ``land``, and an eviction's append and its index
    change, run under one lock (:meth:`exclusive`), so the log's entry
    order is the order the index saw and :meth:`replay_wal` rebuilds
    the same content.  ``check`` (the fleet's "no primary is down")
    runs once per write, under that lock before anything is logged, so
    a write it refuses leaves no entry for replay to apply.  Like
    ``land``, it must not be a bound method of the facade.

    A reserved digest stays *pending* until its group has landed; the
    pending set is cleared under the same lock, right after ``land``,
    so :meth:`landed_digests` read under :meth:`exclusive` names
    exactly the bundles whose records the index holds.
    """

    def __init__(self, *, stats: ServerStats, journal: EventJournal,
                 quarantine: QuarantineStore,
                 wal: WriteAheadLog | None = None,
                 admission_capacity: int | None = None,
                 check: Callable[[], None] | None = None) -> None:
        self._stats = stats
        self._journal = journal
        self._quarantine = quarantine
        self._wal = wal
        self._check = check
        self._admission = (AdmissionQueue(admission_capacity)
                           if admission_capacity is not None else None)
        self._lock = threading.Lock()
        self._log_order = threading.Lock()
        # Sequence numbers of the configured log's eviction entries
        # already applied to this server's index (under _log_order).
        self._applied_evictions: set[int] = set()
        self._seen: set[str] = set()
        # Reserved digests whose group has not landed yet (under _lock).
        self._pending: set[str] = set()
        self._owners: dict[str, str] = {}  # video_id -> device_id

    @property
    def seen_digests(self) -> frozenset[str]:
        """Digests of every bundle indexed (or in flight) so far."""
        with self._lock:
            return frozenset(self._seen)

    def landed_digests(self) -> frozenset[str]:
        """Digests of the bundles whose records have landed: the seen
        set less the groups not yet past ``land``.  Read it under
        :meth:`exclusive` to match it to the index."""
        with self._lock:
            return frozenset(self._seen - self._pending)

    def remember(self, digests: Iterable[str]) -> None:
        """Mark ``digests`` as landed bundles (a reloaded snapshot's),
        so that their redeliveries ack ``DUPLICATE``."""
        with self._lock:
            self._seen.update(digests)

    def _release(self, digests: Iterable[str]) -> None:
        """Give back the reservations of bundles that did not land."""
        with self._lock:
            self._seen.difference_update(digests)
            self._pending.difference_update(digests)

    def register_owner(self, video_id: str, device_id: str) -> None:
        """Record which provider device holds ``video_id``'s footage."""
        with self._lock:
            self._owners[video_id] = device_id

    def owner_of(self, video_id: str) -> str | None:
        """The device registered for ``video_id``, if any."""
        with self._lock:
            return self._owners.get(video_id)

    def exclusive(self) -> ContextManager[object]:
        """Hold off writes: while the block runs, no commit group or
        eviction is between its ``check`` and its index change."""
        return self._log_order

    def commit(self, payloads: Sequence[bytes],
               device_ids: Sequence[str | None] | None,
               land: Callable[[RecordColumns], int], *,
               replaying: bool = False) -> list[IngestOutcome]:
        """Ingest one commit group through ``land``; outcomes are
        positional, and (with index content, dedup state, owners,
        quarantine) identical to committing each payload alone, in
        order.  ``replaying`` marks WAL recovery: no back-pressure,
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
                payloads[:admitted], device_ids[:admitted], land, replaying)
        finally:
            if admission is not None:
                admission.release(admitted)
        for payload in payloads[admitted:]:
            digest = hashlib.sha256(payload).hexdigest()
            self._stats._shed.inc()
            self._journal.emit("ingest.shed", digest=digest)
            outcomes.append(IngestOutcome(
                status=IngestStatus.SHED, records_indexed=0, digest=digest,
                reason="admission queue full"))
        return outcomes

    def _commit_admitted(self, payloads: Sequence[bytes],
                         device_ids: Sequence[str | None],
                         land: Callable[[RecordColumns], int],
                         replaying: bool) -> list[IngestOutcome]:
        outcomes: list[IngestOutcome] = []
        group: list[tuple[str, str | None, bytes, BundleColumns]] = []
        reserved: list[str] = []
        try:
            for payload, dev in zip(payloads, device_ids):
                digest = hashlib.sha256(payload).hexdigest()
                with self._lock:
                    duplicate = digest in self._seen
                    if not duplicate:
                        self._seen.add(digest)
                        self._pending.add(digest)
                if duplicate:
                    self._stats._duplicated.inc()
                    self._journal.emit("ingest.duplicate", digest=digest)
                    outcomes.append(IngestOutcome(
                        status=IngestStatus.DUPLICATE, records_indexed=0,
                        digest=digest))
                    continue
                reserved.append(digest)
                try:
                    columns = decode_bundle_columns(payload)
                except ValueError as exc:
                    self._release([reserved.pop()])
                    self._stats._rejected.inc()
                    self._quarantine.add(payload, str(exc))
                    self._journal.emit("ingest.rejected", digest=digest,
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
            wal = None if replaying else self._wal
            with self._log_order:
                if self._check is not None:
                    self._check()
                if wal is not None:
                    for _, _, payload, _ in group:
                        wal.append(payload)
                        self._stats._wal_appends.inc()
                        self._stats._wal_bytes.inc(
                            len(payload) + ENTRY_OVERHEAD)
                    wal.commit()
                    self._stats._wal_syncs.inc()
                indexed = land(RecordColumns.concat([c for *_, c in group]))
                with self._lock:
                    self._pending.difference_update(reserved)
        except BaseException:
            self._release(reserved)
            raise
        self._stats._records_indexed.inc(indexed)
        for digest, dev, payload, columns in group:
            if dev is not None:
                self.register_owner(columns.video_id, dev)
            self._stats._accepted.inc()
            self._stats._bytes_in.inc(len(payload))
            if replaying:
                self._stats._wal_replayed.inc()
            self._journal.emit("ingest.accepted", digest=digest,
                               video_id=columns.video_id,
                               records=len(columns))
        return outcomes

    def evict(self, cutoff_t: float, apply: Callable[[float], int]) -> int:
        """Log a retention cutoff, fsync it, then ``apply`` it to the
        index; returns ``apply``'s eviction count."""
        wal = self._wal
        with self._log_order:
            if self._check is not None:
                self._check()
            if wal is None:
                return apply(cutoff_t)
            seq = wal.append_eviction(cutoff_t)
            self._stats._wal_bytes.inc(EVICT_ENTRY_SIZE)
            wal.commit()
            self._stats._wal_syncs.inc()
            evicted = apply(cutoff_t)
            self._applied_evictions.add(seq)
            return evicted

    def replay_wal(self, path: str | None,
                   land: Callable[[RecordColumns], int],
                   evict: Callable[[float], int]) -> int:
        """Re-apply a write-ahead log (the configured one when ``path``
        is ``None``) in sequence order: each run of bundle payloads is
        re-offered as one group through ``land``, each eviction cutoff
        goes to ``evict``.  Returns how many bundles were newly indexed
        (the rest deduplicate).

        Replay skips what this server already applied, so it may run
        into a warm server: a bundle deduplicates, and an eviction of
        the configured log that this server applied is passed over --
        applied again, it would drop records landed after it.
        """
        if path is None:
            if self._wal is None:
                raise ValueError("no WAL configured and no path given")
            path = self._wal.path
        own = self._wal is not None and os.path.samefile(path, self._wal.path)
        offered = recovered = 0
        run: list[bytes] = []
        for entry in [*wal_replay(path), None]:
            if isinstance(entry, bytes):
                run.append(entry)
                continue
            if run:
                outcomes = self.commit(run, None, land, replaying=True)
                offered += len(run)
                recovered += sum(1 for o in outcomes
                                 if o.status is IngestStatus.ACCEPTED)
                run = []
            if entry is not None:
                self._replay_eviction(entry, evict, own)
        self._journal.emit("ingest.wal_replay", offered=offered,
                           recovered=recovered)
        return recovered

    def _replay_eviction(self, entry: Eviction,
                         evict: Callable[[float], int], own: bool) -> None:
        with self._log_order:
            if own and entry.seq in self._applied_evictions:
                return
            if self._check is not None:
                self._check()
            evict(entry.cutoff_t)
            if own:
                self._applied_evictions.add(entry.seq)

    def make_uploader(self, deliver: Callable[[bytes], IngestOutcome],
                      channel: FaultyChannel,
                      policy: RetryPolicy | None = None) -> RetryingUploader:
        """A retrying uploader over ``deliver`` (the facade's
        ``ingest_bundle``), counting into ``stats.bundles_retried``."""
        return RetryingUploader(channel, deliver, policy=policy,
                                on_retry=self._stats._retried.inc,
                                registry=self._stats.registry,
                                journal=self._journal)
