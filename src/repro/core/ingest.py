"""The ingest pipeline of Figure 1's cloud server, written once.

:class:`IngestCoordinator` is the commit-group ingest both server
facades run (``docs/PROTOCOL.md`` has its delivery-semantics table).
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
import threading
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.fov import RecordColumns
from repro.core.quarantine import QuarantineStore
from repro.core.wal import ENTRY_OVERHEAD, WriteAheadLog
from repro.core.wal import replay as wal_replay
from repro.net.channel import FaultyChannel, RetryPolicy, RetryingUploader
from repro.net.protocol import BundleColumns, decode_bundle_columns
from repro.obs.journal import EventJournal

if TYPE_CHECKING:
    from repro.core.server import ServerStats

__all__ = ["AdmissionQueue", "IngestCoordinator", "IngestOutcome",
           "IngestStatus"]


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

    One instance per server facade, which passes each :meth:`commit`
    (and :meth:`replay_wal`) its ``land(columns) -> int``: index every
    accepted record of the group -- its decoded columns end to end, no
    record object built -- in one all-or-nothing call (one epoch bump
    per index touched) and return the count.  ``CloudServer`` lands in
    its index, ``ShardedCloudServer`` splits across the fleet; a single
    shard is the n=1 case.  It stores no ``land``: a bound method kept
    here would put the facade in a reference cycle.

    A payload's content digest is *reserved* under the lock before
    decoding, so a byte-identical redelivery -- earlier, concurrent, or
    later in the same group -- acks ``DUPLICATE`` without a decode.  A
    ``REJECTED`` payload gives its reservation back (redelivering it
    rejects again), and so does every member of a group whose WAL
    write or ``land`` raised: nothing was indexed, so the retry must
    not be acked as a duplicate.
    """

    def __init__(self, *, stats: ServerStats, journal: EventJournal,
                 quarantine: QuarantineStore,
                 wal: WriteAheadLog | None = None,
                 admission_capacity: int | None = None) -> None:
        self._stats = stats
        self._journal = journal
        self._quarantine = quarantine
        self._wal = wal
        self._admission = (AdmissionQueue(admission_capacity)
                           if admission_capacity is not None else None)
        self._lock = threading.Lock()
        self._seen: set[str] = set()
        self._owners: dict[str, str] = {}  # video_id -> device_id

    @property
    def seen_digests(self) -> frozenset[str]:
        """Digests of every bundle indexed (or in flight) so far."""
        with self._lock:
            return frozenset(self._seen)

    def register_owner(self, video_id: str, device_id: str) -> None:
        """Record which provider device holds ``video_id``'s footage."""
        with self._lock:
            self._owners[video_id] = device_id

    def owner_of(self, video_id: str) -> str | None:
        """The device registered for ``video_id``, if any."""
        with self._lock:
            return self._owners.get(video_id)

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
                    self._seen.add(digest)
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
                    with self._lock:
                        self._seen.discard(reserved.pop())
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
            if self._wal is not None and not replaying:
                for _, _, payload, _ in group:
                    self._wal.append(payload)
                    self._stats._wal_appends.inc()
                    self._stats._wal_bytes.inc(len(payload) + ENTRY_OVERHEAD)
                self._wal.commit()
                self._stats._wal_syncs.inc()
            indexed = land(RecordColumns.concat([c for *_, c in group]))
        except BaseException:
            with self._lock:
                self._seen.difference_update(reserved)
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

    def replay_wal(self, path: str | None,
                   land: Callable[[RecordColumns], int]) -> int:
        """Re-offer every committed payload of a write-ahead log (the
        configured one when ``path`` is ``None``) through ``land``;
        returns how many were newly indexed (the rest deduplicate)."""
        if path is None:
            if self._wal is None:
                raise ValueError("no WAL configured and no path given")
            path = self._wal.path
        payloads = wal_replay(path)
        outcomes = self.commit(payloads, None, land, replaying=True)
        recovered = sum(1 for o in outcomes
                        if o.status is IngestStatus.ACCEPTED)
        self._journal.emit("ingest.wal_replay", offered=len(payloads),
                           recovered=recovered)
        return recovered

    def make_uploader(self, deliver: Callable[[bytes], IngestOutcome],
                      channel: FaultyChannel,
                      policy: RetryPolicy | None = None) -> RetryingUploader:
        """A retrying uploader over ``deliver`` (the facade's
        ``ingest_bundle``), counting into ``stats.bundles_retried``."""
        return RetryingUploader(channel, deliver, policy=policy,
                                on_retry=self._stats._retried.inc,
                                registry=self._stats.registry,
                                journal=self._journal)
