"""Warm shard replicas: capture, verify, promote.

One standby per shard of a
:class:`~repro.shard.server.ShardedCloudServer`: a base ``FOVPACK1``
buffer plus tail segments of the rows appended since, each pinned by a
manifest and checked at promotion.  A segment holds record columns
only; a sync builds no search structure, and promotion lands the
columns in a fresh index without building a record object.  The sync
rules (skip / tail / fold), fail-stop, the promotion checks and the
parity contract are specified once, in docs/SHARDING.md §10
("Failover protocol").

Kills, promotions, syncs (by ``kind``, ``full`` or ``tail``), captured
bytes and the measured downtime land in the router's registry as
``failover.*`` families.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from repro.core.flatsnap import unpack_snapshot
from repro.core.fov import RecordColumns
from repro.core.index import ContentMark, FoVIndex, must_fold
from repro.net.clock import default_timer
from repro.shard.server import (ShardCapture, ShardedCloudServer,
                                ShardUnavailableError)

__all__ = ["ReplicaManifest", "ReplicaSegment", "ShardReplica",
           "ReplicaSet"]


@dataclass(frozen=True)
class ReplicaManifest:
    """What one standby buffer must decode to, pinned at sync."""

    shard_id: int
    epoch: int
    records: int
    digest: str                 #: sha256 hex over the packed buffer


@dataclass(frozen=True)
class ReplicaSegment:
    """One packed ``FOVPACK1`` buffer of a standby plus its manifest."""

    manifest: ReplicaManifest
    packed: bytes


@dataclass(frozen=True)
class ShardReplica:
    """One warm standby: a base buffer and manifest, then its tails.

    ``manifest`` and ``packed`` are the base segment; ``tails`` holds
    the segments synced since, oldest first.  ``len()`` is the
    standby's total record count.
    """

    manifest: ReplicaManifest
    packed: bytes
    tails: tuple[ReplicaSegment, ...] = ()

    def segments(self) -> tuple[ReplicaSegment, ...]:
        """Every segment in row order: the base, then the tails."""
        return (ReplicaSegment(self.manifest, self.packed),) + self.tails

    @property
    def epoch(self) -> int:
        """The newest segment's epoch."""
        return self.segments()[-1].manifest.epoch

    def __len__(self) -> int:
        return sum(s.manifest.records for s in self.segments())


class _Synced(NamedTuple):
    """What a shard's primary held at its standby's last capture."""

    epoch: int
    mark: ContentMark


class ReplicaSet:
    """One warm standby per shard of a :class:`ShardedCloudServer`.

    Parameters
    ----------
    server : ShardedCloudServer
        The fleet to shadow.  Metrics register on its router registry.
    clock : callable, optional
        Monotonic timer for downtime accounting (injectable; defaults
        to :func:`repro.net.clock.default_timer`).
    """

    def __init__(self, server: ShardedCloudServer,
                 clock: Callable[[], float] | None = None) -> None:
        self._server = server
        self._clock = clock if clock is not None else default_timer
        self._replicas: list[ShardReplica | None] = [None] * server.n_shards
        self._synced: list[_Synced | None] = [None] * server.n_shards
        self._killed_at: dict[int, float] = {}
        self._downtime_s: dict[int, float] = {}
        reg = server.obs.registry
        self._kills = reg.counter(
            "failover.kills", "shard primaries killed mid-run")
        self._promotions = reg.counter(
            "failover.promotions", "warm standbys promoted to primary")
        self._syncs = reg.counter(
            "failover.replica_syncs",
            "standby captures of a shard's view, by kind (full / tail)",
            labelnames=("kind",))
        self._sync_bytes = reg.counter(
            "failover.replica_bytes", "packed bytes captured by standby syncs")
        self._downtime = reg.gauge(
            "failover.downtime_s",
            "seconds between the last kill and its promotion",
            labelnames=("shard",))

    @property
    def n_shards(self) -> int:
        return self._server.n_shards

    def replica(self, sid: int) -> ShardReplica | None:
        """The current standby for shard ``sid`` (None before first sync)."""
        return self._replicas[sid]

    def epochs(self) -> tuple[int, ...]:
        """Per-shard standby epochs (``-1`` where nothing is captured)."""
        return tuple(-1 if r is None else r.epoch for r in self._replicas)

    # -- sync -------------------------------------------------------------

    def sync_shard(self, sid: int) -> ShardReplica:
        """Bring shard ``sid``'s standby up to its primary's content.

        Captures nothing while the primary's mark is the one last
        captured.  Ships the rows appended since as a tail unless the
        fold rule the serving view uses
        (:func:`repro.core.index.must_fold`) says the base no longer
        carries them -- a removal, or tails that reached the base's row
        count -- and folds into one full capture then.

        Raises :class:`~repro.shard.server.ShardUnavailableError` while
        the shard is down: its slot is an empty placeholder, and
        capturing it would replace the standby promotion needs with
        nothing.
        """
        if sid in self._server.down_shards:
            raise ShardUnavailableError(sid)
        replica, synced = self._replicas[sid], self._synced[sid]
        mark = self._server.shard_mark(sid)
        since = None
        if replica is not None and synced is not None:
            if synced.mark == mark:
                return replica
            base = ContentMark(synced.mark.token, replica.manifest.records)
            if not must_fold(base, mark):
                since = synced.mark
        capture = self._server.capture_shard(sid, since=since)
        if capture.tail and replica is not None and since is not None:
            tail = self._segment(sid, capture, since.count)
            replica = replace(replica, tails=replica.tails + (tail,))
        else:
            full = self._segment(sid, capture, 0)
            replica = ShardReplica(manifest=full.manifest, packed=full.packed)
        self._replicas[sid] = replica
        self._synced[sid] = _Synced(capture.epoch, capture.mark)
        self._syncs.labels(kind="tail" if capture.tail else "full").inc()
        self._sync_bytes.inc(len(capture.packed))
        return replica

    @staticmethod
    def _segment(sid: int, capture: ShardCapture,
                 first_row: int) -> ReplicaSegment:
        """Pin a captured buffer holding the primary's rows from
        ``first_row`` to its mark's count."""
        return ReplicaSegment(
            ReplicaManifest(shard_id=sid, epoch=capture.epoch,
                            records=capture.mark.count - first_row,
                            digest=hashlib.sha256(capture.packed).hexdigest()),
            capture.packed)

    def sync(self) -> int:
        """Bring every serving shard's standby up to date; returns how
        many captured anything.

        Cheap to call after every commit group: a shard whose content
        mark is unchanged is skipped without packing a byte.  A down
        shard is skipped too (:meth:`sync_shard` refuses it).
        """
        down = self._server.down_shards
        synced = 0
        for sid in range(self.n_shards):
            if sid in down:
                continue
            before = self._replicas[sid]
            if self.sync_shard(sid) is not before:
                synced += 1
        return synced

    # -- failure and promotion --------------------------------------------

    def kill(self, sid: int) -> None:
        """Kill shard ``sid``'s primary and start the downtime clock."""
        self._server.kill_shard(sid)
        self._killed_at[sid] = self._clock()
        self._kills.inc()

    def downtime_s(self, sid: int) -> float:
        """Measured kill-to-promotion seconds for shard ``sid`` (0 if
        never killed or not yet promoted)."""
        return self._downtime_s.get(sid, 0.0)

    def promote(self, sid: int) -> FoVIndex:
        """Verify shard ``sid``'s standby and promote it to primary.

        Raises ``ValueError`` when the standby is missing or fails any
        per-segment check (docs/SHARDING.md §10): a buffer digest that
        disagrees with its manifest (tampered/torn), a ``FOVPACK1`` CRC
        failure, a decoded record count or epoch that drifts from its
        manifest, or segments that are out of order, missing, or do not
        add up to the primary's last synced epoch and count; or when the
        shard is serving, not down.  On success the rebuilt index is
        installed (and returned), the slot serves again, and the
        downtime is recorded.
        """
        replica, synced = self._replicas[sid], self._synced[sid]
        if replica is None or synced is None:
            raise ValueError(f"no standby captured for shard {sid}")
        with self._server.obs.tracer.span("failover.promote", shard=sid):
            columns = _verified_columns(sid, replica, synced)
            fresh = FoVIndex()
            fresh.insert_many(columns)
            self._server.install_shard(sid, fresh)
        self._promotions.inc()
        killed_at = self._killed_at.pop(sid, None)
        if killed_at is not None:
            downtime = self._clock() - killed_at
            self._downtime_s[sid] = downtime
            self._downtime.labels(shard=str(sid)).set(downtime)
        return fresh


def _verified_columns(sid: int, replica: ShardReplica,
                      synced: _Synced) -> RecordColumns:
    """A standby's segments as one run of columns in row order, or
    ``ValueError`` naming the first check that failed."""
    def rejected(why: str) -> ValueError:
        return ValueError(f"standby for shard {sid} rejected: {why}")

    parts: list[RecordColumns] = []
    newest: int | None = None
    for i, segment in enumerate(replica.segments()):
        manifest = segment.manifest
        digest = hashlib.sha256(segment.packed).hexdigest()
        if digest != manifest.digest:
            raise rejected(
                f"segment {i} buffer digest {digest[:12]} != manifest "
                f"{manifest.digest[:12]} (tampered or torn replica)")
        columns = unpack_snapshot(segment.packed)   # CRC re-verified
        if len(columns) != manifest.records:
            raise rejected(
                f"segment {i}: {len(columns)} records decoded, manifest "
                f"says {manifest.records}")
        if columns.epoch != manifest.epoch:
            raise rejected(
                f"segment {i}: snapshot epoch {columns.epoch}, manifest "
                f"says {manifest.epoch}")
        if newest is not None and manifest.epoch <= newest:
            raise rejected(
                f"segment {i} epoch {manifest.epoch} does not follow "
                f"{newest} (epoch chain broken)")
        newest = manifest.epoch
        parts.append(columns)
    if newest != synced.epoch:
        raise rejected(f"newest segment epoch {newest}, last sync saw "
                       f"{synced.epoch} (epoch chain broken)")
    held = sum(len(p) for p in parts)
    if held != synced.mark.count:
        raise rejected(f"segments hold {held} records, last sync "
                       f"saw {synced.mark.count} (record count)")
    return RecordColumns.concat(parts)
