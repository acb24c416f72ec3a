"""Fault-injected transport and the retrying uploader that beats it.

The paper's traffic model assumes descriptors arrive; real crowd-
sourced uplinks drop, duplicate, corrupt, delay, and reorder them.
This module makes those faults injectable and deterministic so the
ingest path can be exercised end-to-end:

* :class:`FaultProfile` -- per-transmission fault rates plus a latency
  model;
* :class:`FaultyChannel` -- a seeded channel that applies the profile
  to every transmitted payload.  Reordered copies are *held back* and
  surface on later transmissions (or an explicit :meth:`flush`), which
  is how late duplicates and out-of-order arrivals happen in practice;
* :class:`RetryingUploader` -- at-least-once delivery: transmit, wait
  for an acknowledgement (virtual timeout), back off exponentially with
  a cap, retry up to a budget.  Redelivery is byte-identical, so the
  server's content-digest dedup turns at-least-once into exactly-once.

Everything is driven by one seeded ``numpy`` generator and a virtual
clock -- no sockets, no sleeps, bit-identical replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.obs.journal import EventJournal
from repro.obs.metrics import Counter, MetricsRegistry

__all__ = [
    "FaultProfile",
    "ChannelStats",
    "Delivery",
    "FaultyChannel",
    "RetryPolicy",
    "UploaderStats",
    "UploadReceipt",
    "RetryingUploader",
]

#: Ack statuses the uploader treats as "the server has this bundle".
_ACK_OK = ("accepted", "duplicate")


@dataclass(frozen=True)
class FaultProfile:
    """Fault rates applied per transmitted copy, all in ``[0, 1]``.

    ``drop_rate`` loses the transmission entirely; ``duplicate_rate``
    emits a second copy; ``corrupt_rate`` mutates a delivered copy
    (byte flip, truncation, or extension); ``reorder_rate`` holds a
    copy back so it arrives during a *later* transmission.  Latency is
    ``latency_s`` plus an exponential jitter term.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0
    reorder_rate: float = 0.0
    latency_s: float = 0.02
    jitter_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "corrupt_rate",
                     "reorder_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.latency_s < 0 or self.jitter_s < 0:
            raise ValueError("latency and jitter must be non-negative")

    @classmethod
    def lossless(cls) -> "FaultProfile":
        """The ideal channel: every copy arrives intact, in order."""
        return cls(latency_s=0.0)


@dataclass
class ChannelStats:
    """What the channel did to the traffic, copy by copy."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0
    reordered: int = 0


@dataclass(frozen=True)
class Delivery:
    """One copy arriving at the far end of the channel."""

    payload: bytes
    latency_s: float
    corrupted: bool = False
    delayed: bool = False


class FaultyChannel:
    """A seeded lossy channel; :meth:`transmit` returns what arrives.

    Held (reordered) copies from earlier transmissions are appended to
    a later transmission's deliveries, flagged ``delayed``; call
    :meth:`flush` at the end of a simulation to surface stragglers.
    """

    def __init__(self, profile: FaultProfile | None = None,
                 seed: int = 0,
                 rng: np.random.Generator | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        self.profile = profile or FaultProfile.lossless()
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.stats = ChannelStats()
        self._held: list[Delivery] = []
        self._transmissions: Counter | None = None
        self._copies: Counter | None = None
        if registry is not None:
            self._transmissions = registry.counter(
                "channel.transmissions", "Payloads handed to the channel")
            self._copies = registry.counter(
                "channel.copies", "Per-copy channel fates",
                labelnames=("fate",))

    def _count_copy(self, fate: str) -> None:
        """Mirror one per-copy fate into the registry (when attached)."""
        if self._copies is not None:
            self._copies.labels(fate=fate).inc()

    @property
    def pending(self) -> int:
        """Copies held back by reordering, not yet delivered."""
        return len(self._held)

    def _latency(self, extra: float = 0.0) -> float:
        lat = self.profile.latency_s + extra
        if self.profile.jitter_s > 0:
            lat += float(self.rng.exponential(self.profile.jitter_s))
        return lat

    def _corrupt(self, payload: bytes) -> bytes:
        """Mutate a copy: flip a byte, truncate the tail, or extend.

        Every mode is guaranteed to change the payload (non-zero XOR,
        at least one byte removed/added), so a "corrupted" copy is
        never accidentally byte-identical to the original.
        """
        mode = int(self.rng.integers(0, 3)) if payload else 2
        if mode == 0:                                   # flip one byte
            buf = bytearray(payload)
            i = int(self.rng.integers(0, len(buf)))
            buf[i] ^= int(self.rng.integers(1, 256))
            return bytes(buf)
        if mode == 1 and len(payload) > 1:              # truncate the tail
            cut = int(self.rng.integers(1, len(payload)))
            return payload[:-cut]
        extra = int(self.rng.integers(1, 9))            # append garbage
        return payload + self.rng.bytes(extra)

    def transmit(self, payload: bytes) -> list[Delivery]:
        """Send one payload; returns the copies that arrive *now*."""
        self.stats.sent += 1
        if self._transmissions is not None:
            self._transmissions.inc()
        late, self._held = self._held, []
        copies = []
        if self.rng.random() < self.profile.drop_rate:
            self.stats.dropped += 1
            self._count_copy("dropped")
        else:
            copies.append(payload)
            if self.rng.random() < self.profile.duplicate_rate:
                self.stats.duplicated += 1
                self._count_copy("duplicated")
                copies.append(payload)
        out: list[Delivery] = []
        for copy in copies:
            corrupted = self.rng.random() < self.profile.corrupt_rate
            if corrupted:
                self.stats.corrupted += 1
                self._count_copy("corrupted")
                copy = self._corrupt(copy)
            delivery = Delivery(payload=copy, latency_s=self._latency(),
                                corrupted=corrupted)
            if self.rng.random() < self.profile.reorder_rate:
                self.stats.reordered += 1
                self._count_copy("reordered")
                self._held.append(delivery)
            else:
                self.stats.delivered += 1
                self._count_copy("delivered")
                out.append(delivery)
        # Copies held back by *earlier* transmissions arrive now, after
        # this transmission's own copies: a later send overtook them.
        for d in late:
            self.stats.delivered += 1
            self._count_copy("delivered")
            out.append(Delivery(payload=d.payload,
                                latency_s=self._latency(d.latency_s),
                                corrupted=d.corrupted, delayed=True))
        return out

    def flush(self) -> list[Delivery]:
        """Deliver every copy still held back by reordering."""
        late, self._held = self._held, []
        out = []
        for d in late:
            self.stats.delivered += 1
            self._count_copy("delivered")
            out.append(Delivery(payload=d.payload,
                                latency_s=self._latency(d.latency_s),
                                corrupted=d.corrupted, delayed=True))
        return out


@dataclass(frozen=True)
class RetryPolicy:
    """Per-upload retry budget with capped exponential backoff."""

    max_attempts: int = 10
    timeout_s: float = 2.0
    base_backoff_s: float = 0.5
    backoff_factor: float = 2.0
    backoff_cap_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if min(self.timeout_s, self.base_backoff_s, self.backoff_cap_s) < 0:
            raise ValueError("timeouts and backoffs must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1")

    def backoff_s(self, attempt: int) -> float:
        """Wait before retry number ``attempt`` (0-based), capped."""
        return min(self.backoff_cap_s,
                   self.base_backoff_s * self.backoff_factor ** attempt)


@dataclass
class UploaderStats:
    """Aggregate counters across every upload through one uploader."""

    uploads: int = 0
    accepted: int = 0
    gave_up: int = 0
    attempts: int = 0
    retries: int = 0
    acks_rejected: int = 0
    acks_shed: int = 0
    waited_s: float = 0.0


@dataclass(frozen=True)
class UploadReceipt:
    """Outcome of one :meth:`RetryingUploader.upload` call."""

    accepted: bool
    attempts: int
    waited_s: float
    last_status: str | None = None


class RetryingUploader:
    """At-least-once bundle delivery over a :class:`FaultyChannel`.

    ``deliver`` is the server's ingest entry point (e.g.
    ``CloudServer.ingest_bundle``); it must return an outcome whose
    ``status`` reads ``"accepted"``, ``"duplicate"``, ``"rejected"``
    or ``"shed"`` (an Enum with those values works too).  An attempt
    counts as acknowledged when *any* delivered copy comes back
    accepted or duplicate; otherwise -- including a ``shed`` ack from
    server back-pressure -- the uploader waits out the (virtual)
    timeout plus backoff and retransmits the identical bytes.  ``on_retry``
    fires once per retransmission (the server facade uses it to count
    retried bundles in :class:`~repro.core.ingest.ServerStats`).
    """

    def __init__(self, channel: FaultyChannel,
                 deliver: Callable[[bytes], Any],
                 policy: RetryPolicy | None = None,
                 on_retry: Callable[[], None] | None = None,
                 registry: MetricsRegistry | None = None,
                 journal: EventJournal | None = None) -> None:
        self.channel = channel
        self.deliver = deliver
        self.policy = policy or RetryPolicy()
        self.on_retry = on_retry
        self.stats = UploaderStats()
        self._journal = journal
        self._attempts: Counter | None = None
        self._retries: Counter | None = None
        self._outcomes: Counter | None = None
        if registry is not None:
            self._attempts = registry.counter(
                "upload.attempts", "Transmissions attempted by the uploader")
            self._retries = registry.counter(
                "upload.retries", "Retransmissions after unacknowledged sends")
            self._outcomes = registry.counter(
                "upload.outcomes", "Finished uploads by outcome",
                labelnames=("outcome",))

    @staticmethod
    def _status_name(outcome: Any) -> str | None:
        status = getattr(outcome, "status", outcome)
        value = getattr(status, "value", status)
        return value if isinstance(value, str) else None

    def upload(self, payload: bytes) -> UploadReceipt:
        """Deliver one bundle, retrying until acknowledged or exhausted."""
        policy = self.policy
        self.stats.uploads += 1
        waited = 0.0
        last_status: str | None = None
        for attempt in range(policy.max_attempts):
            if attempt:
                self.stats.retries += 1
                if self._retries is not None:
                    self._retries.inc()
                if self._journal is not None:
                    self._journal.emit("upload.retry", attempt=attempt)
                if self.on_retry is not None:
                    self.on_retry()
            self.stats.attempts += 1
            if self._attempts is not None:
                self._attempts.inc()
            acked = False
            for delivery in self.channel.transmit(payload):
                status = self._status_name(self.deliver(delivery.payload))
                last_status = status or last_status
                if status in _ACK_OK:
                    acked = True
                elif status == "rejected":
                    self.stats.acks_rejected += 1
                elif status == "shed":
                    # Back-pressure: the server refused admission but
                    # will take the identical bytes later -- exactly
                    # the retry-after-backoff case, so no ack.
                    self.stats.acks_shed += 1
                waited = max(waited, delivery.latency_s)
            if acked:
                self.stats.accepted += 1
                self.stats.waited_s += waited
                if self._outcomes is not None:
                    self._outcomes.labels(outcome="accepted").inc()
                return UploadReceipt(accepted=True, attempts=attempt + 1,
                                     waited_s=waited, last_status=last_status)
            waited += policy.timeout_s + policy.backoff_s(attempt)
        self.stats.gave_up += 1
        self.stats.waited_s += waited
        if self._outcomes is not None:
            self._outcomes.labels(outcome="gave_up").inc()
        if self._journal is not None:
            self._journal.emit("upload.gave_up",
                               attempts=policy.max_attempts)
        return UploadReceipt(accepted=False, attempts=policy.max_attempts,
                             waited_s=waited, last_status=last_status)
