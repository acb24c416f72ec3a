"""Dead-letter store for bundles the ingest path refuses to index.

A production ingest tier never silently discards a rejected payload:
operators need the evidence to tell a buggy client from a hostile one
from a lossy link.  :class:`QuarantineStore` keeps the most recent
rejected payloads with their rejection reason, bounded in capacity so
a corruption storm cannot exhaust memory.  Aging out of the bounded
window is *explicit*, never silent: each eviction increments the
``dropped`` count (and the ``quarantine.dropped`` metric when a
registry is attached) and emits a ``quarantine.evicted`` journal
event, so ``total_quarantined == len(store) + dropped`` holds exactly
at every point -- an empty window with a zero ``dropped`` count really
does mean "no rejections", and can never be confused with a window
that wrapped.
"""

from __future__ import annotations

import hashlib
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterator

from repro.obs.journal import EventJournal
from repro.obs.metrics import MetricsRegistry

__all__ = ["QuarantinedBundle", "QuarantineStore"]


@dataclass(frozen=True)
class QuarantinedBundle:
    """One rejected payload with the evidence an operator needs."""

    seq: int
    digest: str
    reason: str
    payload: bytes


class QuarantineStore:
    """Bounded FIFO of rejected bundles plus aggregate failure counts.

    ``reasons`` survives eviction: it tallies every rejection ever
    seen, keyed by the reason string, even after the payload itself
    aged out of the bounded window.

    When a :class:`~repro.obs.journal.EventJournal` is attached, every
    quarantined payload also emits a ``quarantine.added`` event carrying
    the reason and payload digest -- and every overflow eviction a
    ``quarantine.evicted`` event naming the evicted sequence number --
    so the operator timeline interleaves rejections with the
    cache/epoch events around them.
    """

    def __init__(self, capacity: int = 256,
                 journal: EventJournal | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        if capacity < 1:
            raise ValueError("quarantine capacity must be positive")
        self.capacity = capacity
        self.reasons: Counter[str] = Counter()
        self._entries: deque[QuarantinedBundle] = deque()
        self._total = 0
        self._dropped = 0
        self._journal = journal
        self._dropped_counter = None
        if registry is not None:
            self._dropped_counter = registry.counter(
                "quarantine.dropped",
                "Quarantined payloads aged out of the bounded window")

    def add(self, payload: bytes, reason: str) -> QuarantinedBundle:
        """Quarantine one rejected payload; returns the stored entry."""
        entry = QuarantinedBundle(
            seq=self._total,
            digest=hashlib.sha256(payload).hexdigest(),
            reason=reason,
            payload=payload,
        )
        self._total += 1
        self.reasons[reason] += 1
        self._entries.append(entry)
        if self._journal is not None:
            self._journal.emit("quarantine.added", reason=reason,
                               digest=entry.digest, seq=entry.seq)
        while len(self._entries) > self.capacity:
            evicted = self._entries.popleft()
            self._dropped += 1
            if self._dropped_counter is not None:
                self._dropped_counter.inc()
            if self._journal is not None:
                self._journal.emit("quarantine.evicted", seq=evicted.seq,
                                   digest=evicted.digest)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[QuarantinedBundle]:
        return iter(self._entries)

    @property
    def total_quarantined(self) -> int:
        """Every rejection ever recorded, including aged-out entries."""
        return self._total

    @property
    def dropped(self) -> int:
        """Entries explicitly evicted from the bounded window."""
        return self._dropped
