"""Tagged LRU cache for query results.

Crowd-sourced query traffic is heavily repetitive -- an incident draws
many inquirers to the same spot and time window -- while the index
mutates in bursts (upload bundles, retention eviction).  The cache
therefore tags every entry with the state it was answered from (the
fleet's publication sequence number, which every write advances), and
drops an entry whose tag no longer matches on sight, so invalidation
is O(1) bookkeeping on the write path instead of a scan of cached keys.
Capacity is bounded with least-recently-used eviction.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Sequence

from repro.core.query import Query
from repro.obs.journal import EventJournal
from repro.obs.metrics import Counter, MetricsRegistry

__all__ = ["QueryResultCache", "query_cache_key", "read_through"]


def query_cache_key(query: Query) -> tuple[float, float, float, float, float, int]:
    """Hashable identity of a query for result caching.

    Two queries with equal fields are the same request; ``top_n`` is
    part of the key because it truncates the stored ranking.
    """
    return (query.t_start, query.t_end, query.center.lat, query.center.lng,
            query.radius, query.top_n)


class QueryResultCache:
    """Bounded LRU mapping ``key -> (tag, value)``.

    ``get`` returns the cached value only when the caller's current tag
    -- any hashable token, compared by equality -- matches the tag the
    value was computed under; a stale entry is evicted on sight.  The
    cache never recomputes -- it only stores what the owner puts in --
    so a hit is exactly the object a cold miss would have produced.

    The cache owns its traffic accounting: ``cache.hits`` /
    ``cache.misses`` / ``cache.stale_drops`` / ``cache.evictions``
    counters on the given registry (a private one when none is given).
    A stale drop *is* a miss -- ``misses`` includes it -- so the owner's
    hit/miss tallies reconcile exactly with the cache's own.  LRU
    evictions are also journaled (``cache.evicted``) when a journal is
    attached.

    ``get`` / ``put`` / ``clear`` run under the cache's own lock.
    """

    __slots__ = ("_capacity", "_entries", "_journal", "_lock",
                 "_hits", "_misses", "_stale", "_evictions")

    def __init__(self, capacity: int = 1024,
                 registry: MetricsRegistry | None = None,
                 journal: EventJournal | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[Hashable, tuple[Hashable, Any]] = OrderedDict()
        self._journal = journal
        self._lock = threading.Lock()
        reg = registry if registry is not None else MetricsRegistry()
        self._hits = reg.counter(
            "cache.hits", "Query-cache lookups answered from cache")
        self._misses = reg.counter(
            "cache.misses",
            "Query-cache lookups that fell through (incl. stale drops)")
        self._stale = reg.counter(
            "cache.stale_drops",
            "Cache entries dropped on sight for a tag mismatch")
        self._evictions = reg.counter(
            "cache.evictions", "Cache entries evicted by LRU overflow")

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hits(self) -> int:
        """Lookups served from cache (lifetime)."""
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        """Lookups that fell through, including stale drops (lifetime)."""
        return int(self._misses.value)

    @property
    def stale_drops(self) -> int:
        """Entries dropped on sight for a tag mismatch (lifetime)."""
        return int(self._stale.value)

    @property
    def evictions(self) -> int:
        """Entries evicted by LRU capacity pressure (lifetime)."""
        return int(self._evictions.value)

    def get(self, key: Hashable, tag: Hashable) -> Any | None:
        """The cached value, or None on a miss or a tag mismatch."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == tag:
                self._entries.move_to_end(key)
                self._hits.inc()
                return entry[1]
            if entry is not None:
                del self._entries[key]
                self._stale.inc()
            self._misses.inc()
            return None

    def put(self, key: Hashable, tag: Hashable, value: Any) -> None:
        """Store a value computed under ``tag``; evicts LRU overflow."""
        with self._lock:
            self._entries[key] = (tag, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions.inc()
                if self._journal is not None:
                    self._journal.emit("cache.evicted",
                                       capacity=self._capacity)

    def clear(self) -> None:
        """Drop every cached entry (e.g. on index replacement)."""
        with self._lock:
            self._entries.clear()


def read_through(cache: QueryResultCache | None, keys: Sequence[Hashable],
                 tag: Hashable,
                 compute: Callable[[list[int]], Sequence[Any]],
                 hits: Counter, misses: Counter) -> list[Any]:
    """One value per key: cached where possible, computed otherwise.

    ``compute(missed)`` gets the positions in ``keys`` that fell
    through and returns one value per position, computed from the one
    state that ``tag`` names -- the router passes its publication's
    sequence number -- so every computed value is stored under ``tag``.
    ``hits`` / ``misses`` are the owner's tallies; without a cache
    every key is computed and neither is touched.
    """
    if cache is None:
        return list(compute(list(range(len(keys)))))
    results = [cache.get(key, tag) for key in keys]
    missed = [i for i, cached in enumerate(results) if cached is None]
    hits.inc(len(keys) - len(missed))
    misses.inc(len(missed))
    if missed:
        for i, value in zip(missed, compute(missed)):
            results[i] = value
            cache.put(keys[i], tag, value)
    return results
