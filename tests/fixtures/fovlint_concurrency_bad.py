# fovlint: module=repro.shard.conc_fixture
"""Seeded-violation fixture for the concurrency rules (RF009-RF013).

One small class per rule, each reproducing the bug shape the rule
exists for; the acceptance test pins that every rule id fires on this
file.  The module pragma places the file inside ``repro.shard`` so the
whole-program rules apply while the ``repro.core``-scoped per-file
rules (RF003, RF005) stay out of the way.

This module is never imported -- it is linted as text only.
"""

import threading
import time


class RacyCounter:
    """RF009: `_items` is written under `_lock` but also touched bare."""

    def __init__(self):
        self._lock = threading.Lock()
        self._items = []
        self._high_water = 0

    def record(self, item):
        with self._lock:
            self._items.append(item)
            self._high_water = max(self._high_water, len(self._items))

    def forget(self, item):
        self._items.remove(item)              # unguarded mutate: RF009

    def reset(self):
        self._high_water = 0                  # unguarded rebind: RF009

    def snapshot(self):
        return list(self._items)              # unguarded read: RF009


class CrossedLocks:
    """RF010: `_a` before `_b` in one method, `_b` before `_a` in another."""

    def __init__(self, n):
        self._a = threading.Lock()
        self._b = threading.Lock()
        self._shard_locks = [threading.Lock() for _ in range(n)]

    def forward(self):
        with self._a:
            with self._b:                     # a -> b edge
                pass

    def backward(self):
        with self._b:
            with self._a:                     # b -> a edge: cycle, RF010
                pass

    def migrate(self, i, j):
        with self._shard_locks[i]:
            with self._shard_locks[j]:        # intra-family nest: RF010
                pass


class ForgetfulIndex:
    """RF011: storage mutations with missing / per-record epoch bumps."""

    def __init__(self):
        self._epoch = 0
        self._records = []

    def insert(self, rec):
        self._records.append(rec)             # no bump on any path: RF011

    def insert_many(self, recs):
        for rec in recs:
            self._records.append(rec)
            self._epoch += 1                  # bump per record: RF011

    def clear(self):
        self._records.clear()
        self._epoch += 1                      # fine: one bump per batch


class SleepyServer:
    """RF012: blocking calls inside the guarded region."""

    def __init__(self):
        self._lock = threading.Lock()

    def throttle(self):
        with self._lock:
            time.sleep(0.5)                   # blocking under lock: RF012


def typo_metrics(registry):
    """RF013: unknown family name and kind drift against the catalog."""
    miss = registry.counter("cache.hit")      # typo'd family: RF013
    drift = registry.gauge("cache.hits")      # counter bound as gauge: RF013
    return miss, drift
