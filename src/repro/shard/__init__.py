"""Geo-sharded serving tier (scaling the Section V index out).

The paper's R-tree over representative FoVs is a single-machine
structure; the ROADMAP's north star is serving millions of users.  This
package partitions the index by *where the cameras stood*:

* :mod:`repro.shard.partition` -- a deterministic geo-grid partitioner
  over the local-Euclidean plane (the paper's Eq. 12 coordinates);
* :mod:`repro.shard.server` -- :class:`ShardedCloudServer`, whose
  shards are each a bare ``FoVIndex``, routes ingest by
  representative-FoV cell, and answers a call's queries by one funnel
  pass over every pruned shard's hits, bit-identical to the
  single-server ranking;
* :mod:`repro.shard.persist` -- fleet save/load as one ``.fovpack``
  (``FOVPACK1``) record file per shard plus a routing manifest;
* :mod:`repro.shard.replica` -- :class:`ReplicaSet`, one warm standby
  per shard (a base ``FOVPACK1`` buffer plus tail segments of the rows
  appended since) with per-segment manifest-verified promotion after a
  primary is killed (:class:`ShardUnavailableError` is the fail-stop
  signal while a slot is empty).

Design notes, routing invariants and the one-sort parity argument live
in ``docs/SHARDING.md``.
"""

from __future__ import annotations

from repro.shard.partition import GridPartitioner
from repro.shard.persist import load_sharded_snapshot, save_sharded_snapshot
from repro.shard.replica import (ReplicaManifest, ReplicaSegment, ReplicaSet,
                                 ShardReplica)
from repro.shard.server import ShardedCloudServer, ShardUnavailableError

__all__ = [
    "GridPartitioner",
    "ReplicaManifest",
    "ReplicaSegment",
    "ReplicaSet",
    "ShardReplica",
    "ShardedCloudServer",
    "ShardUnavailableError",
    "load_sharded_snapshot",
    "save_sharded_snapshot",
]
