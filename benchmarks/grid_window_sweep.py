"""Grid search cost per shard visit as the query's time window grows.

The perf ledger's ``city_read`` queries all span the whole 3 600 s
horizon, so its ``spatial.grid.search_s`` row says nothing about
windowed queries.  This script re-asks the ledger's own ``city_read``
queries -- same corpus, same fleet, same query centres and radii --
with their window narrowed to ``W`` seconds (start drawn uniformly so
the window stays inside the horizon) and times
``PackedFoVIndex.range_search_ids`` on every shard the router sends
each query to.  It is not ledger-gated: it reports, it does not assert.

Run from the repository root against any source tree::

    PYTHONPATH=src python3 benchmarks/grid_window_sweep.py
    PYTHONPATH=/path/to/other/checkout/src \
        python3 benchmarks/grid_window_sweep.py

Prints one row per window: shard visits, candidate rows returned per
visit (equal across layouts -- the grid only prunes), and the best of
``REPEATS`` passes in microseconds per visit.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.core.camera import CameraModel  # noqa: E402
from repro.core.query import Query  # noqa: E402
from repro.shard.server import ShardedCloudServer  # noqa: E402
from repro.traces.scenarios import CITY_ORIGIN  # noqa: E402

from benchmarks.perf.workloads import (HORIZON_S, N_SHARDS,  # noqa: E402
                                       RUN_SECONDS, Sizing, build_workload)

WINDOWS_S = (60.0, 300.0, 900.0, HORIZON_S)
SEED = 7
#: How many of the workload's queries are re-asked at each window.
N_QUERIES = 2000
REPEATS = 5


def main() -> int:
    workload = build_workload("city_read", SEED, Sizing.for_run(RUN_SECONDS))
    server = ShardedCloudServer(CameraModel(), n_shards=N_SHARDS,
                                origin=CITY_ORIGIN, engine="packed")
    server.ingest(list(workload.base))
    views = [shard.packed_view() for shard in server.shards]
    base = [op.arg for op in workload.ops if op.kind == "query"][:N_QUERIES]
    rng = np.random.default_rng(SEED)

    print(f"city_read seed {SEED}: {len(workload.base)} records, "
          f"{len(base)} queries, grid {views[0].grid.width} x "
          f"{views[0].grid.height} x {views[0].grid.slices} per shard")
    print(f"{'window_s':>9} {'visits':>7} {'rows/visit':>11} "
          f"{'search_us/visit':>16}")
    for window in WINDOWS_S:
        starts = rng.uniform(0.0, HORIZON_S - window, size=len(base))
        visits = []
        for q, t0 in zip(base, starts.tolist()):
            wq = Query(t_start=t0, t_end=t0 + window, center=q.center,
                       radius=q.radius, top_n=q.top_n)
            visits.extend((views[sid], wq)
                          for sid in server.partitioner.shards_for_query(wq))
        rows = sum(int(v.range_search_ids(q).size) for v, q in visits)
        best = float("inf")
        for _ in range(REPEATS):
            t = time.perf_counter()
            for v, q in visits:
                v.range_search_ids(q)
            best = min(best, time.perf_counter() - t)
        print(f"{window:>9.0f} {len(visits):>7} {rows / len(visits):>11.1f} "
              f"{best / len(visits) * 1e6:>16.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
