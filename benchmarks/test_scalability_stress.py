"""Scalability stress -- 5x beyond the paper's largest experiment.

The abstract claims the scheme "is scalable with data size"; the paper
stops at 20k records.  This bench pushes the same pipeline to 100k
segments: STR bulk build, dynamic insert tail, mixed range/k-NN query
load, and a retention sweep -- asserting the latency envelope and the
sub-linear scaling survive.
"""

import time

import numpy as np

from repro.core.index import FoVIndex
from repro.core.query import Query
from repro.eval.harness import Table, time_call
from repro.traces.dataset import random_representative_fovs

N_BULK = 90_000
N_TAIL = 10_000
N_QUERIES = 200


def test_100k_segment_stress(benchmark, show):
    rng = np.random.default_rng(2015)
    reps = random_representative_fovs(N_BULK + N_TAIL, rng,
                                      extent_m=10_000.0)

    # The R-tree is a lazily derived view of the index; rtree() forces
    # it, so both timings are of the paper's tree, not of an append.
    idx = FoVIndex.bulk(reps[:N_BULK])
    t_bulk, _ = time_call(idx.rtree)
    idx.insert_many(reps[N_BULK:])
    t_tail, tree = time_call(idx.rtree)
    assert len(tree) == N_BULK + N_TAIL

    # Mixed query load: narrow range queries + k-NN.
    anchors = [reps[int(rng.integers(len(reps)))] for _ in range(N_QUERIES)]
    lat_range = []
    for a in anchors:
        q = Query(t_start=max(0.0, a.t_start - 300.0), t_end=a.t_end + 300.0,
                  center=a.point, radius=200.0)
        t0 = time.perf_counter()
        idx.range_search(q)
        lat_range.append((time.perf_counter() - t0) * 1e3)
    lat_knn = []
    for a in anchors[:50]:
        t0 = time.perf_counter()
        idx.nearest(a.point, t=a.t_start, k=10)
        lat_knn.append((time.perf_counter() - t0) * 1e3)

    t_evict, n_evicted = time_call(lambda: idx.evict_older_than(43_200.0))

    table = Table("Stress -- 100k segments (5x the paper's largest run)",
                  ["operation", "value"])
    table.add("STR bulk build 90k (s)", round(t_bulk, 3))
    table.add("dynamic insert 10k (s)", round(t_tail, 3))
    table.add("range query p50 (ms)", round(float(np.percentile(lat_range, 50)), 3))
    table.add("range query p99 (ms)", round(float(np.percentile(lat_range, 99)), 3))
    table.add("k-NN query p50 (ms)", round(float(np.percentile(lat_knn, 50)), 3))
    table.add("evict half the horizon (s)", round(t_evict, 3))
    table.add("records evicted", n_evicted)
    show(table)

    # The paper's <100 ms envelope must hold with 5x the data.
    assert float(np.percentile(lat_range, 99)) < 100.0
    assert float(np.percentile(lat_knn, 99)) < 100.0
    assert t_bulk < 10.0
    assert n_evicted > 0.3 * len(reps)

    a = anchors[0]
    q = Query(t_start=max(0.0, a.t_start - 300.0), t_end=a.t_end + 300.0,
              center=a.point, radius=200.0)
    benchmark(lambda: idx.range_search(q))
