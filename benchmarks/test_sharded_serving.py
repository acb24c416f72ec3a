"""Geo-sharded serving tier -- scale-out without giving up bit-parity.

The ROADMAP's production story splits the city across shards; this
benchmark pins the tier's three claims on a 100k-record / 256-query
workload (2x the Fig. 6 city, same query mix):

* **parity** -- the sharded router's scatter-gather merge returns
  exactly the single packed server's rankings, scores and funnel
  counters;
* **throughput** -- the *persistent* worker pool answers the batch at
  >= 1.5x the seed sequential path once warm (the old per-call pool
  was 0.8x: it re-pickled the snapshot every batch);
* **incrementality** -- an ingest between batches costs the pool one
  shared-memory republish, not a worker restart;
* **zero-copy** -- workers attach the flat ``FOVPACK1`` segment
  without copying records, so attach time is independent of record
  count (asserted 2k vs 100k).

Numbers land in ``BENCH_sharded_serving.json`` at the repo root.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.index import FoVIndex
from repro.core.query import Query
from repro.core.retrieval import RetrievalEngine
from repro.core.server import CloudServer
from repro.eval.harness import Table
from repro.obs import Observability
from repro.shard import ShardedCloudServer
from repro.shard.shm import SharedSnapshot, attach
from repro.traces.dataset import CITY_ORIGIN, random_representative_fovs

N_RECORDS = 100_000
N_QUERIES = 256
N_SHARDS = 4


def _queries(rng, reps, n):
    out = []
    for _ in range(n):
        anchor = reps[int(rng.integers(len(reps)))]
        t0 = max(0.0, anchor.t_start - 300.0)
        out.append(Query(t_start=t0, t_end=anchor.t_end + 300.0,
                         center=anchor.point,
                         radius=float(rng.uniform(100.0, 400.0))))
    return out


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(2015)
    reps = random_representative_fovs(N_RECORDS, rng)
    queries = _queries(np.random.default_rng(6565), reps, N_QUERIES)
    return reps, queries


def _ranking(result):
    return [(r.fov.key(), r.distance, r.covers, r.score)
            for r in result.ranked]


def _assert_parity(got, want):
    for a, b in zip(got, want):
        assert a.candidates == b.candidates
        assert a.after_filter == b.after_filter
        assert _ranking(a) == _ranking(b)


def test_router_parity_and_pruning(workload, camera, show, bench_export):
    """Scatter-gather over the fleet == one server holding everything."""
    reps, queries = workload
    single = CloudServer(camera, index=FoVIndex.bulk(reps), engine="packed",
                         cache_size=0)
    router = ShardedCloudServer(camera, n_shards=N_SHARDS, origin=CITY_ORIGIN,
                                cache_size=0)
    t0 = time.perf_counter()
    router.ingest(reps)
    t_ingest = time.perf_counter() - t0

    want = single.query_many(queries)
    t0 = time.perf_counter()
    got = router.query_many(queries)
    t_router = time.perf_counter() - t0
    _assert_parity(got, want)

    mean_fanout = router._fanout.sum / router._fanout.count
    # Exact cell cover: a 200-800 m box on 500 m cells touches ~4.1
    # cells, which hash to 4 * (1 - 0.75 ** 4.1) ~= 2.8 distinct shards
    # of 4 (measured 2.74).  A cover padded by a ring of neighbour cells
    # reads 3.92 here, so this fails if the pad ever comes back.
    assert mean_fanout <= 3.0
    show(f"router: {t_router * 1e3:.1f} ms for {N_QUERIES} queries, "
         f"mean fan-out {mean_fanout:.2f}/{N_SHARDS} shards "
         f"(ingest+route {t_ingest:.2f} s)")
    bench_export("sharded_serving", {
        "n_shards": N_SHARDS,
        "router_ingest_s": t_ingest,
        "router_batch_s": t_router,
        "router_mean_fanout": mean_fanout,
    }, records=N_RECORDS, queries=N_QUERIES, engine="packed")


def test_persistent_pool_speedup_and_delta_sync(workload, camera, show,
                                                bench_export):
    """The tentpole perf gate: warm pool >= 1.5x the seed sequential
    path on 100k records, and an epoch bump costs one shared-memory
    republish, not a worker restart."""
    reps, queries = workload
    index = FoVIndex.bulk(reps)
    dynamic = RetrievalEngine(index, camera)                      # seed path
    packed = RetrievalEngine(index, camera, engine="packed")
    want = packed.execute_many(queries)

    # Warm-up: worker spawn plus the first shared-memory publish
    # happen here, outside the timed region.
    dynamic.execute_many(queries[:16])
    packed.execute_many(queries[:16], shards=N_SHARDS)
    assert packed._pool is not None and packed._pool.restarts == 1

    t0 = time.perf_counter()
    dynamic.execute_many(queries)
    t_seq = time.perf_counter() - t0

    t0 = time.perf_counter()
    got = packed.execute_many(queries, shards=N_SHARDS)
    t_shard = time.perf_counter() - t0
    _assert_parity(got, want)
    assert packed._pool.restarts == 1      # still the warm-up workers

    # Ingest between batches: the pool republishes one fresh segment
    # that workers re-attach zero-copy -- no worker restart, no
    # per-worker copy of the 100k records.
    extra = random_representative_fovs(64, np.random.default_rng(99))
    index.insert_many(extra)
    fresh_want = RetrievalEngine(index, camera,
                                 engine="packed").execute_many(queries)
    t0 = time.perf_counter()
    got = packed.execute_many(queries, shards=N_SHARDS)
    t_delta = time.perf_counter() - t0
    _assert_parity(got, fresh_want)
    assert packed._pool.restarts == 1      # no restart...
    assert packed._pool.delta_batches == 1  # ...one incremental sync
    restarts = packed._pool.restarts
    packed.close()

    speedup = t_seq / t_shard
    table = Table(
        f"Sharded serving -- {N_RECORDS} records, {N_QUERIES} queries",
        ["path", "batch (ms)", "per-query (us)"])
    table.add("dynamic execute_many (seed)", round(t_seq * 1e3, 2),
              round(t_seq / N_QUERIES * 1e6, 1))
    table.add("persistent pool (warm)", round(t_shard * 1e3, 2),
              round(t_shard / N_QUERIES * 1e6, 1))
    table.add("persistent pool (delta sync)", round(t_delta * 1e3, 2),
              round(t_delta / N_QUERIES * 1e6, 1))
    show(table)
    show(f"sharded speedup: {speedup:.1f}x (gate: 1.5x)")

    bench_export("sharded_serving", {
        "seq_batch_s": t_seq,
        "sharded_batch_s": t_shard,
        "sharded_vs_seq_x": speedup,
        "delta_sync_batch_s": t_delta,
        "pool_restarts": restarts,
    })
    assert speedup >= 1.5, (
        f"sharded serving {speedup:.2f}x below the 1.5x acceptance gate")


def _min_attach_s(view, passes=20):
    """Best-of-passes time to attach a published snapshot zero-copy."""
    shared = SharedSnapshot.publish(view)
    best = float("inf")
    try:
        for _ in range(passes):
            t0 = time.perf_counter()
            attached, shm = attach(shared.name)
            dt = time.perf_counter() - t0
            assert len(attached) == len(view)
            attached = None
            shm.close()
            best = min(best, dt)
    finally:
        shared.unlink()
    return best


def test_worker_attach_is_o1_in_record_count(workload, show, bench_export):
    """Zero-copy means attach cost must not scale with the index.

    The old pool pickled every record into every worker (O(n) per
    worker, ~seconds at 100k); attaching the flat shared segment is a
    header parse plus eleven ``np.frombuffer`` views.  50x more records
    must not buy a 10x slower attach.
    """
    reps, _ = workload
    small_view = FoVIndex.bulk(reps[:2_000]).packed_view()
    big_view = FoVIndex.bulk(reps).packed_view()

    t_small = _min_attach_s(small_view)
    t_big = _min_attach_s(big_view)
    ratio = t_big / t_small
    show(f"shared-segment attach: {t_small * 1e6:.0f} us at 2k records, "
         f"{t_big * 1e6:.0f} us at {N_RECORDS // 1000}k ({ratio:.1f}x)")
    bench_export("sharded_serving", {
        "attach_2k_s": t_small,
        "attach_100k_s": t_big,
        "attach_ratio_100k_vs_2k": ratio,
    })
    assert ratio < 10.0, (
        f"attach scaled {ratio:.1f}x for 50x the records -- "
        f"the zero-copy path is copying")
    assert t_big < 0.005, f"attach took {t_big * 1e3:.2f} ms at 100k records"


def test_router_span_latency_percentiles(workload, camera, show,
                                         bench_export):
    """Scatter-gather per-query p50/p99 from the router's span tracer."""
    reps, queries = workload
    obs = Observability.tracing(trace_capacity=N_QUERIES)
    router = ShardedCloudServer(camera, n_shards=N_SHARDS,
                                origin=CITY_ORIGIN, cache_size=0, obs=obs)
    router.ingest(reps)
    router.query_many(queries[:16])                 # warm per-shard views
    tracer = obs.span_tracer
    assert tracer is not None
    tracer.clear()
    for q in queries:
        router.query_many([q])
    lat = sorted(t.duration_s for t in tracer.traces()
                 if t.name == "shard.query_many")
    assert len(lat) == N_QUERIES
    p50 = float(np.percentile(lat, 50))
    p99 = float(np.percentile(lat, 99))
    show(f"router span latency ({N_QUERIES} queries, {N_SHARDS} shards): "
         f"p50 {p50 * 1e6:.1f} us, p99 {p99 * 1e6:.1f} us")
    bench_export("sharded_serving", {
        "span_query_p50_s": p50,
        "span_query_p99_s": p99,
    })
    assert p50 < p99 and p99 < 1.0          # sanity: a tail, not a hang