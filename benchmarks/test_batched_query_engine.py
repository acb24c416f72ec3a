"""Batched query engine -- packed SoA snapshot vs the oracle's loop.

The ROADMAP's serving story: a production deployment answers bursts of
queries over a largely static index, so the hot path should be a few
vectorised array passes, not per-query Python tree walks.  This
benchmark pins the three claims of the packed engine on the paper's
Fig. 6 workload (50k citywide records, 256 queries):

* **parity** -- the packed engine returns exactly the oracle's
  (:func:`repro.core.oracle.answer`, the paper's R-tree path) rankings
  and funnel counters;
* **throughput** -- the batched ``execute_many`` answers the 256-query
  batch at >= 10x the oracle's sequential loop.  A warm single packed query
  (the funnel's n = 1 case, min-of-passes on a bare engine) is printed
  but not gated: no server constructs a bare engine,
  and the latency servers do pay is the perf ledger's ``op_p50_ms`` on
  ``city_read`` (``BENCHMARK.json``);
* **caching** -- repeated queries served from the epoch-tagged LRU
  cache cost (almost) nothing;
* **latency shape** -- per-query p50/p99 from the span tracer, so the
  printed numbers show tail regressions a mean would hide.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np
import pytest

from repro.core.index import FoVIndex
from repro.core.oracle import answer
from repro.core.query import Query
from repro.core.retrieval import RetrievalEngine
from repro.core.server import CloudServer
from repro.eval.harness import Table
from repro.obs import Observability
from repro.traces.dataset import random_representative_fovs

N_RECORDS = 50_000
N_QUERIES = 256
LATENCY_PASSES = 7


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
    index = FoVIndex.bulk(reps)
    queries = _queries(np.random.default_rng(6565), reps, N_QUERIES)
    return index, queries


def _ranking(result):
    return [(r.fov.key(), r.distance, r.covers) for r in result.ranked]


def test_packed_parity_and_throughput(workload, camera, show, benchmark):
    index, queries = workload
    oracle = partial(answer, index, camera=camera)            # R-tree path
    packed = RetrievalEngine(index, camera)

    t0 = time.perf_counter()
    index.packed_view()                                           # build once
    pack_s = time.perf_counter() - t0
    # One query derives the grid's sector rows for this camera, so no
    # timed query below pays for them.
    packed.execute(queries[0])

    # Parity gate: timing means nothing unless results are identical.
    seq = [oracle(q) for q in queries]
    for q, want in zip(queries, seq):
        got = packed.execute(q)
        assert got.candidates == want.candidates
        assert got.after_filter == want.after_filter
        assert _ranking(got) == _ranking(want)

    # Warm both paths so the gate compares steady state, not first-call
    # allocator noise.
    for q in queries[:16]:
        oracle(q)
    packed.execute_many(queries[:16])

    t0 = time.perf_counter()
    for q in queries:
        oracle(q)
    t_seq = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = packed.execute_many(queries)
    t_batch = time.perf_counter() - t0
    for got, want in zip(batched, seq):
        assert _ranking(got) == _ranking(want)

    # Single-query latency, both engines, warm caches.  Min-of-passes:
    # the number describes the engine, not whatever else the machine
    # was doing during one particular pass.
    def _min_lat(execute):
        best = float("inf")
        for _ in range(LATENCY_PASSES):
            t0 = time.perf_counter()
            for q in queries:
                execute(q)
            best = min(best, (time.perf_counter() - t0) / len(queries))
        return best

    lat_oracle = _min_lat(oracle)
    lat_pack = _min_lat(packed.execute)

    speedup = t_seq / t_batch
    table = Table(
        f"Batched query engine -- {N_RECORDS} records, {N_QUERIES} queries",
        ["path", "batch (ms)", "per-query (us)"])
    table.add("oracle loop (R-tree path)", round(t_seq * 1e3, 2),
              round(t_seq / N_QUERIES * 1e6, 1))
    table.add("packed execute_many (batched)", round(t_batch * 1e3, 2),
              round(t_batch / N_QUERIES * 1e6, 1))
    table.add("oracle x1", "", round(lat_oracle * 1e6, 1))
    table.add("packed execute x1", "", round(lat_pack * 1e6, 1))
    show(table)
    show(f"batched speedup: {speedup:.1f}x; snapshot pack: {pack_s * 1e3:.1f} ms")

    assert speedup >= 10.0, (
        f"batched speedup {speedup:.1f}x below the 10x gate")

    benchmark(lambda: packed.execute_many(queries))


def test_cache_hit_speedup(workload, camera, show):
    index, queries = workload
    server = CloudServer(camera, index=index, cache_size=4 * N_QUERIES)

    t0 = time.perf_counter()
    cold = server.query_many(queries)
    t_cold = time.perf_counter() - t0
    assert server.stats.cache_misses == N_QUERIES

    t0 = time.perf_counter()
    warm = server.query_many(queries)
    t_warm = time.perf_counter() - t0
    assert server.stats.cache_hits == N_QUERIES

    for a, b in zip(cold, warm):
        assert _ranking(a) == _ranking(b)

    speedup = t_cold / t_warm
    show(f"cache: cold {t_cold * 1e3:.2f} ms, warm {t_warm * 1e3:.2f} ms "
         f"({speedup:.0f}x)")
    assert speedup > 2.0


def test_span_latency_percentiles(workload, camera, show):
    """Per-query p50/p99 from the span tracer, printed.

    The mean the throughput test reports hides tail behaviour (a GC
    pause, a cold cell, a pathological query); the tracer's
    ``server.query`` spans give the whole distribution.
    """
    index, queries = workload
    obs = Observability.tracing(trace_capacity=N_QUERIES)
    server = CloudServer(camera, index=index, cache_size=0, obs=obs)
    server.query_many(queries[:16])                 # warm kernels + view
    tracer = obs.span_tracer
    assert tracer is not None
    tracer.clear()
    for q in queries:
        server.query(q)
    lat = sorted(t.duration_s for t in tracer.traces()
                 if t.name == "server.query")
    assert len(lat) == N_QUERIES
    p50 = float(np.percentile(lat, 50))
    p99 = float(np.percentile(lat, 99))
    show(f"span latency ({N_QUERIES} queries, {N_RECORDS} records): "
         f"p50 {p50 * 1e6:.1f} us, p99 {p99 * 1e6:.1f} us")
    assert p50 < p99 and p99 < 1.0          # sanity: a tail, not a hang
