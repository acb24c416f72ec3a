"""Observability overhead gate -- instrumented vs bare serving path.

The whole point of defaulting every ``CloudServer`` to a live metrics
registry + event journal (and offering span tracing on top) is that the
instruments are cheap enough to leave on.  This benchmark pins that
claim on the paper's Fig. 6 workload (50k citywide records, 256-query
batch, packed engine):

* **counting gate** -- the default-instrumented server (metrics +
  journal, tracing off) must sustain >= 0.9x the throughput of a
  server with the observability surface effectively silenced;
* **tracing cost** -- a fully traced run (spans + the
  ``span.duration_s`` histogram) is measured and reported, but not
  gated: tracing is opt-in diagnostics, not the default path;
* **parity** -- instrumented and bare servers return identical
  rankings, so the gate compares the same work.

CI runs this file in the benchmark-smoke job.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.camera import CameraModel
from repro.core.index import FoVIndex
from repro.core.query import Query
from repro.core.retrieval import RetrievalEngine
from repro.core.server import CloudServer
from repro.eval.harness import Table
from repro.obs import Observability
from repro.traces.dataset import random_representative_fovs

N_RECORDS = 50_000
N_QUERIES = 256
OVERHEAD_GATE = 0.9     # instrumented throughput >= 0.9x uninstrumented


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
    # Build the snapshot once, and with one query the grid's sector rows
    # for the ``camera`` fixture's (alpha, R), the default camera's.
    RetrievalEngine(index, CameraModel(), engine="packed").execute(queries[0])
    return index, queries


def _ranking(result):
    return [(r.fov.key(), r.distance, r.covers) for r in result.ranked]


def _best_of(fn, rounds=3):
    """Min-of-N wall time: robust to scheduler noise on shared runners."""
    best = float("inf")
    out = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_instrumented_throughput_gate(workload, camera, show, benchmark):
    index, queries = workload

    # Bare baseline: the engine alone, no registry, no journal, no
    # cache -- the raw vectorised funnel.
    bare = RetrievalEngine(index, camera, engine="packed")
    # Default instrumentation: what every CloudServer() now carries.
    counted = CloudServer(camera, index=index, engine="packed",
                          cache_size=0)
    # Full tracing: spans on every stage + duration histograms.
    traced = CloudServer(camera, index=index, engine="packed",
                         cache_size=0, obs=Observability.tracing())

    # Warm every path (snapshot reuse, allocator steady state).
    bare.execute_many(queries[:16])
    counted.query_many(queries[:16])
    traced.query_many(queries[:16])

    t_bare, want = _best_of(lambda: bare.execute_many(queries))
    t_counted, got = _best_of(lambda: counted.query_many(queries))
    t_traced, got_traced = _best_of(lambda: traced.query_many(queries))

    # Parity gate: all three paths answer identically.
    for a, b, c in zip(got, want, got_traced):
        assert _ranking(a) == _ranking(b) == _ranking(c)

    ratio_counted = t_bare / t_counted
    ratio_traced = t_bare / t_traced
    table = Table(
        f"Observability overhead -- {N_RECORDS} records, "
        f"{N_QUERIES}-query batch",
        ["path", "batch (ms)", "vs bare"])
    table.add("bare engine (no instruments)", round(t_bare * 1e3, 2), "1.00x")
    table.add("metrics + journal (default)", round(t_counted * 1e3, 2),
              f"{ratio_counted:.2f}x")
    table.add("spans + histograms (--trace)", round(t_traced * 1e3, 2),
              f"{ratio_traced:.2f}x")
    show(table)

    # The traced server actually recorded the work it did.
    assert traced.stats.queries_served >= N_QUERIES
    tracer = traced.obs.span_tracer
    assert tracer is not None and tracer.last_trace() is not None
    spans = traced.obs.registry.get("span.duration_s")
    assert spans is not None
    assert spans.labels(span="server.query_many").count > 0

    assert ratio_counted >= OVERHEAD_GATE, (
        f"instrumented batched throughput {ratio_counted:.2f}x of bare "
        f"is below the {OVERHEAD_GATE}x gate")

    benchmark(lambda: counted.query_many(queries))


def test_single_query_overhead(workload, camera, show):
    index, queries = workload
    bare = RetrievalEngine(index, camera, engine="packed")
    counted = CloudServer(camera, index=index, engine="packed",
                          cache_size=0)
    sample = queries[:64]
    for q in sample:            # warm
        bare.execute(q)
        counted.query(q)

    def loop_bare():
        for q in sample:
            bare.execute(q)

    def loop_counted():
        for q in sample:
            counted.query(q)

    t_bare, _ = _best_of(loop_bare)
    t_counted, _ = _best_of(loop_counted)
    per_query_ns = (t_counted - t_bare) / len(sample) * 1e9
    show(f"single-query instrument overhead: "
         f"{max(0.0, per_query_ns):.0f} ns/query "
         f"(bare {t_bare / len(sample) * 1e6:.1f} us, "
         f"counted {t_counted / len(sample) * 1e6:.1f} us)")
    # Sanity, not a tight gate: the server layer (cache bookkeeping,
    # counters, journal append, descent tally) must stay a bounded
    # absolute cost per query.  Bare and counted run the same funnel --
    # a single packed query is its n = 1 case with or without
    # instruments -- so their difference is the server layer alone,
    # not two algorithms' worth.
    overhead_s = max(0.0, (t_counted - t_bare) / len(sample))
    assert overhead_s < 300e-6, (
        f"server-layer overhead {overhead_s * 1e6:.0f} us/query over the "
        f"300 us sanity bound")
