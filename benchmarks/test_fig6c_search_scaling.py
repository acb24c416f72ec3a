"""Fig. 6(c) -- query latency: R-tree vs naive linear search.

The paper's observation: at small data sizes the two are close; as the
dataset grows the R-tree's advantage "gradually emerges".  The
reproduction sweeps dataset sizes, issues the same random range
queries against both backends, and checks the crossover story plus the
sub-linear scaling of the R-tree.
"""

import numpy as np

from repro.core.index import FoVIndex
from repro.core.query import Query
from repro.eval.harness import Table
from repro.traces.dataset import random_representative_fovs
from repro.traces.scenarios import CITY_ORIGIN

SIZES = [1_000, 5_000, 10_000, 20_000, 50_000]
N_QUERIES = 100


def _queries(rng, reps, n):
    out = []
    for _ in range(n):
        anchor = reps[int(rng.integers(len(reps)))]
        t0 = max(0.0, anchor.t_start - 300.0)
        out.append(Query(t_start=t0, t_end=anchor.t_end + 300.0,
                         center=anchor.point,
                         radius=float(rng.uniform(100.0, 400.0))))
    return out


def _mean_query_s(index, queries):
    import time
    t0 = time.perf_counter()
    for q in queries:
        index.range_search(q)
    return (time.perf_counter() - t0) / len(queries)


def test_fig6c_rtree_vs_linear(benchmark, show):
    rng = np.random.default_rng(2015)
    reps = random_representative_fovs(SIZES[-1], rng)

    table = Table("Fig. 6(c) -- mean range-query latency",
                  ["records", "r-tree (ms)", "linear (ms)", "speedup"])
    speedups = []
    rtree_ms = []
    big_rtree = None
    big_queries = None
    for n in SIZES:
        subset = reps[:n]
        rt = FoVIndex.bulk(subset)
        rt.rtree()      # STR-load the paper's tree before any timing
        ln = FoVIndex(backend="linear")
        ln.insert_many(subset)
        queries = _queries(np.random.default_rng(n), subset, N_QUERIES)
        # Results must be identical before timing means anything.
        for q in queries[:5]:
            assert sorted(f.key() for f in rt.range_search(q)) == \
                sorted(f.key() for f in ln.range_search(q))
        t_rt = _mean_query_s(rt, queries)
        t_ln = _mean_query_s(ln, queries)
        speedups.append(t_ln / t_rt)
        rtree_ms.append(t_rt * 1e3)
        table.add(n, round(t_rt * 1e3, 4), round(t_ln * 1e3, 4),
                  round(t_ln / t_rt, 2))
        if n == SIZES[-1]:
            big_rtree, big_queries = rt, queries
    show(table)

    # The paper's shape: the R-tree advantage grows with data size and
    # is decisive at tens of thousands of records.
    assert speedups[-1] > speedups[0], "advantage must grow with size"
    assert speedups[-1] > 3.0
    # Sub-linear growth: 50x the data costs the R-tree far less than 50x.
    assert rtree_ms[-1] / rtree_ms[0] < 10.0

    it = iter(big_queries * 1000)
    benchmark(lambda: big_rtree.range_search(next(it)))
