"""Section V-A design ablation -- why fold time into the R-tree?

Three index designs answering the same queries over the same 30k
records:

* **3-D R-tree** (the paper): space and time pruned together;
* **spatial-first**: 2-D R-tree + vectorised time post-filter;
* **temporal-first**: centred interval tree + spatial post-filter.

Measured across query shapes -- narrow-window (the usual incident
query), wide-window (a whole day), and large-area -- because the
winner depends on which axis is selective, which is exactly the
trade-off the combined 3-D design avoids having to guess.
"""

import time

import numpy as np

from repro.core.index import FoVIndex
from repro.core.query import Query
from repro.eval.harness import Table
from repro.spatial.hybrid import SpatialFirstIndex, TemporalFirstIndex
from repro.traces.dataset import random_representative_fovs

N = 30_000
N_QUERIES = 100


def _mean_ms(index, queries) -> float:
    t0 = time.perf_counter()
    for q in queries:
        index.range_search(q)
    return (time.perf_counter() - t0) / len(queries) * 1e3


def test_index_design_race(benchmark, show):
    rng = np.random.default_rng(2015)
    reps = random_representative_fovs(N, rng)
    paper = FoVIndex.bulk(reps)
    paper.rtree()       # STR-load the paper's tree before any timing
    spatial = SpatialFirstIndex(reps)
    temporal = TemporalFirstIndex(reps)

    shapes = {
        # (time half-window s, radius m)
        "narrow window, small area": (300.0, 150.0),
        "wide window, small area": (43_200.0, 150.0),
        "narrow window, large area": (300.0, 2500.0),
    }
    table = Table(f"Ablation -- index design ({N} records, ms/query)",
                  ["query shape", "3-D r-tree (paper)", "spatial-first",
                   "temporal-first"])
    worst_ratio = {"paper": 0.0, "spatial": 0.0, "temporal": 0.0}
    qrng = np.random.default_rng(1)
    for name, (half_window, radius) in shapes.items():
        queries = []
        for _ in range(N_QUERIES):
            anchor = reps[int(qrng.integers(N))]
            queries.append(Query(
                t_start=max(0.0, anchor.t_start - half_window),
                t_end=anchor.t_end + half_window,
                center=anchor.point, radius=radius))
        # Correctness first: all designs must agree.
        for q in queries[:3]:
            want = sorted(f.key() for f in paper.range_search(q))
            assert sorted(f.key() for f in spatial.range_search(q)) == want
            assert sorted(f.key() for f in temporal.range_search(q)) == want
        t_paper = _mean_ms(paper, queries)
        t_spatial = _mean_ms(spatial, queries)
        t_temporal = _mean_ms(temporal, queries)
        table.add(name, round(t_paper, 3), round(t_spatial, 3),
                  round(t_temporal, 3))
        best = min(t_paper, t_spatial, t_temporal)
        worst_ratio["paper"] = max(worst_ratio["paper"], t_paper / best)
        worst_ratio["spatial"] = max(worst_ratio["spatial"], t_spatial / best)
        worst_ratio["temporal"] = max(worst_ratio["temporal"],
                                      t_temporal / best)
    show(table)
    show(f"worst-case slowdown vs per-shape best: "
         f"paper {worst_ratio['paper']:.1f}x, "
         f"spatial-first {worst_ratio['spatial']:.1f}x, "
         f"temporal-first {worst_ratio['temporal']:.1f}x")

    # The argument for folding time into the tree is robustness: every
    # design has some query shape where another wins, but the combined
    # 3-D tree's worst case is far milder than either single-axis
    # design's blind spot (spatial-first on large areas, temporal-first
    # on wide windows).
    assert worst_ratio["paper"] * 2.0 < worst_ratio["spatial"]
    assert worst_ratio["paper"] * 2.0 < worst_ratio["temporal"]

    anchor = reps[42]
    q = Query(t_start=anchor.t_start - 300.0, t_end=anchor.t_end + 300.0,
              center=anchor.point, radius=150.0)
    benchmark(lambda: paper.range_search(q))
