"""Extension ablations: k-NN queries and composite ranking.

Two extensions DESIGN.md derives from the paper's own pain points:

* Section V-B says the query radius is "hard to decide" -- a k-NN
  lookup needs no radius.  Measured: latency vs the radius sweep a
  radius-guessing client would need, plus exactness vs brute force.
* The paper ranks by distance only -- the composite ranker adds
  temporal overlap and angular centrality.  Measured: nDCG against
  geometric ground truth.
"""

import numpy as np

from repro import CameraModel, CloudServer, Query
from repro.core.index import FoVIndex
from repro.core.ranking import CompositeRanker, DistanceRanker
from repro.core.retrieval import RetrievalEngine
from repro.eval.accuracy import aggregate_metrics
from repro.eval.groundtruth import relevant_segments
from repro.eval.harness import Table, time_call
from repro.traces.dataset import CityDataset, random_representative_fovs

CAMERA = CameraModel()


def test_knn_vs_radius_sweep(benchmark, show):
    rng = np.random.default_rng(2015)
    reps = random_representative_fovs(20_000, rng)
    idx = FoVIndex.bulk(reps)
    idx.rtree()         # STR-load the tree before any timing

    # A client that must guess the radius sweeps until it has k hits.
    def radius_sweep(center, t, k):
        radius = 25.0
        for _ in range(8):
            q = Query(t_start=t - 600, t_end=t + 600, center=center,
                      radius=radius, top_n=k)
            hits = idx.range_search(q)
            if len(hits) >= k:
                return hits, radius
            radius *= 2.0
        return hits, radius

    anchors = [reps[int(rng.integers(len(reps)))] for _ in range(100)]
    t_knn, _ = time_call(lambda: [
        idx.nearest(a.point, t=a.t_start, k=10) for a in anchors])
    t_sweep, _ = time_call(lambda: [
        radius_sweep(a.point, a.t_start, 10) for a in anchors])

    # Exactness: spatial-only k-NN equals brute force.
    a = anchors[0]
    got = idx.nearest(a.point, t=a.t_start, k=10)
    want = idx.nearest_bruteforce(a.point, t=a.t_start, k=10)
    assert [r.key() for _, r in got] == [r.key() for _, r in want]

    table = Table("Ablation -- k-NN vs radius guessing (20k records, k=10)",
                  ["method", "mean per query (ms)"])
    table.add("k-NN (branch & bound)", round(t_knn / 100 * 1e3, 3))
    table.add("radius doubling sweep", round(t_sweep / 100 * 1e3, 3))
    show(table)

    it = iter(anchors * 100)
    benchmark(lambda: idx.nearest(next(it).point, t=0.0, k=10))


def test_ranker_ablation(benchmark, show):
    # Lenient filtering: under the strict centre-cover filter nearly
    # every survivor is truly relevant, so every ranker scores the same
    # -- ordering only matters when imperfect candidates reach the list.
    from repro.traces.citygrid import CityGrid
    city = CityDataset(n_providers=30, seed=44, grid=CityGrid(cols=6, rows=6))
    t0, t1 = city.time_span()
    reps = city.all_representatives()

    rankers = {
        "distance (paper)": DistanceRanker(),
        "composite": CompositeRanker(),
        "composite (temporal only)": CompositeRanker(
            w_distance=0.0, w_temporal=1.0, w_centrality=0.0),
    }
    table = Table("Ablation -- result ranking strategy (lenient filter)",
                  ["ranker", "nDCG@5", "precision@5", "recall@5"])
    ndcgs = {}
    for name, ranker in rankers.items():
        idx = FoVIndex()
        idx.insert_many(reps)
        engine = RetrievalEngine(idx, city.camera, ranker=ranker,
                                 strict_cover=False)
        rng = np.random.default_rng(9)
        ms = []
        for _ in range(30):
            qp = city.random_query_point(rng)
            xy = city.projection.to_local_arrays([qp.lat], [qp.lng])[0]
            truth = relevant_segments(city, xy, (t0, t1))
            if not truth:
                continue
            res = engine.execute(Query(t_start=t0, t_end=t1, center=qp,
                                       radius=100.0, top_n=5))
            ms.append(aggregate_metrics(res.keys(), truth, 5))
        ndcgs[name] = float(np.mean([m.ndcg for m in ms]))
        table.add(name, round(ndcgs[name], 3),
                  round(float(np.mean([m.precision for m in ms])), 3),
                  round(float(np.mean([m.recall for m in ms])), 3))
    show(table)

    # The composite ranker's extra signals help when the filter lets
    # imperfect candidates through; pure temporal ordering is worst.
    assert ndcgs["composite"] >= ndcgs["distance (paper)"] - 1e-9
    assert ndcgs["distance (paper)"] > ndcgs["composite (temporal only)"]

    idx = FoVIndex()
    idx.insert_many(reps)
    engine = RetrievalEngine(idx, city.camera, ranker=CompositeRanker())
    rng = np.random.default_rng(1)
    qp = city.random_query_point(rng)
    q = Query(t_start=t0, t_end=t1, center=qp, radius=100.0, top_n=10)
    benchmark(lambda: engine.execute(q))
