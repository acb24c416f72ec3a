"""Continuous city-scale retrieval service with live measurements.

Builds a larger city (60 providers on a 12x12 street grid), bulk-loads
the index, then plays the role of a monitoring service issuing a stream
of spatio-temporal queries: per-query latency, funnel statistics
(candidates -> oriented -> returned), accuracy against geometric ground
truth, and index health (R-tree shape).

Run:  python examples/city_surveillance.py
"""

import numpy as np

from repro import CameraModel, CloudServer, Query
from repro.core.index import FoVIndex
from repro.eval.accuracy import aggregate_metrics
from repro.eval.groundtruth import relevant_segments
from repro.eval.harness import Table
from repro.spatial.metrics import tree_stats
from repro.traces.citygrid import CityGrid
from repro.traces.dataset import CityDataset

N_PROVIDERS = 60
N_QUERIES = 40


def main() -> None:
    print(f"Building the city: {N_PROVIDERS} providers on a 12x12 grid...")
    city = CityDataset(
        n_providers=N_PROVIDERS,
        seed=2015,
        grid=CityGrid(cols=12, rows=12, block_m=100.0),
        camera=CameraModel(half_angle=30.0, radius=100.0),
    )
    reps = city.all_representatives()

    # A long-running service would bulk-load its nightly snapshot.
    server = CloudServer(city.camera, index=FoVIndex.bulk(reps))
    for rec in city.recordings:
        server.register_client(city.clients[rec.device_id])
        server.register_owner(rec.video_id, rec.device_id)

    stats = tree_stats(server.index.rtree())
    print(f"  index: {stats.size} segments, R-tree height {stats.height}, "
          f"{stats.leaf_count} leaves, "
          f"avg leaf fill {stats.avg_leaf_fill:.1f}")

    # --- query stream ------------------------------------------------------
    t0, t1 = city.time_span()
    rng = np.random.default_rng(31)
    table = Table("query stream", ["#", "latency (ms)", "candidates",
                                   "oriented", "returned", "precision@10",
                                   "recall@10"])
    lat_ms, precs, recs_ = [], [], []
    answered = 0
    for i in range(N_QUERIES):
        qp = city.random_query_point(rng)
        q = Query(t_start=t0, t_end=t1, center=qp, radius=100.0, top_n=10)
        res = server.query(q)
        lat_ms.append(res.elapsed_s * 1e3)
        xy = city.projection.to_local_arrays([qp.lat], [qp.lng])[0]
        truth = relevant_segments(city, xy, (t0, t1))
        if truth:
            m = aggregate_metrics(res.keys(), truth, 10)
            precs.append(m.precision)
            recs_.append(m.recall)
        if len(res):
            answered += 1
        if i < 10:
            table.add(i, round(res.elapsed_s * 1e3, 3), res.candidates,
                      res.after_filter, len(res),
                      round(precs[-1], 2) if truth else "-",
                      round(recs_[-1], 2) if truth else "-")
    table.add("...", "", "", "", "", "", "")
    print(table.render())

    print(f"answered {answered}/{N_QUERIES} queries")
    print(f"latency: mean {np.mean(lat_ms):.3f} ms, "
          f"p99 {np.percentile(lat_ms, 99):.3f} ms "
          f"(paper envelope: < 100 ms)")
    if precs:
        print(f"accuracy vs geometric truth over {len(precs)} truthful "
              f"queries: precision@10 {np.mean(precs):.2f}, "
              f"recall@10 {np.mean(recs_):.2f}")


if __name__ == "__main__":
    main()
