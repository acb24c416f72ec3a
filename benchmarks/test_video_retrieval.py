"""Video-to-video retrieval -- batched harvest vs sequential baseline.

The new workload (docs/VIDEO_RETRIEVAL.md): a query video's trajectory
ranks every stored video by viewing-sequence similarity.  The pipeline
front-loads all its index work into ONE batched ``query_many`` harvest,
so the serving cost rides the packed engine's vectorised funnel.  This
benchmark pins, on a 50k-record store (6250 videos x 8 segments) with a
32-segment query trajectory:

* **parity** -- dynamic, packed and sharded execution rank videos
  identically (the engine-parity property, at benchmark scale);
* **harvest throughput** -- the batched packed harvest answers the
  32-query batch at >= 5x the seed sequential per-segment loop;
* **latency shape** -- end-to-end ``video.query`` span p50/p99, plus
  the POI aggregation cost over the harvested coverage.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.fov import RepresentativeFoV
from repro.core.index import FoVIndex
from repro.core.retrieval import RetrievalEngine
from repro.core.server import CloudServer
from repro.eval.harness import Table
from repro.obs import Observability
from repro.shard import ShardedCloudServer
from repro.traces.dataset import random_video_trajectories
from repro.traces.scenarios import CITY_ORIGIN
from repro.video import VideoQuery, discover_pois, retrieve_videos

N_VIDEOS = 6_250
SEGMENTS_PER_VIDEO = 8
N_RECORDS = N_VIDEOS * SEGMENTS_PER_VIDEO          # the Fig. 6 scale
QUERY_SEGMENTS = 32
EXTENT_M = 5_000.0
HARVEST_SPEEDUP_GATE_X = 5.0
LATENCY_PASSES = 5
SPAN_SAMPLES = 64


def _interior_query_trajectory(rng) -> tuple[RepresentativeFoV, ...]:
    """A 32-segment query video that stays away from the extent walls
    (a clipped boundary walk sees almost nothing; see the workload
    notes in docs/VIDEO_RETRIEVAL.md)."""
    margin = 500.0
    for _ in range(64):
        cand = random_video_trajectories(1, QUERY_SEGMENTS, rng,
                                         extent_m=EXTENT_M)
        xy_ok = all(margin <= v <= EXTENT_M - margin
                    for f in cand
                    for v in _local_xy(f))
        if xy_ok:
            return tuple(RepresentativeFoV(
                lat=f.lat, lng=f.lng, theta=f.theta,
                t_start=f.t_start, t_end=f.t_end,
                video_id="query-0", segment_id=f.segment_id)
                for f in cand)
    raise AssertionError("no interior query trajectory in 64 draws")


def _local_xy(fov):
    from repro.geo.earth import LocalProjection
    return LocalProjection(CITY_ORIGIN).to_local(fov.point)


@pytest.fixture(scope="module")
def workload():
    records = random_video_trajectories(N_VIDEOS, SEGMENTS_PER_VIDEO,
                                        np.random.default_rng(2015),
                                        extent_m=EXTENT_M)
    segments = _interior_query_trajectory(np.random.default_rng(77))
    t_lo = min(r.t_start for r in records)
    t_hi = max(r.t_end for r in records)
    vq = VideoQuery(segments=segments, t_start=t_lo, t_end=t_hi,
                    radius=150.0, top_k=10, sim_threshold=0.15,
                    per_segment_top_n=64)
    return FoVIndex.bulk(records), records, vq


def _summary(result):
    return [(m.video_id, m.score, m.lcv, m.segments_matched)
            for m in result.ranked]


def test_parity_and_harvest_speedup(workload, camera, show, benchmark):
    index, records, vq = workload
    dynamic = RetrievalEngine(index, camera)                      # seed path
    packed = RetrievalEngine(index, camera, engine="packed")
    queries = vq.harvest_queries()

    # Parity gate first: dynamic, packed and a 4-shard fleet must rank
    # videos identically before any timing means anything.
    base = retrieve_videos(vq, dynamic.execute_many, camera)
    assert base.ranked, "benchmark workload must surface matches"
    got = retrieve_videos(vq, packed.execute_many, camera)
    assert _summary(got) == _summary(base)
    assert got.harvested == base.harvested
    fleet = ShardedCloudServer(camera, n_shards=4, origin=CITY_ORIGIN,
                               cache_size=0)
    fleet.ingest(records)
    assert _summary(fleet.query_video(vq)) == _summary(base)

    # Harvest throughput: the ONE batched call vs the seed per-segment
    # sequential loop.  Min-of-passes so the gate measures the engine.
    dynamic.execute_many(queries[:4])                   # warm both paths
    packed.execute_many(queries[:4])

    t_seq = float("inf")
    t_batch = float("inf")
    for _ in range(LATENCY_PASSES):
        t0 = time.perf_counter()
        for q in queries:
            dynamic.execute(q)
        t_seq = min(t_seq, time.perf_counter() - t0)
        t0 = time.perf_counter()
        packed.execute_many(queries)
        t_batch = min(t_batch, time.perf_counter() - t0)
    speedup = t_seq / t_batch

    table = Table(
        f"Video retrieval -- {N_RECORDS} records, "
        f"{QUERY_SEGMENTS}-segment query",
        ["path", "harvest (ms)", "per-segment (us)"])
    table.add("dynamic sequential (seed)", round(t_seq * 1e3, 2),
              round(t_seq / QUERY_SEGMENTS * 1e6, 1))
    table.add("packed batched", round(t_batch * 1e3, 2),
              round(t_batch / QUERY_SEGMENTS * 1e6, 1))
    show(table)
    show(f"batched harvest speedup: {speedup:.1f}x; "
         f"{base.videos_considered} videos considered, "
         f"{base.segments_harvested} segments harvested, "
         f"top video {base.ranked[0].video_id} "
         f"(lcv run {base.ranked[0].lcv})")

    assert speedup >= HARVEST_SPEEDUP_GATE_X, (
        f"batched harvest speedup {speedup:.1f}x below the "
        f"{HARVEST_SPEEDUP_GATE_X:.0f}x gate")

    benchmark(lambda: retrieve_videos(vq, packed.execute_many, camera))


def test_video_query_span_percentiles(workload, camera, show):
    """End-to-end ``video.query`` p50/p99 plus cache-hit cost."""
    index, _, vq = workload
    obs = Observability.tracing(trace_capacity=SPAN_SAMPLES + 4)
    server = CloudServer(camera, index=index, engine="packed",
                         cache_size=0, obs=obs)
    server.query_video(vq)                              # warm kernels + view
    tracer = obs.span_tracer
    assert tracer is not None
    tracer.clear()
    for _ in range(SPAN_SAMPLES):
        server.query_video(vq)
    lat = sorted(t.duration_s for t in tracer.traces()
                 if t.name == "video.query")
    assert len(lat) == SPAN_SAMPLES
    p50 = float(np.percentile(lat, 50))
    p99 = float(np.percentile(lat, 99))

    cached = CloudServer(camera, index=index, engine="packed",
                         cache_size=64)
    cold0 = time.perf_counter()
    cached.query_video(vq)
    t_cold = time.perf_counter() - cold0
    warm0 = time.perf_counter()
    cached.query_video(vq)
    t_warm = time.perf_counter() - warm0
    assert cached.video_stats.cache_hits == 1

    show(f"video.query span ({SPAN_SAMPLES} runs, {N_RECORDS} records): "
         f"p50 {p50 * 1e3:.2f} ms, p99 {p99 * 1e3:.2f} ms; "
         f"cache cold {t_cold * 1e3:.2f} ms -> warm {t_warm * 1e6:.1f} us")
    assert p50 <= p99 < 5.0                 # sanity: a tail, not a hang
    assert t_warm < t_cold


def test_poi_aggregation_cost(workload, camera, show):
    """POI discovery over the harvested coverage stays interactive."""
    index, _, vq = workload
    packed = RetrievalEngine(index, camera, engine="packed")
    harvested = retrieve_videos(vq, packed.execute_many, camera).harvested
    assert harvested

    t_poi = float("inf")
    for _ in range(LATENCY_PASSES):
        t0 = time.perf_counter()
        cells = discover_pois(harvested, camera, cell_m=25.0, top_k=5)
        t_poi = min(t_poi, time.perf_counter() - t0)
    assert cells and cells[0].observers >= cells[-1].observers

    show(f"poi aggregation over {len(harvested)} harvested segments: "
         f"{t_poi * 1e3:.2f} ms, top cell seen by {cells[0].observers}")
    assert t_poi < 2.0
