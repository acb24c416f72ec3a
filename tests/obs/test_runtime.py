"""Observability bundle and packed-search metrics tests."""

from repro import CameraModel
from repro.core.index import FoVIndex
from repro.core.query import Query
from repro.core.server import CloudServer
from repro.geo.coords import GeoPoint
from repro.obs import (
    EventJournal,
    MetricsRegistry,
    NULL_TRACER,
    Observability,
    SpanTracer,
)
from repro.shard import ShardedCloudServer
from repro.traces.dataset import random_representative_fovs
from repro.video.retrieval import VideoQuery

CAMERA = CameraModel(half_angle=30.0, radius=100.0)


class TestObservability:
    def test_default_has_no_tracer(self):
        obs = Observability.default()
        assert obs.tracer is NULL_TRACER
        assert obs.span_tracer is None
        assert isinstance(obs.registry, MetricsRegistry)
        assert isinstance(obs.journal, EventJournal)

    def test_tracing_wires_spans_into_the_registry(self):
        ticks = iter(float(i) for i in range(100))
        obs = Observability.tracing(clock=lambda: next(ticks))
        assert isinstance(obs.tracer, SpanTracer)
        assert obs.span_tracer is obs.tracer
        with obs.tracer.span("t.stage"):
            pass
        fam = obs.registry.get("span.duration_s")
        assert fam.labels(span="t.stage").count == 1

    def test_capacities_are_forwarded(self):
        obs = Observability.default(journal_capacity=2)
        for _ in range(3):
            obs.journal.emit("t.tick")
        assert len(obs.journal) == 2 and obs.journal.total == 3



class TestPackedSearchRecorder:
    """The ``packed.*`` families, fed by the server from each pass's tally."""

    def test_real_packed_search_reports_through_the_recorder(self, rng):
        reps = random_representative_fovs(500, rng)
        obs = Observability.default()
        server = CloudServer(CAMERA, index=FoVIndex.bulk(reps), cache_size=0,
                             obs=obs)
        reg = obs.registry
        rec0 = reps[0]
        q = Query(t_start=rec0.t_start - 1.0, t_end=rec0.t_end + 1.0,
                  center=GeoPoint(rec0.lat, rec0.lng), radius=150.0)
        result = server.query(q)
        assert result.candidates >= 1
        assert reg.get("packed.descents").value == 1
        assert reg.get("packed.entries_matched").value == result.candidates
        assert reg.get("packed.entries_tested").value >= result.candidates
        assert reg.get("packed.frontier_width_peak").value > 0

    def test_batched_search_counts_the_whole_batch(self, rng):
        reps = random_representative_fovs(300, rng)
        obs = Observability.default()
        server = CloudServer(CAMERA, index=FoVIndex.bulk(reps), cache_size=0,
                             obs=obs)
        reg = obs.registry
        queries = []
        for rec_fov in reps[:8]:
            queries.append(Query(t_start=rec_fov.t_start - 1.0,
                                 t_end=rec_fov.t_end + 1.0,
                                 center=GeoPoint(rec_fov.lat, rec_fov.lng),
                                 radius=100.0))
        results = server.query_many(queries)
        assert len(results) == len(queries)
        assert sum(r.candidates for r in results) >= 1
        assert reg.get("packed.descents").value == 1
        assert (reg.get("packed.entries_matched").value
                == sum(r.candidates for r in results))


class TestQueryRequests:
    """``query.requests`` counts the inquirer's point queries only."""

    def test_a_video_harvest_counts_no_point_query(self, rng):
        reps = random_representative_fovs(300, rng)
        obs = Observability.tracing()
        server = ShardedCloudServer(CAMERA, n_shards=3, origin=reps[0].point,
                                    obs=obs)
        server.ingest(reps)
        video = VideoQuery(segments=tuple(reps[:4]), t_start=0.0,
                           t_end=86400.0, radius=150.0, top_k=5)
        server.query_video(video)
        assert server.stats.queries_served == 0
        assert server.stats.cache_misses == len(video.segments)
        names = [span.name for _, span in obs.span_tracer.last_trace().walk()]
        assert names[0] == "video.query" and "query.rank" in names
        assert "server.query_many" not in names
        server.query_many([Query(t_start=0.0, t_end=86400.0,
                                 center=r.point, radius=150.0)
                           for r in reps[:3]])
        server.query(Query(t_start=0.0, t_end=86400.0, center=reps[0].point,
                           radius=150.0))
        assert server.stats.queries_served == 4
