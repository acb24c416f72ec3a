"""Integration tests for the video-to-video retrieval pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.oracle import answer
from repro.core.query import QueryResult, RankedFoV
from repro.core.server import CloudServer
from repro.core.similarity import cross_similarity
from repro.geo.earth import LocalProjection
from repro.shard import ShardedCloudServer
from repro.traces.dataset import random_video_trajectories
from repro.traces.scenarios import CITY_ORIGIN
from repro.video import (VideoMatch, VideoQuery, VideoQueryResult,
                         retrieve_videos)
from repro.video.scoring import alignment_score_ref, lcv_run_length_ref


@pytest.fixture(scope="module")
def workload():
    """A dense 400-video city: every query trajectory has neighbours."""
    rng = np.random.default_rng(7)
    return random_video_trajectories(400, 8, rng, extent_m=800.0,
                                     horizon_s=4000.0)


def video_query_for(records, video_id, **overrides):
    segs = tuple(sorted((r for r in records if r.video_id == video_id),
                        key=lambda r: r.segment_id))
    params = dict(t_start=min(r.t_start for r in records),
                  t_end=max(r.t_end for r in records),
                  radius=120.0, top_k=5, sim_threshold=0.15,
                  per_segment_top_n=64, exclude=frozenset({video_id}))
    params.update(overrides)
    return VideoQuery(segments=segs, **params)


def summary(result):
    return [(m.video_id, m.score, m.lcv) for m in result.ranked]


class TestVideoQueryValidation:
    def test_needs_segments(self):
        with pytest.raises(ValueError):
            VideoQuery(segments=(), t_start=0.0, t_end=1.0)

    def test_rejects_unknown_scorer(self, workload):
        with pytest.raises(ValueError):
            video_query_for(workload, "vid-00012", scorer="lcs")

    def test_rejects_bad_threshold(self, workload):
        with pytest.raises(ValueError):
            video_query_for(workload, "vid-00012", sim_threshold=1.5)

    @pytest.mark.parametrize("fields", [
        dict(t_start=-np.inf, t_end=np.inf), dict(t_end=np.inf),
        dict(t_start=np.nan, t_end=np.nan), dict(radius=np.nan),
        dict(radius=np.inf),
    ], ids=["inf-window", "inf-end", "nan-window", "nan-radius",
            "inf-radius"])
    def test_rejects_non_finite_window_and_radius(self, workload, fields):
        with pytest.raises(ValueError, match="finite"):
            video_query_for(workload, "vid-00012", **fields)

    def test_hashable_frozen(self, workload):
        vq = video_query_for(workload, "vid-00012")
        assert hash(vq) == hash(video_query_for(workload, "vid-00012"))


class TestRetrieval:
    def test_finds_overlapping_videos(self, workload):
        server = CloudServer(CameraModel(), cache_size=0)
        server.ingest(workload)
        result = server.query_video(video_query_for(workload, "vid-00012"))
        assert result.ranked, "dense workload must surface neighbours"
        assert result.videos_considered >= len(result.ranked)
        assert result.segments_harvested == len(result.harvested)
        assert result.elapsed_s > 0.0
        # Canonical total order (-score, video_id).
        keys = [(-m.score, m.video_id) for m in result.ranked]
        assert keys == sorted(keys)
        # Leave-one-out: the query video never ranks itself.
        assert "vid-00012" not in result.keys()
        assert all(f.video_id != "vid-00012" for f in result.harvested)

    def test_top_k_truncates(self, workload):
        server = CloudServer(CameraModel(), cache_size=0)
        server.ingest(workload)
        full = server.query_video(
            video_query_for(workload, "vid-00012", top_k=100))
        two = server.query_video(video_query_for(workload, "vid-00012",
                                                 top_k=2))
        assert summary(two) == summary(full)[:2]

    def test_scorers_disagree_but_share_harvest(self, workload):
        server = CloudServer(CameraModel(), cache_size=0)
        server.ingest(workload)
        lcv = server.query_video(video_query_for(workload, "vid-00012"))
        dtw = server.query_video(
            video_query_for(workload, "vid-00012", scorer="dtw"))
        assert lcv.harvested == dtw.harvested
        assert all(0.0 <= m.score <= 1.0 for m in lcv.ranked + dtw.ranked)
        # LCV evidence is reported identically under both scorers.
        lcv_runs = {m.video_id: m.lcv for m in lcv.ranked}
        for m in dtw.ranked:
            if m.video_id in lcv_runs:
                assert m.lcv == lcv_runs[m.video_id]

    def test_dynamic_packed_sharded_parity(self, workload):
        """The oracle's harvest (the old dynamic engine's path) ranks
        like the packed server and every fleet size."""
        vq = video_query_for(workload, "vid-00012")
        camera = CameraModel()
        packed = CloudServer(camera, cache_size=0)
        packed.ingest(workload)
        base = retrieve_videos(
            vq, lambda qs: [answer(packed.index, q, camera) for q in qs],
            camera)
        assert summary(packed.query_video(vq)) == summary(base)
        assert packed.query_video(vq).harvested == base.harvested
        for n_shards in (1, 2, 4, 8):
            fleet = ShardedCloudServer(camera, n_shards=n_shards,
                                       origin=CITY_ORIGIN, cache_size=0)
            fleet.ingest(workload)
            sharded = fleet.query_video(vq)
            assert summary(sharded) == summary(base)
            assert sharded.harvested == base.harvested

    def test_engine_agnostic_function_form(self, workload):
        """retrieve_videos accepts any query_many callable directly."""
        camera = CameraModel()
        server = CloudServer(camera, cache_size=0)
        server.ingest(workload)
        vq = video_query_for(workload, "vid-00012")
        direct = retrieve_videos(vq, server.query_many, camera)
        assert summary(direct) == summary(server.query_video(vq))


class TestCachingAndStats:
    def test_cache_hit_on_repeat(self, workload):
        server = CloudServer(CameraModel(), cache_size=16)
        server.ingest(workload)
        vq = video_query_for(workload, "vid-00012")
        first = server.query_video(vq)
        second = server.query_video(vq)
        assert second is first  # served from the epoch-tagged cache
        assert server.video_stats.queries == 2
        assert server.video_stats.cache_hits == 1
        assert server.video_stats.cache_misses == 1

    def test_ingest_invalidates_cache(self, workload):
        server = CloudServer(CameraModel(), cache_size=16)
        server.ingest(workload[:3000])
        vq = video_query_for(workload, "vid-00012")
        first = server.query_video(vq)
        server.ingest(workload[3000:])  # epoch bump
        second = server.query_video(vq)
        assert second is not first
        assert server.video_stats.cache_hits == 0
        assert server.video_stats.cache_misses == 2

    def test_sharded_cache_and_stats(self, workload):
        fleet = ShardedCloudServer(CameraModel(), n_shards=4,
                                   origin=CITY_ORIGIN, cache_size=16)
        fleet.ingest(workload)
        vq = video_query_for(workload, "vid-00012")
        first = fleet.query_video(vq)
        assert fleet.query_video(vq) is first
        assert fleet.video_stats.cache_hits == 1
        assert fleet.video_stats.segments_harvested == first.segments_harvested

    def test_video_metrics_live_on_server_registry(self, workload):
        server = CloudServer(CameraModel(), cache_size=0)
        server.ingest(workload)
        server.query_video(video_query_for(workload, "vid-00012"))
        reg = server.obs.registry
        assert reg.get("video.queries").value == 1
        assert reg.get("video.segments_harvested").value > 0


class TestTracing:
    def test_span_tree_covers_pipeline(self, workload):
        from repro.obs import Observability
        obs = Observability.tracing()
        server = CloudServer(CameraModel(), cache_size=0,
                             obs=obs)
        server.ingest(workload)
        server.query_video(video_query_for(workload, "vid-00012"))
        trace = obs.span_tracer.last_trace()
        names = {span.name for _, span in trace.walk()}
        assert {"video.query", "video.harvest", "video.score",
                "video.rank"} <= names


def per_video_oracle(vq, query_many, camera):
    """The pre-stacking pipeline, kept verbatim as a test-local oracle:
    one projection, one ``cross_similarity`` and one scorer call *per
    candidate video*, with the scalar reference scorers."""
    by_video = {}
    for answer in query_many(vq.harvest_queries()):
        for row in answer.ranked:
            rep = row.fov
            if rep.video_id not in vq.exclude:
                by_video.setdefault(rep.video_id, {})[rep.segment_id] = rep
    projection = LocalProjection(vq.segments[0].point)
    xy_q = projection.to_local_arrays([s.lat for s in vq.segments],
                                      [s.lng for s in vq.segments])
    theta_q = np.array([s.theta for s in vq.segments], dtype=float)
    matches = []
    for vid in sorted(by_video):
        segs = [by_video[vid][sid] for sid in sorted(by_video[vid])]
        xy_s = projection.to_local_arrays([f.lat for f in segs],
                                          [f.lng for f in segs])
        theta_s = np.array([f.theta for f in segs], dtype=float)
        sim = cross_similarity(xy_q, theta_q, xy_s, theta_s, camera)
        run = lcv_run_length_ref(sim, vq.sim_threshold)
        score = (run / sim.shape[0] if vq.scorer == "lcv"
                 else alignment_score_ref(sim))
        matches.append(VideoMatch(video_id=vid, score=score, lcv=run,
                                  segments_matched=len(segs)))
    matches.sort(key=lambda m: (-m.score, m.video_id))
    harvested = sorted(
        (rep for segs in by_video.values() for rep in segs.values()),
        key=RepresentativeFoV.key)
    return VideoQueryResult(query=vq, ranked=matches[:vq.top_k],
                            harvested=harvested,
                            videos_considered=len(by_video),
                            segments_harvested=len(harvested), elapsed_s=0.0)


class TestStackedScoringMatchesPerVideoLoop:
    """Whole results, ``==`` on every float: scoring all candidates in
    one pass changes how often NumPy is entered, not one bit of output."""

    @pytest.fixture(scope="class")
    def server(self, workload):
        server = CloudServer(CameraModel(), cache_size=0)
        server.ingest(workload)
        return server

    def check(self, server, vq):
        got = retrieve_videos(vq, server.query_many, server.camera)
        want = per_video_oracle(vq, server.query_many, server.camera)
        assert got._replace(elapsed_s=0.0) == want
        for match in got.ranked:
            assert type(match.score) is float and type(match.lcv) is int
        return got

    @pytest.mark.parametrize("scorer", ["lcv", "dtw"])
    @pytest.mark.parametrize("video_id",
                             ["vid-00012", "vid-00100", "vid-00377"])
    def test_dense_city(self, server, workload, scorer, video_id):
        got = self.check(server, video_query_for(
            workload, video_id, scorer=scorer, top_k=1000))
        # Ragged on purpose: candidates contribute 1..8 segments each.
        assert len({m.segments_matched for m in got.ranked}) > 2

    @pytest.mark.parametrize("scorer", ["lcv", "dtw"])
    def test_exclude_drops_candidates_before_scoring(self, server, workload,
                                                     scorer):
        full = self.check(server, video_query_for(
            workload, "vid-00012", scorer=scorer, top_k=1000))
        dropped = frozenset(full.keys()[:3]) | {"vid-00012"}
        rest = self.check(server, video_query_for(
            workload, "vid-00012", scorer=scorer, top_k=1000,
            exclude=dropped))
        assert rest.videos_considered == full.videos_considered - 3
        assert rest.ranked == [m for m in full.ranked
                               if m.video_id not in dropped]

    @pytest.mark.parametrize("scorer", ["lcv", "dtw"])
    def test_empty_harvest(self, server, workload, scorer):
        got = self.check(server, video_query_for(
            workload, "vid-00012", scorer=scorer, t_start=9e8, t_end=9e8 + 1))
        assert got.ranked == [] and got.harvested == []
        assert got.videos_considered == got.segments_harvested == 0

    @pytest.mark.parametrize("scorer", ["lcv", "dtw"])
    def test_single_candidate(self, server, workload, scorer):
        vq = video_query_for(workload, "vid-00012", scorer=scorer)
        best = self.check(server, vq).keys()[0]
        lone = CloudServer(CameraModel(), cache_size=0)
        lone.ingest([r for r in workload
                     if r.video_id in ("vid-00012", best)])
        got = self.check(lone, vq)
        assert got.keys() == [best] and got.videos_considered == 1


class TestVideosRankedCountsCandidates:
    """``video.videos_ranked`` is candidates scored, not rows returned."""

    @pytest.mark.parametrize("facade", ["single", "sharded"])
    def test_counts_videos_considered_once_per_computed_query(self, workload,
                                                              facade):
        if facade == "single":
            server = CloudServer(CameraModel(), cache_size=16)
        else:
            server = ShardedCloudServer(CameraModel(), n_shards=4,
                                        origin=CITY_ORIGIN, cache_size=16)
        server.ingest(workload)
        first = server.query_video(video_query_for(workload, "vid-00012",
                                                   top_k=2))
        assert len(first.ranked) == 2 < first.videos_considered
        assert server.video_stats.videos_ranked == first.videos_considered
        # A cached repeat scores nothing, so it adds nothing.
        server.query_video(video_query_for(workload, "vid-00012", top_k=2))
        assert server.video_stats.cache_hits == 1
        assert server.video_stats.videos_ranked == first.videos_considered
        other = server.query_video(video_query_for(workload, "vid-00100",
                                                   top_k=2))
        assert server.video_stats.videos_ranked == \
            first.videos_considered + other.videos_considered
        assert server.obs.registry.get("video.videos_ranked").value == \
            server.video_stats.videos_ranked


def _stub_city():
    """A 4-segment query and 11 stored videos built from exact copies of
    its segments, so whole groups of candidates score the same double:
    one full copy, seven copies of segments 0-1 (the tie run) and three
    copies of segment 2, ids scrambled against their harvest order."""
    query = tuple(RepresentativeFoV(lat=40.004 + 2e-4 * i, lng=116.33,
                                    theta=0.0, t_start=10.0 * i,
                                    t_end=10.0 * i + 10.0,
                                    video_id="query", segment_id=i)
                  for i in range(4))
    copies = {"full": [0, 1, 2, 3]}
    copies |= {f"tie-{k}": [0, 1] for k in (5, 1, 6, 0, 3, 4, 2)}
    copies |= {f"one-{k}": [2] for k in (2, 0, 1)}
    stored = [replace(query[sid], video_id=vid, segment_id=sid)
              for vid, sids in copies.items() for sid in sids]
    return query, stored


def _stub_query_many(stored):
    """Every answer returns every stored record, reversed on odd
    queries: each record is surfaced once per query segment."""
    def query_many(queries):
        return [QueryResult(query=q, ranked=[
            RankedFoV(fov=r, distance=0.0, covers=True)
            for r in (stored[::-1] if i % 2 else stored)])
            for i, q in enumerate(queries)]
    return query_many


class TestTopKUnderExactTies:
    """LCV scores are ``run / n``, so whole groups of candidates tie;
    the top-k must still be the first ``top_k`` of the total order
    ``(-score, video_id)`` over every candidate."""

    @pytest.mark.parametrize("scorer", ["lcv", "dtw"])
    @pytest.mark.parametrize("top_k", [1, 2, 4, 7, 8, 11, 50])
    def test_ranked_is_prefix_of_total_order(self, scorer, top_k):
        query, stored = _stub_city()
        query_many = _stub_query_many(stored)
        camera = CameraModel()
        vq = VideoQuery(segments=query, t_start=0.0, t_end=100.0,
                        top_k=top_k, scorer=scorer, sim_threshold=0.5)
        every = per_video_oracle(replace(vq, top_k=10**6), query_many,
                                 camera).ranked
        assert len(every) == 11
        all_matches = list(reversed(every))
        want = sorted(all_matches,
                      key=lambda m: (-m.score, m.video_id))[:top_k]
        got = retrieve_videos(vq, query_many, camera)
        assert got.ranked == want
        assert got.videos_considered == 11

    def test_the_cut_lands_inside_a_tie_run(self):
        query, stored = _stub_city()
        vq = VideoQuery(segments=query, t_start=0.0, t_end=100.0,
                        top_k=4, sim_threshold=0.5)
        ranked = retrieve_videos(vq, _stub_query_many(stored),
                                 CameraModel()).ranked
        assert [m.video_id for m in ranked] == [
            "full", "tie-0", "tie-1", "tie-2"]
        assert ranked[1].score == ranked[2].score == ranked[3].score


class TestResultTypesAndDedup:
    def test_match_fields_are_plain_python(self, workload):
        server = CloudServer(CameraModel(), cache_size=0)
        server.ingest(workload)
        for scorer in ("lcv", "dtw"):
            result = server.query_video(video_query_for(
                workload, "vid-00012", scorer=scorer, top_k=1000))
            assert result.ranked
            for match in result.ranked:
                assert [type(v) for v in match] == [str, float, int, int]
            assert type(result.videos_considered) is int
            assert type(result.segments_harvested) is int

    def test_a_record_in_several_answers_counts_once(self):
        query, stored = _stub_city()
        vq = VideoQuery(segments=query, t_start=0.0, t_end=100.0, top_k=3)
        result = retrieve_videos(vq, _stub_query_many(stored),
                                 CameraModel())
        # Every record came back once per query segment (4 times).
        assert result.segments_harvested == len(stored) == 21
        assert result.harvested == sorted(stored, key=lambda r: (
            r.video_id, r.segment_id))
        assert len({r.key() for r in result.harvested}) == 21
        assert {m.video_id: m.segments_matched for m in result.ranked} == {
            "full": 4, "tie-0": 2, "tie-1": 2}
