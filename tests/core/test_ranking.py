"""Unit tests for pluggable rankers."""

import numpy as np
import pytest

from repro import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.index import FoVIndex
from repro.core.query import Query
from repro.core.ranking import CompositeRanker, DistanceRanker
from repro.core.retrieval import RetrievalEngine
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection

CAMERA = CameraModel(half_angle=30.0, radius=100.0)
ORIGIN = GeoPoint(40.003, 116.326)
PROJ = LocalProjection(ORIGIN)
QUERY = Query(t_start=0.0, t_end=100.0, center=ORIGIN, radius=150.0,
              top_n=10)


def rep_local(x, y, theta, t0=0.0, t1=100.0, sid=0):
    p = PROJ.to_geo(x, y)
    return RepresentativeFoV(lat=p.lat, lng=p.lng, theta=theta,
                             t_start=t0, t_end=t1, video_id="v",
                             segment_id=sid)


def engine(reps, ranker=None):
    idx = FoVIndex()
    idx.insert_many(reps)
    return RetrievalEngine(idx, CAMERA, ranker=ranker)


class TestDistanceRanker:
    def test_scores_are_negated_distance(self):
        r = DistanceRanker()
        s = r.scores(CAMERA, QUERY.t_start, QUERY.t_end,
                     np.array([10.0, 5.0]), np.array([0.0, 0.0]),
                     np.zeros(2), np.ones(2))
        assert s[1] > s[0]

    def test_engine_default_is_distance(self):
        # Two cameras covering the centre at different ranges.
        reps = [rep_local(0, -80, 0.0, sid=0), rep_local(0, -20, 0.0, sid=1)]
        res = engine(reps).execute(QUERY)
        assert [r.fov.segment_id for r in res.ranked] == [1, 0]


class TestCompositeRanker:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            CompositeRanker(w_distance=-1.0)
        with pytest.raises(ValueError):
            CompositeRanker(w_distance=0.0, w_temporal=0.0, w_centrality=0.0)

    def test_scores_in_unit_interval(self, rng):
        r = CompositeRanker()
        n = 50
        s = r.scores(CAMERA, QUERY.t_start, QUERY.t_end,
                     rng.uniform(0, 200, n), rng.uniform(0, 30, n),
                     rng.uniform(0, 50, n), rng.uniform(50, 100, n))
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_temporal_component_reorders(self):
        # Same position/orientation; one segment spans the whole window,
        # the other a sliver.  Distance ranking ties; composite prefers
        # the long-overlap segment.
        long_seg = rep_local(0, -50, 0.0, t0=0.0, t1=100.0, sid=0)
        sliver = rep_local(0, -50, 0.0, t0=0.0, t1=2.0, sid=1)
        res = engine([sliver, long_seg],
                     ranker=CompositeRanker()).execute(QUERY)
        assert res.ranked[0].fov.segment_id == 0

    def test_centrality_component_reorders(self):
        # Equal distance and time; one camera points dead-on, the other
        # catches the spot at its wedge edge.
        dead_on = rep_local(0, -50, 0.0, sid=0)
        edge = rep_local(0, -50, 29.0, sid=1)
        res = engine([edge, dead_on],
                     ranker=CompositeRanker()).execute(QUERY)
        assert res.ranked[0].fov.segment_id == 0

    def test_pure_distance_weights_match_paper(self):
        reps = [rep_local(0, -80, 0.0, sid=0), rep_local(0, -20, 0.0, sid=1),
                rep_local(0, -55, 0.0, sid=2)]
        paper = engine(reps).execute(QUERY).keys()
        composite = engine(
            reps, ranker=CompositeRanker(w_distance=1.0, w_temporal=0.0,
                                         w_centrality=0.0)
        ).execute(QUERY).keys()
        assert paper == composite

    def test_only_ordering_changes_never_membership(self, rng):
        reps = [rep_local(float(rng.uniform(-100, 100)),
                          float(rng.uniform(-100, -10)),
                          float(rng.uniform(0, 360)),
                          t0=float(rng.uniform(0, 50)),
                          t1=float(rng.uniform(50, 100)), sid=i)
                for i in range(30)]
        base = set(engine(reps).execute(QUERY).keys())
        comp = set(engine(reps, ranker=CompositeRanker()).execute(QUERY)
                   .keys())
        # top_n is 10; with the same filter the candidate pool matches,
        # so when fewer than top_n survive the sets must be identical.
        res = engine(reps).execute(QUERY)
        if res.after_filter <= QUERY.top_n:
            assert base == comp
