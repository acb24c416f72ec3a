"""Unit tests for query/result types."""

import numpy as np
import pytest

from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.query import AREA_RADII, Query, QueryResult, RankedFoV
from repro.core.server import CloudServer
from repro.geo.coords import GeoPoint
from repro.shard.server import ShardedCloudServer
from repro.traces.dataset import random_representative_fovs

P = GeoPoint(40.0, 116.3)
INF, NAN = float("inf"), float("nan")

#: Query fields that pass ordered comparisons but are not a query box.
NON_FINITE = [
    pytest.param(dict(t_start=-INF, t_end=INF, radius=50.0), id="inf-window"),
    pytest.param(dict(t_start=0.0, t_end=INF, radius=50.0), id="inf-end"),
    pytest.param(dict(t_start=NAN, t_end=NAN, radius=50.0), id="nan-window"),
    pytest.param(dict(t_start=0.0, t_end=3600.0, radius=NAN), id="nan-radius"),
    pytest.param(dict(t_start=0.0, t_end=3600.0, radius=INF), id="inf-radius"),
]


def _serving(kind):
    reps = random_representative_fovs(60, np.random.default_rng(5))
    if kind == "sharded":
        server = ShardedCloudServer(CameraModel(), n_shards=3,
                                    origin=reps[0].point)
    else:
        server = CloudServer(CameraModel(), engine=kind)
    server.ingest(reps)
    return server, reps[0].point


class TestQuery:
    def test_valid(self):
        q = Query(t_start=0.0, t_end=10.0, center=P, radius=50.0)
        assert q.top_n == 10

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            Query(t_start=10.0, t_end=0.0, center=P, radius=50.0)

    def test_rejects_non_positive_radius(self):
        with pytest.raises(ValueError):
            Query(t_start=0.0, t_end=1.0, center=P, radius=0.0)

    def test_rejects_bad_top_n(self):
        with pytest.raises(ValueError):
            Query(t_start=0.0, t_end=1.0, center=P, radius=1.0, top_n=0)

    def test_instant_query_allowed(self):
        q = Query(t_start=5.0, t_end=5.0, center=P, radius=1.0)
        assert q.t_start == q.t_end

    def test_for_area_presets(self):
        # Section V-B: 20 m residential, 100 m highway.
        q = Query.for_area(0.0, 1.0, P, area="residential")
        assert q.radius == AREA_RADII["residential"] == 20.0
        q = Query.for_area(0.0, 1.0, P, area="highway")
        assert q.radius == 100.0

    def test_for_area_unknown_raises(self):
        with pytest.raises(ValueError):
            Query.for_area(0.0, 1.0, P, area="ocean")


class TestNonFiniteQuery:
    """NaN / +-inf bounds used to reach the engines, which disagreed:
    ``OverflowError`` from the packed grid and the sharded router,
    ``ValueError`` from the dynamic tree, and a silently empty answer
    from the router for a NaN window.  Construction refuses them now,
    so every server path fails the same way."""

    @pytest.mark.parametrize("fields", NON_FINITE)
    @pytest.mark.parametrize("kind", ["dynamic", "packed", "sharded"])
    def test_refused_on_every_server(self, kind, fields):
        server, center = _serving(kind)
        with pytest.raises(ValueError, match="finite"):
            server.query(Query(center=center, **fields))
        # The server keeps answering well-formed queries afterwards.
        ok = server.query(Query(t_start=0.0, t_end=86400.0, center=center,
                                radius=300.0))
        assert ok.candidates > 0


class TestQueryResult:
    def _rep(self, i):
        return RepresentativeFoV(lat=40.0, lng=116.3, theta=0.0,
                                 t_start=0.0, t_end=1.0,
                                 video_id="v", segment_id=i)

    def test_accessors(self):
        q = Query(t_start=0.0, t_end=1.0, center=P, radius=1.0)
        rows = [RankedFoV(fov=self._rep(i), distance=float(i), covers=True)
                for i in range(3)]
        res = QueryResult(query=q, ranked=rows, candidates=5, after_filter=3)
        assert len(res) == 3
        assert res.keys() == [("v", 0), ("v", 1), ("v", 2)]
        assert [f.segment_id for f in res.fovs()] == [0, 1, 2]

    def test_replace_keeps_len_meaning_ranked_rows(self):
        # len(result) is the ranked-row count, which the generated
        # NamedTuple._make mistook for the field count: _replace raised
        # "Expected 5 arguments, got 0" on every result.
        q = Query(t_start=0.0, t_end=1.0, center=P, radius=1.0)
        rows = [RankedFoV(fov=self._rep(i), distance=float(i), covers=True)
                for i in range(2)]
        for ranked in ([], rows, rows * 3):
            res = QueryResult(query=q, ranked=ranked, candidates=7)
            timed = res._replace(elapsed_s=0.25)
            assert type(timed) is QueryResult
            assert len(timed) == len(res) == len(ranked)
            assert timed == res[:4] + (0.25,)
            assert res.elapsed_s == 0.0             # original untouched
        assert QueryResult._make(res) == res
        with pytest.raises(ValueError, match="unexpected field"):
            res._replace(rows=[])
