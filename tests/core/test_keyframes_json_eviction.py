"""Tests for JSON interop and index eviction."""

import json

import pytest

from repro import CloudServer, Query
from repro.core.fov import RepresentativeFoV
from repro.net.jsonio import (
    fov_from_dict,
    fov_to_dict,
    query_from_dict,
    query_to_dict,
    result_to_dict,
    result_to_json,
)
from repro.geo.coords import GeoPoint
from repro.traces.dataset import random_representative_fovs


class TestJsonIO:
    REP = RepresentativeFoV(lat=40.0, lng=116.3, theta=123.0,
                            t_start=1.0, t_end=9.0, video_id="v",
                            segment_id=4)

    def test_fov_roundtrip(self):
        back = fov_from_dict(fov_to_dict(self.REP))
        assert back == self.REP

    def test_fov_missing_field(self):
        d = fov_to_dict(self.REP)
        del d["theta"]
        with pytest.raises(ValueError, match="theta"):
            fov_from_dict(d)

    def test_query_roundtrip(self):
        q = Query(t_start=0.0, t_end=10.0, center=GeoPoint(40.0, 116.3),
                  radius=50.0, top_n=7)
        back = query_from_dict(query_to_dict(q))
        assert back == q

    def test_query_missing_field(self):
        with pytest.raises(ValueError):
            query_from_dict({"t_start": 0.0})

    def test_query_default_top_n(self):
        d = query_to_dict(Query(t_start=0.0, t_end=1.0,
                                center=GeoPoint(0, 0), radius=1.0))
        del d["top_n"]
        assert query_from_dict(d).top_n == 10

    def test_result_serialisation(self, camera, rng):
        server = CloudServer(camera)
        reps = random_representative_fovs(100, rng)
        server.ingest(reps)
        anchor = reps[0]
        res = server.query(Query(t_start=anchor.t_start - 50,
                                 t_end=anchor.t_end + 50,
                                 center=anchor.point, radius=300.0))
        payload = json.loads(result_to_json(res))
        assert payload["candidates"] == res.candidates
        assert len(payload["results"]) == len(res)
        for i, row in enumerate(payload["results"]):
            assert row["rank"] == i + 1
            assert fov_from_dict(row) == res.ranked[i].fov


class TestEviction:
    def test_evicts_by_end_time(self, camera, rng):
        server = CloudServer(camera)
        reps = random_representative_fovs(300, rng, horizon_s=1000.0)
        server.ingest(reps)
        cutoff = 500.0
        expected = sum(1 for r in reps if r.t_end < cutoff)
        assert server.evict_older_than(cutoff) == expected
        assert server.indexed_count == 300 - expected
        # No surviving record ended before the cutoff.
        for fov in server.index.records():
            assert fov.t_end >= cutoff

    def test_queries_correct_after_eviction(self, camera, rng):
        from repro.core.index import FoVIndex
        reps = random_representative_fovs(300, rng, horizon_s=1000.0)
        evicted_idx = FoVIndex()
        evicted_idx.insert_many(reps)
        evicted_idx.evict_older_than(400.0)
        fresh = FoVIndex()
        fresh.insert_many([r for r in reps if r.t_end >= 400.0])
        q = Query(t_start=0.0, t_end=1000.0,
                  center=reps[0].point, radius=3000.0)
        assert sorted(f.key() for f in evicted_idx.range_search(q)) == \
            sorted(f.key() for f in fresh.range_search(q))

    def test_evict_nothing(self, camera, rng):
        server = CloudServer(camera)
        server.ingest(random_representative_fovs(50, rng))
        assert server.evict_older_than(-1.0) == 0
        assert server.indexed_count == 50

    def test_evict_everything(self, camera, rng):
        server = CloudServer(camera)
        server.ingest(random_representative_fovs(50, rng))
        assert server.evict_older_than(1e12) == 50
        assert server.indexed_count == 0
