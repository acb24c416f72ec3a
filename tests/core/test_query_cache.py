"""Epoch-tagged LRU query-result cache, alone and behind the server."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import CameraModel, CloudServer, Query
from repro.core.cache import QueryResultCache, query_cache_key, read_through
from repro.core.index import FoVIndex
from repro.obs.metrics import MetricsRegistry
from repro.traces.dataset import random_representative_fovs

CAMERA = CameraModel(half_angle=30.0, radius=100.0)


def ranking(result):
    return [(r.fov.key(), r.distance, r.covers) for r in result.ranked]


class TestQueryResultCache:
    def test_round_trip(self):
        c = QueryResultCache(4)
        c.put("k", 0, "v")
        assert c.get("k", 0) == "v"
        assert len(c) == 1

    def test_miss_returns_none(self):
        assert QueryResultCache(4).get("nope", 0) is None

    def test_epoch_mismatch_is_a_miss_and_evicts(self):
        c = QueryResultCache(4)
        c.put("k", 0, "v")
        assert c.get("k", 1) is None
        assert len(c) == 0                 # stale entry dropped on sight
        assert c.get("k", 0) is None       # gone even for the old epoch

    def test_lru_eviction_order(self):
        c = QueryResultCache(2)
        c.put("a", 0, 1)
        c.put("b", 0, 2)
        assert c.get("a", 0) == 1          # refresh "a": "b" is now LRU
        c.put("c", 0, 3)
        assert c.get("b", 0) is None
        assert c.get("a", 0) == 1 and c.get("c", 0) == 3

    def test_put_overwrites(self):
        c = QueryResultCache(2)
        c.put("k", 0, "old")
        c.put("k", 1, "new")
        assert len(c) == 1
        assert c.get("k", 1) == "new"

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            QueryResultCache(0)
        assert QueryResultCache(1).capacity == 1

    def test_clear(self):
        c = QueryResultCache(4)
        c.put("k", 0, "v")
        c.clear()
        assert len(c) == 0 and c.get("k", 0) is None

    def test_query_key_identity(self):
        rng = np.random.default_rng(3)
        rep = random_representative_fovs(1, rng)[0]
        q1 = Query(t_start=0.0, t_end=10.0, center=rep.point, radius=100.0)
        q2 = Query(t_start=0.0, t_end=10.0, center=rep.point, radius=100.0)
        assert query_cache_key(q1) == query_cache_key(q2)
        q3 = Query(t_start=0.0, t_end=10.0, center=rep.point, radius=100.0,
                   top_n=3)
        assert query_cache_key(q1) != query_cache_key(q3)


class TestReadThrough:
    def setup_method(self):
        reg = MetricsRegistry()
        self.hits = reg.counter("query.cache_hits", "")
        self.misses = reg.counter("query.cache_misses", "")
        self.epoch = 0
        self.computed = []

    def read(self, cache, keys, bump=False):
        def compute(missed):
            self.computed.append(list(missed))
            if bump:                       # a writer lands mid-compute
                self.epoch += 1
            return [keys[i].upper() for i in missed]
        return read_through(cache, keys, lambda: self.epoch, compute,
                            self.hits, self.misses)

    def test_only_misses_are_computed_and_then_cached(self):
        cache = QueryResultCache(8)
        cache.put("b", 0, "B")
        assert self.read(cache, ["a", "b", "c"]) == ["A", "B", "C"]
        assert self.computed == [[0, 2]]
        assert (self.hits.value, self.misses.value) == (1, 2)
        assert self.read(cache, ["a", "b", "c"]) == ["A", "B", "C"]
        assert self.computed == [[0, 2]]          # second pass: all hits
        assert (self.hits.value, self.misses.value) == (4, 2)
        assert (cache.hits, cache.misses) == (4, 2)

    def test_result_that_raced_a_mutation_is_served_not_cached(self):
        cache = QueryResultCache(8)
        assert self.read(cache, ["a"], bump=True) == ["A"]
        assert len(cache) == 0
        assert self.read(cache, ["a"]) == ["A"]   # quiet this time: cached
        assert len(cache) == 1 and self.computed == [[0], [0]]

    def test_without_a_cache_everything_is_computed_uncounted(self):
        assert self.read(None, ["a", "b"]) == ["A", "B"]
        assert self.computed == [[0, 1]]
        assert (self.hits.value, self.misses.value) == (0, 0)


def make_server(seed=5, n=400, **kw):
    rng = np.random.default_rng(seed)
    reps = random_representative_fovs(n, rng)
    server = CloudServer(CAMERA, index=FoVIndex.bulk(reps), **kw)
    queries = [Query(t_start=max(0.0, r.t_start - 300.0),
                     t_end=r.t_end + 300.0, center=r.point,
                     radius=200.0)
               for r in reps[:10]]
    return server, queries, reps


class TestServerCache:
    def test_hit_equals_cold_miss(self):
        server, queries, _ = make_server()
        cold = [server.query(q) for q in queries]
        warm = [server.query(q) for q in queries]
        assert server.stats.cache_misses == len(queries)
        assert server.stats.cache_hits == len(queries)
        assert server.stats.queries_served == 2 * len(queries)
        for a, b in zip(cold, warm):
            assert ranking(a) == ranking(b)
            assert a.candidates == b.candidates

    def test_insert_invalidates(self, rng):
        server, queries, _ = make_server()
        q = queries[0]
        server.query(q)
        server.ingest(random_representative_fovs(5, rng))
        server.query(q)
        assert server.stats.cache_hits == 0
        assert server.stats.cache_misses == 2

    def test_hit_equals_cold_after_interleaved_inserts(self, rng):
        """The acceptance property: whatever mutations interleave, a
        reported cache hit always equals recomputing from scratch."""
        server, queries, _ = make_server()
        reference = CloudServer(CAMERA, index=server.index, cache_size=0)
        for round_ in range(4):
            for q in queries:
                for _ in range(2):         # second pass served from cache
                    cached = server.query(q)
                    fresh = reference.query(q)
                    assert ranking(cached) == ranking(fresh)
                    assert cached.candidates == fresh.candidates
            server.ingest(random_representative_fovs(7, rng))
        assert server.stats.cache_hits > 0
        assert server.stats.cache_misses > 0

    def test_eviction_invalidates(self):
        server, queries, reps = make_server()
        q = queries[0]
        before = server.query(q)
        cutoff = float(np.median([r.t_end for r in reps])) + 1.0
        assert server.evict_older_than(cutoff) > 0
        after = server.query(q)
        assert server.stats.cache_hits == 0
        assert after.candidates <= before.candidates

    def test_cache_disabled(self):
        server, queries, _ = make_server(cache_size=0)
        server.query(queries[0])
        server.query(queries[0])
        assert server.stats.cache_hits == 0
        assert server.stats.cache_misses == 0

    def test_query_many_partitions_hits_and_misses(self):
        server, queries, _ = make_server(engine="packed")
        cold = server.query_many(queries)
        assert server.stats.cache_misses == len(queries)
        mixed = server.query_many(queries + queries[:3])
        assert server.stats.cache_hits == len(queries) + 3
        assert len(mixed) == len(queries) + 3
        for a, b in zip(cold, mixed):
            assert ranking(a) == ranking(b)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_prop_cached_never_diverges_from_fresh(seed):
    rng = np.random.default_rng(seed)
    server, queries, _ = make_server(seed=seed)
    fresh = CloudServer(CAMERA, index=server.index, cache_size=0)
    for q in queries:
        if rng.random() < 0.3:
            server.ingest(random_representative_fovs(3, rng))
        assert ranking(server.query(q)) == ranking(fresh.query(q))
        assert ranking(server.query(q)) == ranking(fresh.query(q))
