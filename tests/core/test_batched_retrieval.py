"""Packed-engine parity, batching, and clock injection.

The packed engine's whole contract is "identical results, faster":
these tests pin the bit-identical half of it on seeded workloads, for
single queries and batched ``execute_many``; plus the injectable-clock
determinism and the mask-first ranking invariant.

Every packed engine here is built twice: bare (``obs=None``) and the
way a server owns one (``obs=Observability.default()``).  Both run the
one packed funnel -- a single query is its ``n = 1`` case -- so both
are held to the oracle's answers (:func:`repro.core.oracle.answer`)
directly.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import CameraModel
from repro.core.index import FoVIndex, query_box_floats
from repro.core.oracle import answer
from repro.core.query import Query
from repro.core.ranking import CompositeRanker
from repro.core.retrieval import RetrievalEngine
from repro.core.server import CloudServer
from repro.geo.coords import GeoPoint
from repro.obs import Observability
from repro.spatial import grid as grid_mod
from repro.traces.dataset import random_representative_fovs
from repro.traces.scenarios import CITY_ORIGIN

CAMERA = CameraModel(half_angle=30.0, radius=100.0)


def workload(seed, n_records, n_queries, radius_hi=400.0):
    rng = np.random.default_rng(seed)
    reps = random_representative_fovs(n_records, rng)
    queries = []
    for _ in range(n_queries):
        anchor = reps[int(rng.integers(len(reps)))]
        queries.append(Query(
            t_start=max(0.0, anchor.t_start - 300.0),
            t_end=anchor.t_end + 300.0,
            center=anchor.point,
            radius=float(rng.uniform(50.0, radius_hi)),
            top_n=int(rng.integers(1, 20))))
    return FoVIndex.bulk(reps), queries


#: How a packed engine's instruments are built: none, or a server's.
OBS_FACTORIES = {"bare": lambda: None, "server-owned": Observability.default}
obs_configs = pytest.mark.parametrize("make_obs", OBS_FACTORIES.values(),
                                      ids=OBS_FACTORIES.keys())


def oracle(index, **kwargs):
    """The reference engine: ``oracle(q)`` is ``answer`` over ``index``."""
    return partial(answer, index, camera=CAMERA, **kwargs)


def ranking(result):
    return [(r.fov.key(), r.distance, r.covers) for r in result.ranked]


def assert_same(got, want):
    assert got.candidates == want.candidates
    assert got.after_filter == want.after_filter
    assert ranking(got) == ranking(want)


class TestPackedParity:
    make_obs = staticmethod(OBS_FACTORIES["bare"])

    def packed(self, index, **kwargs):
        return RetrievalEngine(index, CAMERA, obs=self.make_obs(), **kwargs)

    @pytest.mark.parametrize("strict", [True, False])
    def test_execute_matches_dynamic(self, strict):
        """The reference is the oracle, the old dynamic engine's path."""
        index, queries = workload(7, 2000, 40)
        ref = oracle(index, strict_cover=strict)
        pck = self.packed(index, strict_cover=strict)
        for q in queries:
            assert_same(pck.execute(q), ref(q))

    def test_execute_many_matches_sequential(self):
        index, queries = workload(11, 2000, 48)
        pck = self.packed(index)
        batched = pck.execute_many(queries)
        for got, q in zip(batched, queries):
            assert_same(got, pck.execute(q))

    def test_composite_ranker_parity(self):
        index, queries = workload(13, 1500, 24)
        ranker = CompositeRanker()
        ref = oracle(index, ranker=ranker)
        pck = self.packed(index, ranker=ranker)
        for got, q in zip(pck.execute_many(queries), queries):
            assert_same(got, ref(q))

    def test_packed_tracks_mutations_via_epoch(self):
        index, queries = workload(19, 400, 8)
        ref = oracle(index)
        pck = self.packed(index)
        for q in queries:
            assert_same(pck.execute(q), ref(q))
        extra = random_representative_fovs(50, np.random.default_rng(20))
        index.insert_many(extra)
        for q in queries:
            assert_same(pck.execute(q), ref(q))

    def test_packed_invalidated_by_delete_and_evict(self):
        """Non-incremental mutations must invalidate the packed view.

        The packed serving story (flat snapshots, result caching)
        hangs off the epoch: a delete or retention eviction bumps it,
        so the next packed read rebuilds instead of serving a stale
        snapshot containing the removed records.
        """
        index, queries = workload(43, 600, 10)
        ref = oracle(index)
        pck = self.packed(index)
        stale = index.packed_view()
        victim = index.records()[0]
        assert index.delete(victim)
        fresh = index.packed_view()
        assert fresh is not stale and fresh.epoch != stale.epoch
        assert len(fresh) == len(stale) - 1
        for q in queries:
            assert_same(pck.execute(q), ref(q))
        cutoff = float(np.median([r.t_end for r in index.records()]))
        assert index.evict_older_than(cutoff) > 0
        assert index.packed_view().epoch == index.epoch
        for q in queries:
            assert_same(pck.execute(q), ref(q))

    def test_empty_batch(self):
        index, _ = workload(23, 100, 1)
        assert self.packed(index).execute_many([]) == []

    def test_unknown_engine_rejected(self):
        index, _ = workload(23, 10, 1)
        with pytest.raises(ValueError):
            CloudServer(CAMERA, index=index, engine="turbo")

    def test_packed_requires_rtree_backend(self):
        eng = self.packed(FoVIndex(backend="linear"))
        with pytest.raises(TypeError):
            eng.execute(Query(t_start=0.0, t_end=1.0, center=CITY_ORIGIN,
                              radius=100.0))


class TestPackedParityServerOwned(TestPackedParity):
    """The same contract for the engine a ``CloudServer`` constructs."""

    make_obs = staticmethod(OBS_FACTORIES["server-owned"])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), strict=st.booleans(),
       obs=st.sampled_from(sorted(OBS_FACTORIES)))
def test_prop_batched_equals_sequential(seed, strict, obs):
    """execute_many on the packed engine == one-at-a-time, any workload."""
    index, queries = workload(seed, 300, 12)
    ref = oracle(index, strict_cover=strict)
    pck = RetrievalEngine(index, CAMERA, strict_cover=strict,
                          obs=OBS_FACTORIES[obs]())
    want = [ref(q) for q in queries]
    for got, ref in zip(pck.execute_many(queries), want):
        assert_same(got, ref)
    for q, ref in zip(queries, want):
        assert_same(pck.execute(q), ref)


class SpyRanker:
    """A custom ranker that records how many rows each call scores."""

    def __init__(self):
        self.seen: list[int] = []

    def scores(self, camera, q_t_start, q_t_end, dist, dtheta, t_start,
               t_end):
        self.seen.append(len(dist))
        return -np.asarray(dist, dtype=float) - 0.01 * np.asarray(dtheta)


def rows(result):
    """Everything a result carries except its wall time."""
    return (result.query, result.ranked, result.candidates,
            result.after_filter)


#: Five degrees off the city: its box touches no record.
FAR_AWAY = Query(t_start=0.0, t_end=1.0, radius=50.0, center=GeoPoint(
    lat=CITY_ORIGIN.lat + 5.0, lng=CITY_ORIGIN.lng + 5.0))


@obs_configs
class TestSingleQueryIsTheBatchOfOne:
    """``execute(q) == execute_many([q])[0] == execute_many(batch)[i]``.

    Equality is on whole rows -- record, distance, covers *and* score
    -- plus both funnel counters: the single query runs the batched
    kernels on scalar operands, so not one double may differ.
    """

    def check(self, index, queries, make_obs, **kwargs):
        pck = RetrievalEngine(index, CAMERA, obs=make_obs(), **kwargs)
        ref = oracle(index, **kwargs)
        batched = pck.execute_many(queries)
        assert len(batched) == len(queries)
        for q, from_batch in zip(queries, batched):
            single = pck.execute(q)
            [batch_of_one] = pck.execute_many([q])
            assert rows(single) == rows(batch_of_one) == rows(from_batch)
            assert_same(single, ref(q))
        return batched

    @pytest.mark.parametrize("strict", [True, False])
    def test_both_cover_predicates(self, make_obs, strict):
        index, queries = workload(47, 2000, 24)
        batched = self.check(index, queries, make_obs, strict_cover=strict)
        assert any(r.after_filter for r in batched)

    def test_rankers_with_and_without_scores_batch(self, make_obs):
        """A non-default ranker: its per-row query windows broadcast in
        a single query and gather per pair in a batch."""
        index, queries = workload(53, 1500, 16)
        self.check(index, queries, make_obs, ranker=CompositeRanker())

    def test_empty_index(self, make_obs):
        index, queries = workload(59, 50, 3)
        empty = FoVIndex()
        for result in self.check(empty, queries, make_obs):
            assert rows(result)[1:] == ([], 0, 0)

    def test_zero_candidate_query_alone_and_inside_a_batch(self, make_obs):
        index, queries = workload(61, 800, 6)
        mixed = queries[:3] + [FAR_AWAY] + queries[3:]
        batched = self.check(index, mixed, make_obs)
        assert rows(batched[3])[1:] == ([], 0, 0)
        self.check(index, [FAR_AWAY], make_obs)

    def test_zero_survivors_never_reach_the_ranker(self, make_obs):
        """Mask-first on the packed funnel, single and batched."""
        index, queries = workload(37, 1000, 12)
        ranker = SpyRanker()
        eng = RetrievalEngine(index, CAMERA, ranker=ranker,
                              obs=make_obs())
        for q in queries + [FAR_AWAY]:
            ranker.seen.clear()
            res = eng.execute(q)
            assert ranker.seen == ([res.after_filter] if res.after_filter
                                   else [])
        # A batch scores every query's survivors in one call.
        ranker.seen.clear()
        results = eng.execute_many(queries + [FAR_AWAY])
        survivors = sum(r.after_filter for r in results)
        assert ranker.seen == ([survivors] if survivors else [])

    def test_a_candidate_nothing_covers(self, make_obs):
        """In the box, outside every sector: counted, never scored."""
        [lone] = random_representative_fovs(1, np.random.default_rng(41))
        # ~167 m north of a camera whose sector reaches 100 m.
        behind = Query(t_start=lone.t_start, t_end=lone.t_end, radius=400.0,
                       center=GeoPoint(lat=lone.lat + 0.0015, lng=lone.lng))
        ranker = SpyRanker()
        for result in self.check(FoVIndex.bulk([lone]), [behind, behind],
                                 make_obs, ranker=ranker):
            assert rows(result)[1:] == ([], 1, 0)
        assert ranker.seen == []

    @pytest.mark.parametrize("slab_loop_max", [0, 10**9],
                             ids=["vectorised-scan", "slab-loop"])
    def test_either_side_of_the_grid_slab_cutoff(self, make_obs, monkeypatch,
                                                 slab_loop_max):
        """Narrow and city-wide boxes through each ``search_ids`` branch."""
        index, queries = workload(67, 6000, 10)
        citywide = Query(t_start=0.0, t_end=1e9, center=queries[0].center,
                         radius=50_000.0, top_n=25)
        grid = index.packed_view().grid
        assert grid.width * grid.height > grid_mod._CELL_LOOP_MAX
        monkeypatch.setattr(grid_mod, "_CELL_LOOP_MAX", slab_loop_max)
        batched = self.check(index, queries + [citywide], make_obs)
        assert batched[-1].candidates == len(index)


class TestSingleQueryBookkeeping:
    @obs_configs
    def test_two_clock_reads_per_execute(self, make_obs):
        index, queries = workload(71, 300, 6)
        reads: list[float] = []

        def clock():
            reads.append(float(len(reads)))
            return reads[-1]

        eng = RetrievalEngine(index, CAMERA, clock=clock,
                              obs=make_obs())
        for n, q in enumerate(queries + [FAR_AWAY], start=1):
            assert eng.execute(q).elapsed_s == 1.0
            assert len(reads) == 2 * n

    def test_one_descent_counted_per_execute(self):
        index, queries = workload(73, 300, 6)
        # The same records as a base plus a tail of the last 100.
        reps = random_representative_fovs(300, np.random.default_rng(73))
        tailed = FoVIndex()
        tailed.insert_many(reps[:200])
        tailed.packed_view()
        tailed.insert_many(reps[200:])
        assert tailed.packed_view().tail is not None
        for idx in (index, tailed):
            obs = Observability.default()
            eng = RetrievalEngine(idx, CAMERA, obs=obs)
            reg = obs.registry
            descents = reg.get("packed.descents")
            results = []
            for n, q in enumerate(queries + [FAR_AWAY], start=1):
                results.append(eng.execute(q))
                assert descents.value == n
            results += eng.execute_many(queries)
            assert descents.value == len(queries) + 2   # one per batch
            matched = reg.get("packed.entries_matched").value
            assert matched == sum(r.candidates for r in results) > 0
            # Each query reads its rows of every grid twice: once alone
            # and once in the batch (FAR_AWAY reads none).
            view = idx.packed_view()
            grids = [view.grid] + ([view.tail.grid] if view.tail else [])
            read = []
            for grid in grids:
                tally = [0, 0]
                for q in queries:
                    b = query_box_floats(q)
                    grid.search_ids(b[:3], b[3:], None, tally)
                read.append(tally[1])
            assert len(read) == (2 if idx is tailed else 1)
            assert min(read) > 0
            tested = reg.get("packed.entries_tested").value
            assert tested == 2 * sum(read) >= matched

    def test_frontier_peak_never_falls(self):
        obs = Observability.default()
        index, queries = workload(79, 500, 4)
        eng = RetrievalEngine(index, CAMERA, obs=obs)
        tested = obs.registry.get("packed.entries_tested")
        peak = obs.registry.get("packed.frontier_width_peak")
        widest = 0
        for q in [queries[0], FAR_AWAY, *queries[1:]]:
            before = tested.value
            eng.execute(q)
            widest = max(widest, tested.value - before)
            assert peak.value == widest
        assert widest > 0
        before = tested.value
        eng.execute_many(queries)       # one pass over every query's rows
        batch = tested.value - before
        assert batch >= widest and peak.value == batch
        eng.execute(FAR_AWAY)           # reads no row: the peak holds
        assert peak.value == batch


class TestClockInjection:
    def test_fake_clock_yields_deterministic_elapsed(self):
        index, queries = workload(29, 200, 4)
        ticks = iter(float(i) for i in range(100))
        eng = RetrievalEngine(index, CAMERA, clock=lambda: next(ticks))
        res = eng.execute(queries[0])
        assert res.elapsed_s == 1.0        # exactly two clock reads apart

    def test_batch_elapsed_is_shared(self):
        index, queries = workload(31, 200, 4)
        ticks = iter([10.0, 18.0])
        eng = RetrievalEngine(index, CAMERA, clock=lambda: next(ticks))
        results = eng.execute_many(queries)
        assert [r.elapsed_s for r in results] == [2.0] * 4

    def test_core_reads_no_clock_itself(self):
        # The RF005 lint gate enforces this statically; spot-check that
        # retrieval imports its default timer from outside the core.
        import repro.core.retrieval as mod
        assert mod.default_timer.__module__ == "repro.net.clock"


class TestMaskFirstRanking:
    def test_ranker_sees_only_survivors(self):
        index, queries = workload(37, 1000, 12)
        ranker = SpyRanker()
        for q in queries:
            ranker.seen.clear()
            res = answer(index, q, CAMERA, ranker=ranker)
            if res.after_filter == 0:
                assert ranker.seen == []   # nothing survived: never called
            else:
                assert ranker.seen == [res.after_filter]
