"""Hypothesis property test: no derived view of ``FoVIndex`` goes stale.

The rtree backend stores records in columns and derives both read
forms lazily -- ``packed_view()`` per epoch, ``rtree()`` caught up after
appends and rebuilt after removals.  The new risk is a view that
outlives the content it was built from.  One index takes a random
interleaving of ``insert`` / ``insert_many`` / ``delete`` /
``evict_older_than`` and reads, and every read must equal the
``backend="linear"`` oracle's over the same record multiset: the tree
built early and caught up, built late, invalidated by a removal, the
empty index, exact duplicate records, and ``delete`` of an absent
record all fall out of the op stream.

Records come from a coarse lattice with a tiny id space, so exact
duplicates (which ``delete`` must remove one at a time) are common.
The lattice is wider than the camera's 100 m radius, so a query's
survivors are the records at its centre, all at distance 0: every
ranking is one score tie broken by record key.  Half of all lattice
draws are the origin, and a first batch is served before the op stream
starts, so appends keep a base grid plus a live tail with tied rows on
both sides; the ``"rank"`` read form -- the packed engine's ranked rows
against the dynamic engine over the linear oracle -- searches
tie-breaking across that boundary.  (Breaking score ties by row
alone, not by record key first, fails it at ``FUZZ_SEED`` 0-3.)
``FUZZ_SEED`` (set by the CI fuzz-smoke matrix) seeds the search; a red
run reproduces locally with ``FUZZ_SEED=<n> pytest <this file>``.
"""

import os

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.index as index_mod
from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.index import FoVIndex
from repro.core.query import Query
from repro.core.retrieval import RetrievalEngine
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection

FUZZ_SEED = int(os.environ.get("FUZZ_SEED", "0"))

ORIGIN = GeoPoint(lat=40.0, lng=116.3)
PROJ = LocalProjection(ORIGIN)
CAMERA = CameraModel()

#: Half of all draws hit the origin, so records and query centres pile
#: up on one lattice point and its ties straddle every base/tail split.
lattice_m = st.one_of(st.just(0.0),
                      st.integers(-3, 3).map(lambda k: 137.0 * k))
t_edge = st.integers(0, 6).map(lambda k: 600.0 * k)


@st.composite
def record(draw):
    p = PROJ.to_geo(draw(lattice_m), draw(lattice_m))
    t0 = draw(t_edge)
    return RepresentativeFoV(
        lat=p.lat, lng=p.lng, theta=draw(st.sampled_from([0.0, 90.0, 270.0])),
        t_start=t0, t_end=t0 + draw(st.integers(0, 2)) * 300.0,
        video_id=draw(st.sampled_from(["v", "video-long-name"])),
        segment_id=draw(st.integers(0, 1)))


@st.composite
def query(draw):
    t0 = draw(t_edge)
    return Query(t_start=t0, t_end=t0 + draw(st.integers(0, 6)) * 600.0,
                 center=PROJ.to_geo(draw(lattice_m), draw(lattice_m)),
                 radius=draw(st.sampled_from([1.0, 200.0, 900.0])))


#: Which read forms a check touches: any subset, so a tree is sometimes
#: built early, sometimes late, sometimes never before a removal.
reads = st.sets(st.sampled_from(["tree", "knn", "packed", "rank",
                                 "content"]), min_size=1)

op = st.one_of(
    st.tuples(st.just("insert"), record()),
    st.tuples(st.just("insert_many"), st.lists(record(), max_size=12)),
    # delete by position in the live set, or a (probably absent) record
    st.tuples(st.just("delete"), st.one_of(st.integers(0, 40), record())),
    st.tuples(st.just("evict"), t_edge),
    st.tuples(st.just("check"), st.tuples(query(), reads)),
)


def keys(fovs):
    return sorted((f.key(), f.lat, f.lng, f.t_start, f.t_end) for f in fovs)


def ranked(result):
    return ([(r.fov.key(), r.distance, r.covers, r.score)
             for r in result.ranked], result.candidates, result.after_filter)


def check(index, oracle, q, forms):
    assert len(index) == len(oracle)
    want = keys(oracle.range_search(q))
    if "tree" in forms:
        assert keys(index.range_search(q)) == want
        assert index.count_in_range(q) == oracle.count_in_range(q)
        assert len(index.rtree()) == len(oracle)
    if "knn" in forms:
        got = index.nearest(q.center, t=q.t_start, k=5,
                            time_weight_m_per_s=1.0)
        brute = oracle.nearest_bruteforce(q.center, t=q.t_start, k=5,
                                          time_weight_m_per_s=1.0)
        assert [d for d, _ in got] == pytest.approx([d for d, _ in brute])
    if "packed" in forms:
        view = index.packed_view()
        assert view is index.packed_view()
        assert view.epoch == index.epoch and len(view) == len(oracle)
        assert keys(view.records[i]
                    for i in view.range_search_ids(q)) == want
        # The frozen columns agree with the frozen records, row by row.
        assert [(f.lat, f.lng, f.theta, f.t_start, f.t_end,
                 f.video_id, f.segment_id) for f in view.records] == list(
            zip(view.lat.tolist(), view.lng.tolist(), view.theta.tolist(),
                view.t_start.tolist(), view.t_end.tolist(),
                view.video_ids.tolist(), view.segment_ids.tolist()))
    if "rank" in forms:
        packed = RetrievalEngine(index, CAMERA, engine="packed")
        dynamic = RetrievalEngine(oracle, CAMERA, engine="dynamic")
        assert ranked(packed.execute(q)) == ranked(dynamic.execute(q))
        wide = Query(t_start=0.0, t_end=7200.0, center=q.center,
                     radius=900.0, top_n=3)
        assert ([ranked(r) for r in packed.execute_many([q, wide])]
                == [ranked(dynamic.execute(x)) for x in (q, wide)])
    if "content" in forms:
        assert keys(index.records()) == keys(oracle.records())
        assert index.content_digest() == oracle.content_digest()


@pytest.fixture(scope="module", autouse=True)
def small_rebuild_threshold():
    """Let a dozen pending appends reach the bulk catch-up branch."""
    saved = index_mod._TREE_REBUILD_MIN
    index_mod._TREE_REBUILD_MIN = 4
    yield
    index_mod._TREE_REBUILD_MIN = saved


@hypothesis.seed(FUZZ_SEED)
@settings(max_examples=150, deadline=None)
@given(st.lists(record(), max_size=24), st.lists(op, max_size=30),
       st.booleans())
def test_views_never_go_stale(first, ops, tree_first):
    index, oracle = FoVIndex(), FoVIndex(backend="linear")
    if tree_first:
        assert len(index.rtree()) == 0
    # A first batch, served before the op stream starts: later appends
    # stay a live tail until they reach its size or a removal folds them.
    index.insert_many(first)
    oracle.insert_many(first)
    index.packed_view()
    held = []                # (view, its records) pairs: must stay frozen
    for kind, arg in ops:
        epoch = index.epoch
        if kind == "insert":
            index.insert(arg)
            oracle.insert(arg)
            assert index.epoch == epoch + 1
        elif kind == "insert_many":
            assert index.insert_many(arg) == oracle.insert_many(arg)
            assert index.epoch == epoch + bool(arg)
        elif kind == "delete":
            live = oracle.records()
            victim = (arg if isinstance(arg, RepresentativeFoV)
                      else live[arg % len(live)] if live else None)
            if victim is None:
                continue
            found = oracle.delete(victim)
            assert index.delete(victim) == found
            assert index.epoch == epoch + found
        elif kind == "evict":
            n = oracle.evict_older_than(arg)
            assert index.evict_older_than(arg) == n
            assert index.epoch == epoch + bool(n)
        else:
            q, forms = arg
            check(index, oracle, q, forms)
            if "packed" in forms:
                view = index.packed_view()
                held.append((view, list(view.records), view.lat.copy(),
                             view.video_ids.copy()))
    check(index, oracle, Query(t_start=0.0, t_end=7200.0, center=ORIGIN,
                               radius=2000.0),
          {"tree", "knn", "packed", "rank", "content"})
    # Views handed out earlier were never written through.
    for view, recs, lat, vids in held:
        assert list(view.records) == recs
        assert np.array_equal(view.lat, lat)
        assert np.array_equal(view.video_ids, vids)
