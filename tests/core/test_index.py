"""Unit tests for the spatio-temporal FoV index (Section V-A)."""

import numpy as np
import pytest

from repro.core.fov import RepresentativeFoV
from repro.core.index import FoVIndex, fov_box, query_box
from repro.core.query import Query
from repro.geo.coords import GeoPoint
from repro.geo.earth import radius_to_degrees
from repro.traces.dataset import random_representative_fovs

P = GeoPoint(40.003, 116.326)


def rep_at(lat, lng, t0, t1, theta=0.0, vid="v", sid=0):
    return RepresentativeFoV(lat=lat, lng=lng, theta=theta,
                             t_start=t0, t_end=t1, video_id=vid, segment_id=sid)


class TestBoxes:
    def test_fov_box_is_degenerate_segment(self):
        # Section V-A: min/max share lng and lat; time spans [t_s, t_e].
        rep = rep_at(40.0, 116.0, 5.0, 9.0)
        bmin, bmax = fov_box(rep)
        assert np.allclose(bmin[:2], bmax[:2])
        assert bmin[2] == 5.0 and bmax[2] == 9.0
        assert bmin[0] == 116.0 and bmin[1] == 40.0   # lng first, lat second

    def test_query_box_conversion(self):
        q = Query(t_start=1.0, t_end=2.0, center=P, radius=100.0)
        bmin, bmax = query_box(q)
        r_lng, r_lat = radius_to_degrees(100.0, P.lat)
        assert bmax[0] - bmin[0] == pytest.approx(2 * r_lng)
        assert bmax[1] - bmin[1] == pytest.approx(2 * r_lat)
        assert (bmin[2], bmax[2]) == (1.0, 2.0)


class TestFoVIndex:
    def test_backends_agree(self, rng):
        reps = random_representative_fovs(400, rng)
        rt = FoVIndex(backend="rtree")
        lin = FoVIndex(backend="linear")
        rt.insert_many(reps)
        lin.insert_many(reps)
        assert len(rt) == len(lin) == 400
        for _ in range(20):
            center = reps[int(rng.integers(400))].point
            t0 = float(rng.uniform(0, 86000))
            q = Query(t_start=t0, t_end=t0 + 600, center=center,
                      radius=float(rng.uniform(50, 500)))
            a = sorted(f.key() for f in rt.range_search(q))
            b = sorted(f.key() for f in lin.range_search(q))
            assert a == b

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            FoVIndex(backend="btree")

    def test_linear_rejects_rtree_config(self):
        from repro.spatial.rtree import RTreeConfig
        with pytest.raises(ValueError):
            FoVIndex(backend="linear", rtree_config=RTreeConfig())

    def test_temporal_filtering(self):
        idx = FoVIndex()
        idx.insert(rep_at(P.lat, P.lng, 0.0, 10.0, sid=0))
        idx.insert(rep_at(P.lat, P.lng, 100.0, 110.0, sid=1))
        q = Query(t_start=0.0, t_end=50.0, center=P, radius=100.0)
        found = idx.range_search(q)
        assert [f.segment_id for f in found] == [0]

    def test_temporal_touching_counts(self):
        # Closed intervals: a segment ending exactly at t_start matches.
        idx = FoVIndex()
        idx.insert(rep_at(P.lat, P.lng, 0.0, 10.0))
        q = Query(t_start=10.0, t_end=20.0, center=P, radius=100.0)
        assert len(idx.range_search(q)) == 1

    def test_spatial_filtering(self):
        idx = FoVIndex()
        near = rep_at(P.lat, P.lng, 0.0, 1.0, sid=0)
        far = rep_at(P.lat + 0.1, P.lng, 0.0, 1.0, sid=1)   # ~11 km north
        idx.insert(near)
        idx.insert(far)
        q = Query(t_start=0.0, t_end=1.0, center=P, radius=200.0)
        assert [f.segment_id for f in idx.range_search(q)] == [0]

    def test_count_matches_search(self, rng):
        reps = random_representative_fovs(200, rng)
        idx = FoVIndex()
        idx.insert_many(reps)
        q = Query(t_start=0.0, t_end=86400.0, center=P, radius=3000.0)
        assert idx.count_in_range(q) == len(idx.range_search(q))

    def test_delete(self):
        idx = FoVIndex()
        rep = rep_at(P.lat, P.lng, 0.0, 1.0)
        idx.insert(rep)
        assert idx.delete(rep)
        assert len(idx) == 0
        assert not idx.delete(rep)

    def test_bulk_equals_incremental(self, rng):
        reps = random_representative_fovs(500, rng)
        inc = FoVIndex()
        inc.insert_many(reps)
        blk = FoVIndex.bulk(reps)
        assert len(blk) == len(inc)
        q = Query(t_start=0.0, t_end=86400.0, center=P, radius=2000.0)
        assert sorted(f.key() for f in blk.range_search(q)) == \
            sorted(f.key() for f in inc.range_search(q))

    def test_bulk_empty(self):
        idx = FoVIndex.bulk([])
        assert len(idx) == 0


class TestInsertMany:
    def test_one_epoch_bump_per_batch(self, rng):
        idx = FoVIndex()
        epoch = idx.epoch
        idx.insert_many(random_representative_fovs(100, rng))
        assert idx.epoch == epoch + 1

    def test_bulk_append_branch_matches_loop(self, rng):
        # A materialised tree catches up on a long pending run with one
        # STR bulk rebuild and on a short one per record; the result
        # must be indistinguishable.
        from repro.core.index import _TREE_REBUILD_MIN
        n = _TREE_REBUILD_MIN + 50
        reps = random_representative_fovs(n, rng)
        seed = random_representative_fovs(10, np.random.default_rng(7))
        bulk = FoVIndex()
        bulk.insert_many(seed)
        built = bulk.rtree()
        assert bulk.insert_many(reps) == n
        assert bulk.rtree() is not built            # rebuild branch
        loop = FoVIndex()
        loop.insert_many(seed)
        built = loop.rtree()
        for rep in reps:
            loop.insert(rep)
            assert loop.rtree() is built            # per-record branch
        assert len(built) == len(bulk.rtree()) == n + 10
        assert bulk.content_digest() == loop.content_digest()
        q = Query(t_start=0.0, t_end=86400.0, center=P, radius=3000.0)
        assert sorted(f.key() for f in bulk.range_search(q)) == \
            sorted(f.key() for f in loop.range_search(q))

    def test_non_finite_batch_rejected_atomically(self, rng):
        idx = FoVIndex()
        idx.insert_many(random_representative_fovs(20, rng))
        epoch, digest = idx.epoch, idx.content_digest()
        good = random_representative_fovs(5, rng)
        bad = rep_at(float("nan"), 116.3, 0.0, 1.0, vid="bad")
        with pytest.raises(ValueError, match="nothing from this batch"):
            idx.insert_many(good[:3] + [bad] + good[3:])
        assert idx.epoch == epoch
        assert idx.content_digest() == digest

    def test_non_finite_batch_leaves_columns_and_tree_untouched(self, rng):
        idx = FoVIndex()
        idx.insert_many(random_representative_fovs(20, rng))
        tree, view = idx.rtree(), idx.packed_view()
        records, bounds = idx.records(), idx.bounds()
        bad = rep_at(40.0, float("inf"), 0.0, 1.0, vid="bad")
        with pytest.raises(ValueError, match="nothing from this batch"):
            idx.insert_many(random_representative_fovs(5, rng) + [bad])
        assert idx.records() == records and idx.bounds() == bounds
        assert idx.rtree() is tree and len(tree) == 20
        assert idx.packed_view() is view and len(view.lat) == 20

    @pytest.mark.parametrize("backend", ["rtree", "linear"])
    def test_non_finite_theta_rejected(self, rng, backend):
        # The wire decoder refuses theta=nan; direct insertion must too,
        # or a record at a query centre (dist == 0) ranks as covering.
        idx = FoVIndex(backend=backend)
        idx.insert_many(random_representative_fovs(20, rng))
        epoch, digest = idx.epoch, idx.content_digest()
        bad = rep_at(40.0, 116.3, 0.0, 1.0, theta=float("nan"), vid="bad")
        with pytest.raises(ValueError, match="non-finite geometry in record "
                                             r"\('bad', 0\); nothing from"):
            idx.insert_many(random_representative_fovs(5, rng) + [bad])
        assert idx.epoch == epoch and idx.content_digest() == digest

    def test_insert_many_builds_no_view(self, rng, monkeypatch):
        # The write path is an append: derived views catch up when a
        # reader next asks, never inside the mutator.
        def boom(self):
            raise AssertionError("a mutator materialised a derived view")
        idx = FoVIndex()
        idx.insert_many(random_representative_fovs(10, rng))
        idx.rtree(), idx.packed_view()
        monkeypatch.setattr(FoVIndex, "packed_view", boom)
        monkeypatch.setattr(FoVIndex, "rtree", boom)
        reps = random_representative_fovs(30, rng)
        idx.insert_many(reps)
        idx.insert(reps[0])
        assert idx.delete(reps[0])
        idx.evict_older_than(40_000.0)

    def test_packed_view_is_rebuilt_per_epoch_only(self, rng):
        idx = FoVIndex()
        views = [idx.packed_view()]
        assert idx.packed_view() is views[0]
        reps = random_representative_fovs(30, rng, horizon_s=1000.0)
        for mutate in (lambda: idx.insert_many(reps[:20]),
                       lambda: idx.insert(reps[20]),
                       lambda: idx.delete(reps[3]),
                       lambda: idx.evict_older_than(500.0)):
            mutate()
            view = idx.packed_view()
            assert all(view is not v for v in views)
            assert idx.packed_view() is view and view.epoch == idx.epoch
            views.append(view)
        # An earlier snapshot stays frozen while the index moves on.
        assert len(views[1]) == len(views[1].lat) == 20
        assert [f.key() for f in views[1].records] == \
            [f.key() for f in reps[:20]]

    def test_record_columns_hold_the_rows_after_a_mark(self, rng):
        from repro.core.flatsnap import pack_snapshot, unpack_snapshot
        idx = FoVIndex()
        reps = random_representative_fovs(30, rng, horizon_s=1000.0)
        idx.insert_many(reps[:20])
        mark = idx.mark
        assert mark.count == 20 and idx.mark == mark
        everything = idx.record_columns()
        idx.insert_many(reps[20:])
        assert idx.mark.token is mark.token and idx.mark.count == 30
        tail = idx.record_columns(mark)
        assert list(tail) == reps[20:] and tail.epoch == idx.epoch
        assert list(unpack_snapshot(pack_snapshot(tail))) == reps[20:]
        assert list(idx.record_columns()) == reps
        # an earlier snapshot stays frozen while appends land
        assert list(everything) == reps[:20] and everything.epoch == 1
        # no search structure: the serving view was never built
        assert idx._packed is None and idx._base is None
        # a mark never extends another index, nor the same one past a
        # removal
        other = FoVIndex()
        other.insert_many(reps[:20])
        assert other.mark != mark and other.record_columns(mark) is None
        idx.evict_older_than(500.0)
        assert idx.mark.token is not mark.token
        assert idx.record_columns(mark) is None

    def test_packed_view_after_appends_is_the_base_plus_one_tail(self, rng):
        idx = FoVIndex()
        reps = random_representative_fovs(70, rng, horizon_s=1000.0)
        idx.insert_many(reps[:40])
        base = idx.packed_view()
        assert base.tail is None and len(base.grid) == 40
        idx.insert_many(reps[40:50])
        one = idx.packed_view()
        assert one is not base and idx.packed_view() is one
        assert one.grid is base.grid
        assert len(one) == 50 and list(one.records) == reps[:50]
        assert list(one.tail.records) == reps[40:50]
        assert one.tail.lat.tolist() == one.lat[40:].tolist()
        idx.insert(reps[50])
        two = idx.packed_view()
        assert two.grid is base.grid and list(two.tail.records) == reps[40:51]
        # the earlier view stayed frozen while the tail grew
        assert len(one) == len(one.lat) == 50 and len(one.tail) == 10
        assert list(one.records) == reps[:50]

    def test_tailed_view_answers_with_global_rows_and_full_ranking(self, rng):
        reps = random_representative_fovs(60, rng, horizon_s=1000.0)
        idx = FoVIndex()
        idx.insert_many(reps[:40])
        idx.packed_view()
        idx.insert_many(reps[40:])
        view, full = idx.packed_view(), FoVIndex.bulk(reps).packed_view()
        assert view.tail is not None and full.tail is None
        q = Query(t_start=0.0, t_end=1000.0, center=P, radius=50_000.0)
        assert sorted(view.range_search_ids(q).tolist()) == list(range(60))
        qids, ids = view.search_many_ids([q, q])
        assert qids.tolist() == [0] * 60 + [1] * 60
        assert sorted(ids[:60].tolist()) == list(range(60))
        # Tie-heavy rankings: every record survives the disc filter and
        # a coarse ranker puts them in a few score classes, so ties
        # straddle the base/tail boundary and every top_n cut.
        from repro.core.camera import CameraModel
        from repro.core.retrieval import RetrievalEngine

        class Coarse:
            def scores(self, camera, q_t_start, q_t_end, dist, dtheta,
                       t_start, t_end):
                return -np.floor(dist / 3000.0)

        def ranked(engine, queries):
            return [[(r.fov, r.distance, r.covers, r.score)
                     for r in res.ranked]
                    for res in [engine.execute(x) for x in queries]
                    + engine.execute_many(queries)]

        wide = [Query(t_start=0.0, t_end=1000.0, center=P, radius=50_000.0,
                      top_n=k) for k in (1, 5, 17, 60)]
        tailed, rebuilt = (
            RetrievalEngine(i, CameraModel(), strict_cover=False,
                            ranker=Coarse())
            for i in (idx, FoVIndex.bulk(reps)))
        assert idx.packed_view() is view
        got = ranked(tailed, wide)
        assert got == ranked(rebuilt, wide)
        assert len({s for *_, s in got[-1]}) < 20     # ties, not a total order

    def test_tie_across_the_boundary_ranks_by_key(self):
        from repro.core.camera import CameraModel
        from repro.core.retrieval import RetrievalEngine
        idx = FoVIndex()
        idx.insert_many([rep_at(P.lat, P.lng, 0.0, 1.0, vid="b", sid=s)
                         for s in range(3)])
        engine = RetrievalEngine(idx, CameraModel())
        q = Query(t_start=0.0, t_end=1.0, center=P, radius=10.0)
        assert [r.fov.key() for r in engine.execute(q).ranked] == [
            ("b", 0), ("b", 1), ("b", 2)]
        # two tail rows at the same spot: one keys before every base row,
        # one between two of them
        idx.insert_many([rep_at(P.lat, P.lng, 0.0, 1.0, vid="b", sid=1),
                         rep_at(P.lat, P.lng, 0.0, 1.0, vid="a", sid=9)])
        assert idx.packed_view().tail is not None
        want = [("a", 9), ("b", 0), ("b", 1), ("b", 1), ("b", 2)]
        assert [r.fov.key() for r in engine.execute(q).ranked] == want
        assert [r.fov.key() for r in engine.execute_many([q])[0].ranked] \
            == want

    @pytest.mark.parametrize("remove", ["delete", "evict"])
    def test_removal_rebuilds_the_view_in_full(self, rng, remove):
        idx = FoVIndex()
        reps = random_representative_fovs(50, rng, horizon_s=1000.0)
        idx.insert_many(reps[:40])
        base = idx.packed_view()
        idx.insert_many(reps[40:])
        assert idx.packed_view().tail is not None
        if remove == "delete":
            assert idx.delete(reps[0])
        else:
            assert idx.evict_older_than(500.0) > 0
        view = idx.packed_view()
        assert view.tail is None and view.grid is not base.grid
        assert len(view.grid) == len(view) == len(idx)

    def test_tail_folds_once_it_reaches_the_base(self, rng, monkeypatch):
        import repro.core.index as index_mod
        import repro.shard.replica as replica_mod
        calls = []

        def spy(base, mark):
            calls.append((base, mark))
            return fold(base, mark)
        fold = index_mod.must_fold
        monkeypatch.setattr(index_mod, "must_fold", spy)
        idx = FoVIndex()
        reps = random_representative_fovs(41, rng, horizon_s=1000.0)
        idx.insert_many(reps[:20])
        base = idx.packed_view()
        idx.insert_many(reps[20:39])
        assert idx.packed_view().grid is base.grid       # 19 < 20: a tail
        assert calls[-1][0].count == 20 and calls[-1][1].count == 39
        idx.insert(reps[39])
        view = idx.packed_view()                         # 20 rows: folds
        assert view.tail is None and len(view.grid) == 40
        idx.insert(reps[40])
        assert idx.packed_view().grid is view.grid       # the new base
        # the standby folds by the very same function
        assert replica_mod.must_fold is fold
        mark = idx.mark
        assert not fold(index_mod.ContentMark(mark.token, 21), mark)
        assert fold(index_mod.ContentMark(mark.token, 20), mark)
        assert fold(index_mod.ContentMark(object(), 40), mark)
        assert fold(index_mod.ContentMark(mark.token, 0), mark)

    def test_bounds_cover_every_record_ever_indexed(self, rng):
        for backend in ("rtree", "linear"):
            idx = FoVIndex(backend=backend)
            assert idx.bounds() is None
            reps = random_representative_fovs(40, rng, horizon_s=1000.0)
            idx.insert_many(reps[:25])
            idx.insert_many(reps[25:])
            want = (min(r.lng for r in reps), max(r.lng for r in reps),
                    min(r.lat for r in reps), max(r.lat for r in reps),
                    min(r.t_start for r in reps), max(r.t_end for r in reps))
            assert idx.bounds() == want
            idx.evict_older_than(500.0)         # removals never shrink it
            assert idx.bounds() == want

    def test_derived_views_need_the_rtree_backend(self):
        lin = FoVIndex(backend="linear")
        for read in (lin.rtree, lin.packed_view, lin.record_columns,
                     lambda: lin.mark):
            with pytest.raises(TypeError, match="requires the rtree backend"):
                read()

    def test_content_digest_is_order_independent(self, rng):
        reps = random_representative_fovs(50, rng)
        fwd, rev = FoVIndex(), FoVIndex(backend="linear")
        fwd.insert_many(reps)
        rev.insert_many(list(reversed(reps)))
        assert fwd.content_digest() == rev.content_digest()

    def test_mutation_log_is_gone(self):
        # The orphaned mutation log (mutations_since / _mutlog) was
        # removed; nothing should quietly resurrect per-insert append
        # overhead on the hot path.
        idx = FoVIndex()
        assert not hasattr(idx, "mutations_since")
        assert not hasattr(idx, "_mutlog")
        import repro.core.index as index_mod
        assert not hasattr(index_mod, "MUTATION_LOG_CAP")
