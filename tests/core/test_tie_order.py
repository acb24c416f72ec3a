"""Score ties in the packed funnel rank by record key, then by row.

The packed funnel sorts survivors by score and then by row, and reads
the record key only when a query's window of ``top_n + 1`` rows holds
a tie (or a NaN); that query's survivor run is then re-sorted under
``(-score, video_id, segment_id, row)``.  Every case below piles
records onto a few exact positions, so whole groups share a distance,
and serves them from a base view plus a tail of rows appended after it
was built.  Each query must get the same ranking from the packed
engine's ``execute``, from its ``execute_many``, from the dynamic
engine over a ``backend="linear"`` oracle, and from the packed engine
over a fresh full rebuild:

* ties that straddle the ``top_n`` cut (the window's extra row is what
  decides which tied row is returned);
* duplicate ``(video_id, segment_id)`` keys with different content,
  which rank by row -- a tail row after every base row;
* a batch whose queries each hold ties in their windows;
* a constant-score custom ranker (every survivor ties).

A NaN-scoring ranker is pinned on its own: NaN rows rank after every
scored row, by key and then by row.

The sharded router ranks every shard's survivors in one sort under
``(-score, video_id, segment_id, shard, row)``.  Its cases mirror
records exactly around the query centre, so rows on different shards
tie exactly, and check each answer against the single server and
against ``heapq.merge`` of each target shard's own ranking (the order
a per-shard scatter-gather gives):

* score ties between shards, keys distinct;
* one ``(video_id, segment_id)`` held by two shards, which ranks by
  shard and then by row;
* a tie straddling the ``top_n`` cut across shards.

``FUZZ_SEED`` (set by the CI fuzz-smoke matrix) seeds the fleets and
queries; a red run reproduces locally with
``FUZZ_SEED=<n> pytest <this file>``.
"""

from __future__ import annotations

import heapq
import math
import os
from itertools import islice

import numpy as np
import pytest

from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.index import FoVIndex
from repro.core.query import Query
from repro.core.retrieval import RetrievalEngine
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection, pairwise_local_xy
from repro.shard import ShardedCloudServer

FUZZ_SEED = int(os.environ.get("FUZZ_SEED", "0"))

CAMERA = CameraModel()
#: Two clusters 2 km apart, so a batch can hold disjoint tie groups.
CENTRES = (GeoPoint(lat=40.0, lng=116.3), GeoPoint(lat=40.018, lng=116.3))
#: Offsets (metres east, north) of the stacked positions in a cluster:
#: every record at one position has the same distance to the centre.
OFFSETS = ((0.0, 0.0), (20.0, 0.0), (0.0, -35.0), (-50.0, 10.0))
VIDS = ("a", "b", "video-long-name")
ROUNDS = 12


def fleet(rng: np.random.Generator, n: int) -> list[RepresentativeFoV]:
    """``n`` records on the clusters' stacked positions, each facing
    its cluster centre, keys from a nine-key space."""
    out = []
    for _ in range(n):
        centre = CENTRES[int(rng.integers(len(CENTRES)))]
        dx, dy = OFFSETS[int(rng.integers(len(OFFSETS)))]
        p = LocalProjection(centre).to_geo(dx, dy)
        facing = math.degrees(math.atan2(-dx, -dy)) % 360.0
        t0 = float(rng.integers(0, 6)) * 600.0
        out.append(RepresentativeFoV(
            lat=p.lat, lng=p.lng,
            theta=(facing + float(rng.integers(-5, 6))) % 360.0,
            t_start=t0, t_end=t0 + float(rng.integers(0, 3)) * 300.0,
            video_id=VIDS[int(rng.integers(len(VIDS)))],
            segment_id=int(rng.integers(0, 3))))
    return out


def queries(rng: np.random.Generator, k: int) -> list[Query]:
    return [Query(t_start=0.0, t_end=3600.0,
                  center=CENTRES[int(rng.integers(len(CENTRES)))],
                  radius=float(rng.choice([60.0, 120.0])),
                  top_n=int(rng.integers(1, 14)))
            for _ in range(k)]


def tailed(records: list[RepresentativeFoV], split: int) -> FoVIndex:
    """``records[:split]`` served as a base, the rest appended after."""
    index = FoVIndex()
    index.insert_many(records[:split])
    index.packed_view()
    index.insert_many(records[split:])
    if split < len(records):
        assert index.packed_view().tail is not None
    return index


def rows(ranked_fovs) -> list[tuple]:
    """Comparable rows: a NaN score compares equal to a NaN score."""
    return [(r.fov, r.distance, r.covers,
             "nan" if math.isnan(r.score) else r.score)
            for r in ranked_fovs]


def ranked(result) -> tuple:
    return rows(result.ranked), result.candidates, result.after_filter


def four_ways(records, split, qs, ranker=None):
    """Rankings of ``qs``: packed ``execute``, ``execute_many``, the
    dynamic engine over a linear oracle and a packed full rebuild --
    asserted equal, returned once."""
    oracle = FoVIndex(backend="linear")
    oracle.insert_many(records)
    packed = RetrievalEngine(tailed(records, split), CAMERA, ranker=ranker,
                             engine="packed")
    rebuilt = RetrievalEngine(FoVIndex.bulk(records), CAMERA, ranker=ranker,
                              engine="packed")
    dynamic = RetrievalEngine(oracle, CAMERA, ranker=ranker,
                              engine="dynamic")
    one = [ranked(packed.execute(q)) for q in qs]
    assert [ranked(r) for r in packed.execute_many(qs)] == one
    assert [ranked(dynamic.execute(q)) for q in qs] == one
    assert [ranked(rebuilt.execute(q)) for q in qs] == one
    assert [ranked(r) for r in rebuilt.execute_many(qs)] == one
    return one


def full_scores(records, q) -> list[float]:
    """Every survivor's score, best first (the oracle, no top-N cut)."""
    oracle = FoVIndex(backend="linear")
    oracle.insert_many(records)
    wide = Query(t_start=q.t_start, t_end=q.t_end, center=q.center,
                 radius=q.radius, top_n=10**6)
    engine = RetrievalEngine(oracle, CAMERA)
    return [r.score for r in engine.execute(wide).ranked]


class Flat:
    """A custom ranker that scores every survivor the same."""

    def scores(self, camera, q_t_start, q_t_end, dist, dtheta, t_start,
               t_end):
        return np.zeros(dist.shape[0])


class HalfNaN:
    """Scores ``-dist``, except NaN for records starting on an odd
    multiple of 600 s."""

    def scores(self, camera, q_t_start, q_t_end, dist, dtheta, t_start,
               t_end):
        return np.where((t_start // 600.0) % 2 == 1, np.nan, -dist)


@pytest.fixture(params=range(ROUNDS))
def rng(request):
    return np.random.default_rng([FUZZ_SEED, request.param])


def test_ties_straddling_the_cut(rng):
    records = fleet(rng, 48)
    qs = queries(rng, 6)
    four_ways(records, 30, qs)


def test_straddle_is_common_across_rounds():
    """Precondition of the test above: most rounds hold a tie across
    some query's ``top_n`` cut."""
    hits = 0
    for r in range(ROUNDS):
        g = np.random.default_rng([FUZZ_SEED, r])
        records, qs = fleet(g, 48), queries(g, 6)
        hits += any(q.top_n < len(s) and s[q.top_n - 1] == s[q.top_n]
                    for q in qs for s in [full_scores(records, q)])
    assert hits >= ROUNDS // 2


def test_duplicate_keys_rank_by_row(rng):
    """One key, several contents at one spot: base rows first, then the
    tail's, each side in row order."""
    spot = LocalProjection(CENTRES[0]).to_geo(*OFFSETS[1])
    dupes = [RepresentativeFoV(lat=spot.lat, lng=spot.lng, theta=270.0,
                               t_start=float(t), t_end=float(t) + 300.0,
                               video_id="dup", segment_id=7)
             for t in rng.permutation(8) * 60]
    records = fleet(rng, 20) + dupes[:4] + fleet(rng, 10) + dupes[4:]
    q = Query(t_start=0.0, t_end=3600.0, center=CENTRES[0], radius=200.0,
              top_n=len(records))
    (got, _, _), = four_ways(records, 26, [q])
    assert [fov for fov, *_ in got if fov.video_id == "dup"] == dupes


def test_a_batch_with_ties_in_several_windows(rng):
    records = fleet(rng, 60)
    qs = [Query(t_start=0.0, t_end=3600.0, center=c, radius=120.0,
                top_n=int(rng.integers(2, 10)))
          for c in CENTRES for _ in range(3)]
    four_ways(records, 40, qs)
    tied = sum(len(s) > 1 and any(a == b for a, b in
                                  zip(s[:q.top_n + 1], s[1:q.top_n + 1]))
               for q in qs for s in [full_scores(records, q)])
    assert tied >= 2


def test_a_constant_score_ranker_ranks_by_key_then_row(rng):
    records = fleet(rng, 40)
    qs = queries(rng, 5)
    for got, _, _ in four_ways(records, 26, qs, ranker=Flat()):
        assert all(s == 0.0 for *_, s in got)
        keys = [fov.key() for fov, *_ in got]
        assert keys == sorted(keys)


def test_nan_scores_rank_last_by_key_then_row(rng):
    """Pinned order: scored rows best first (ties by key, then row),
    then every NaN row, by key and then by row."""
    records = [RepresentativeFoV(lat=f.lat, lng=f.lng, theta=f.theta,
                                 t_start=f.t_start + row,
                                 t_end=f.t_end + row, video_id=f.video_id,
                                 segment_id=f.segment_id)
               for row, f in enumerate(fleet(rng, 40))]
    row_of = {f: row for row, f in enumerate(records)}     # all distinct
    assert len(row_of) == len(records)
    qs = queries(rng, 4) + [Query(t_start=0.0, t_end=3600.0,
                                  center=CENTRES[0], radius=120.0,
                                  top_n=40)]
    oracle = FoVIndex(backend="linear")
    oracle.insert_many(records)
    engines = [RetrievalEngine(index, CAMERA, ranker=HalfNaN(),
                               engine="packed")
               for index in (tailed(records, 26), FoVIndex.bulk(records))]
    nan_rows = 0
    for i, q in enumerate(qs):
        wide = Query(t_start=q.t_start, t_end=q.t_end, center=q.center,
                     radius=q.radius, top_n=10**6)
        every = RetrievalEngine(oracle, CAMERA, ranker=HalfNaN()).execute(
            wide).ranked
        want = sorted(every, key=lambda r: (
            math.isnan(r.score), 0.0 if math.isnan(r.score) else -r.score,
            r.fov.key(), row_of[r.fov]))[:q.top_n]
        nan_rows += sum(math.isnan(r.score) for r in want)
        for engine in engines:
            assert rows(engine.execute(q).ranked) == rows(want)
            assert rows(engine.execute_many(qs)[i].ranked) == rows(want)
    assert nan_rows > 0


#: The router cases' query centre; it and the mirror offsets are exact
#: binary fractions, so mirrored positions project to exactly opposite
#: local coordinates and exactly equal distances.
MIRROR_CENTRE = GeoPoint(lat=40.0, lng=116.3125)
STEP_DEG = 2.0 ** -14                   # 5.2 m east, 6.8 m north
#: (dlat, dlng, facing) in steps: each position faces the centre.
MIRRORS = tuple((sign * k * a, sign * k * b, facing)
                for k in (1, 2, 3)
                for a, b, facings in ((0, 1, (270.0, 90.0)),
                                      (1, 0, (180.0, 0.0)))
                for sign, facing in zip((1, -1), facings))
#: A pitch that puts every mirrored position in a cell of its own, and
#: a routing seed under which each ``k = 1`` pair lands on two shards.
MIRROR_CELL_M = 4.0
MIRROR_SEED = 3


def mirrored(rng: np.random.Generator, n: int,
             keys: int) -> list[RepresentativeFoV]:
    """``n`` records on the mirrored positions, keys from a ``keys``-key
    space."""
    out = []
    for _ in range(n):
        dlat, dlng, facing = MIRRORS[int(rng.integers(len(MIRRORS)))]
        key = int(rng.integers(keys))
        t0 = float(rng.integers(0, 6)) * 600.0
        out.append(RepresentativeFoV(
            lat=MIRROR_CENTRE.lat + dlat * STEP_DEG,
            lng=MIRROR_CENTRE.lng + dlng * STEP_DEG,
            theta=facing, t_start=t0, t_end=t0 + 300.0,
            video_id=VIDS[key % len(VIDS)], segment_id=key // len(VIDS)))
    return out


def mirror_queries(rng: np.random.Generator, k: int) -> list[Query]:
    return [Query(t_start=0.0, t_end=3600.0, center=MIRROR_CENTRE,
                  radius=float(rng.choice([8.0, 30.0])),
                  top_n=int(rng.integers(1, 14)))
            for _ in range(k)]


def router(records: list[RepresentativeFoV],
           split: int) -> ShardedCloudServer:
    """A four-shard fleet holding ``records``: ``records[:split]`` in
    the views' bases, the rest in tails appended after a read."""
    server = ShardedCloudServer(CAMERA, n_shards=4, origin=MIRROR_CENTRE,
                                cell_m=MIRROR_CELL_M, seed=MIRROR_SEED,
                                cache_size=0)
    server.ingest(records[:split])
    server.query(Query(t_start=0.0, t_end=3600.0, center=MIRROR_CENTRE,
                       radius=30.0))
    server.ingest(records[split:])
    return server


def merged(server: ShardedCloudServer, q: Query) -> tuple:
    """Each target shard's own ranking, merged by ``heapq.merge`` under
    ``(-score, key)`` in shard order."""
    parts = [RetrievalEngine(server.shards[sid], server.camera,
                             engine="packed").execute(q)
             for sid in server.partitioner.shards_for_query(q)]
    top = islice(heapq.merge(*(p.ranked for p in parts),
                             key=lambda r: (-r.score, r.fov.key())),
                 q.top_n)
    return (rows(top), sum(p.candidates for p in parts),
            sum(p.after_filter for p in parts))


def routed(records, split, qs) -> list[tuple]:
    """The router's rankings of ``qs``, one by one and as one batch --
    asserted equal to each other and to the per-shard merge."""
    server = router(records, split)
    one = [ranked(server.query(q)) for q in qs]
    assert [ranked(r) for r in server.query_many(qs)] == one
    assert [merged(server, q) for q in qs] == one
    return one


def test_mirrored_pairs_are_split_across_shards():
    """Precondition of the router cases: each ``k = 1`` mirror pair
    lands on two shards, and the pair's distances tie exactly."""
    server = router([], 0)
    for dlat, dlng in ((0, 1), (1, 0)):
        pair = [RepresentativeFoV(
            lat=MIRROR_CENTRE.lat + s * dlat * STEP_DEG,
            lng=MIRROR_CENTRE.lng + s * dlng * STEP_DEG, theta=0.0,
            t_start=0.0, t_end=1.0, video_id="p", segment_id=0)
            for s in (1, -1)]
        assert len({server.partitioner.shard_of(f) for f in pair}) == 2
        x, y = pairwise_local_xy(MIRROR_CENTRE.lat, MIRROR_CENTRE.lng,
                                 np.array([f.lat for f in pair]),
                                 np.array([f.lng for f in pair]))
        assert x[0] == -x[1] and y[0] == -y[1]


def test_router_ties_between_shards(rng):
    """Distinct keys: the router ranks as the single server does."""
    records = mirrored(rng, 30, keys=10**6)
    qs = mirror_queries(rng, 6)
    assert routed(records, 18, qs) == four_ways(records, 18, qs)


def test_router_key_held_by_two_shards(rng):
    """Four keys over every position: a duplicate key ties by shard,
    then by row."""
    records = mirrored(rng, 40, keys=4)
    q = Query(t_start=0.0, t_end=3600.0, center=MIRROR_CENTRE, radius=30.0,
              top_n=len(records))
    (got, _, n_kept), = routed(records, 24, [q])
    assert len(got) == n_kept
    server = router(records, 24)
    shards = {}
    for fov, *_ in got:
        shards.setdefault(fov.key(), set()).add(
            server.partitioner.shard_of(fov))
    assert any(len(held) > 1 for held in shards.values())


def test_router_tie_straddles_the_cut_across_shards():
    """Three rows east and three west of the centre, on two shards, all
    at one distance; a ``top_n`` of 4 cuts the tie, and the keys decide
    which rows are returned."""
    east, west = MIRRORS[0], MIRRORS[1]
    records = [RepresentativeFoV(
        lat=MIRROR_CENTRE.lat + dlat * STEP_DEG,
        lng=MIRROR_CENTRE.lng + dlng * STEP_DEG, theta=facing,
        t_start=0.0, t_end=300.0, video_id=vid, segment_id=0)
        for (dlat, dlng, facing), vid in zip(
            (east, west) * 3, ("f", "c", "e", "a", "b", "d"))]
    q = Query(t_start=0.0, t_end=3600.0, center=MIRROR_CENTRE, radius=8.0,
              top_n=4)
    (got, candidates, n_kept), = routed(records, 4, [q])
    assert (candidates, n_kept) == (6, 6)
    assert [fov.video_id for fov, *_ in got] == ["a", "b", "c", "d"]
    assert routed(records, 4, [q]) == four_ways(records, 4, [q])
