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

``FUZZ_SEED`` (set by the CI fuzz-smoke matrix) seeds the fleets and
queries; a red run reproduces locally with
``FUZZ_SEED=<n> pytest <this file>``.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.index import FoVIndex
from repro.core.query import Query
from repro.core.retrieval import RetrievalEngine
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection

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
