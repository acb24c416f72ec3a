"""Boundary cases of the packed single-query read path, answered three ways.

Each case is a small fleet placed on the boundaries the read path's
kernels decide on, and every query must get the same answer from the
packed engine's ``execute(q)``, from its ``execute_many`` (``q`` in a
batch whose windows all match it, and in one with a narrow window that
makes the batched box test compare its time rows), and from the dynamic
engine over a ``backend="linear"`` oracle:

* azimuths 359 and 1 degrees around a bearing of 0 (the Eq. 2 wrap);
* a camera exactly at the query centre (``dist == 0``);
* a camera exactly ``camera.radius`` from it (the camera model's
  radius *is* that record's computed distance);
* records on the four corners of the query box, and one ulp outside;
* windows equal to, one ulp inside and one ulp outside the grid's
  start-time extent ``[t0, t1]`` -- where the box test stops or starts
  comparing its time rows (spatial/grid.py, module note);
* a view with a tail whose time extent differs from its base's, so one
  search takes the four-row test on one grid and not on the other;
* sector boxes (strict cover hands the filter only the box hits whose
  sector box holds the centre): the centre on each edge ray at
  ``theta +- alpha`` (and 1e-9 or 3e-5 degrees either side), on the arc
  at ``R``, at the apex (``dist == 0``) and at each compass extreme the
  arc spans; azimuths 359/1, azimuths on a bin edge and a bin's last
  double; stored azimuths -30, 720 and 1e12 (whose ``theta - bearing``
  rounds by ~6e-5 degrees); fleets at |lat| 89.9; a visit whose box
  hits all fail their sector box.  Mutation checks pin that a zero
  margin, a dropped compass extreme or unwidened bins each break
  parity on these fleets.

``FUZZ_SEED`` (set by the CI fuzz-smoke matrix) seeds the query centre,
the background records and the placement angles; a red run reproduces
locally with ``FUZZ_SEED=<n> pytest <this file>``.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

import repro.spatial.grid as grid_mod
from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.index import FoVIndex, query_box_floats
from repro.core.query import Query
from repro.core.retrieval import RetrievalEngine, _sector_evidence
from repro.geo.coords import GeoPoint
from repro.geo.earth import (_DEG_PER_RAD, _RAD_PER_DEG, LocalProjection,
                             pairwise_local_xy)
from repro.geometry.angles import angular_difference

FUZZ_SEED = int(os.environ.get("FUZZ_SEED", "0"))

#: Start-time extent of every base fleet (records start at both ends).
T0, T1 = 1000.25, 4600.75
#: Start-time extent of the tail appended after the base is served.
TT0, TT1 = T1 + 100.5, T1 + 700.25
#: Query radius; the box corners sit ~85 m from the centre.
Q_RADIUS = 60.0


def local_xy(centre: GeoPoint, p: GeoPoint) -> tuple[float, float]:
    """``p`` in the engines' local plane around ``centre``, same doubles."""
    x, y = pairwise_local_xy(centre.lat, centre.lng,
                             np.array([p.lat]), np.array([p.lng]))
    return float(x[0]), float(y[0])


def facing(centre: GeoPoint, p: GeoPoint) -> float:
    """Azimuth of a camera at ``p`` pointing at ``centre``."""
    x, y = local_xy(centre, p)
    return math.degrees(math.atan2(-x, -y)) % 360.0


class Fleet:
    """Records on the read path's boundaries around one query centre."""

    def __init__(self, rng: np.random.Generator, t0: float, t1: float,
                 tag: str, centre: GeoPoint | None = None) -> None:
        self.centre = centre or GeoPoint(
            lat=40.0 + float(rng.uniform(-0.01, 0.01)),
            lng=116.3 + float(rng.uniform(-0.01, 0.01)))
        self.proj = LocalProjection(self.centre)
        self.tag = tag
        self.records: list[RepresentativeFoV] = []
        c = self.centre
        # Background: random positions, azimuths and intervals.
        for _ in range(80):
            r = 1.5 * Q_RADIUS * math.sqrt(float(rng.uniform()))
            a = float(rng.uniform(0.0, 2.0 * math.pi))
            ts = float(rng.uniform(t0, t1))
            self.add(self.proj.to_geo(r * math.sin(a), r * math.cos(a)),
                     float(rng.uniform(0.0, 360.0)), ts,
                     ts + float(rng.uniform(0.0, 300.0)))
        # The window boundary: zero-length segments at both ends of the
        # start-time extent, facing the centre from a few metres south.
        south = self.proj.to_geo(0.0, -7.0)
        self.add(south, 0.0, t0, t0)
        self.add(south, 1.0, t1, t1)
        self.add(south, 359.0, t1, t1 + 60.0)
        # dist == 0: every azimuth covers the centre; all tie on score.
        for theta in (0.0, 90.0, 180.0, 359.0):
            self.add(c, theta, t0, t1)
        # The wrap: due south (bearing -0.0) and half a metre either side.
        for d in (5.0, 40.0):
            for dx in (0.0, -0.5, 0.5):
                p = self.proj.to_geo(dx, -d)
                for theta in (359.0, 1.0, 0.0, 330.0, 30.0, 329.5, 30.5):
                    self.add(p, theta, t0, t1)
        # dist == camera.radius: the camera model is built from it.
        a = float(rng.uniform(0.0, 2.0 * math.pi))
        edge = self.proj.to_geo(45.0 * math.sin(a), 45.0 * math.cos(a))
        x, y = local_xy(c, edge)
        self.camera = CameraModel(radius=float(np.sqrt(x * x + y * y)))
        self.add(edge, facing(c, edge), t0, t1)
        beyond = self.proj.to_geo(45.001 * math.sin(a), 45.001 * math.cos(a))
        self.add(beyond, facing(c, beyond), t0, t1)
        # The query box's corners, and one ulp outside each.
        lng_lo, lat_lo, _, lng_hi, lat_hi, _ = query_box_floats(
            self.query(t0, t1))
        for lat, out_lat in ((lat_lo, -math.inf), (lat_hi, math.inf)):
            for lng, out_lng in ((lng_lo, -math.inf), (lng_hi, math.inf)):
                on = GeoPoint(lat=lat, lng=lng)
                self.add(on, facing(c, on), t0, t1)
                off = GeoPoint(lat=math.nextafter(lat, out_lat),
                               lng=math.nextafter(lng, out_lng))
                self.add(off, facing(c, off), t0, t1)

    def add(self, p: GeoPoint, theta: float, t_start: float,
            t_end: float) -> None:
        self.records.append(RepresentativeFoV(
            lat=p.lat, lng=p.lng, theta=theta, t_start=t_start,
            t_end=t_end, video_id=f"{self.tag}{len(self.records) % 5}",
            segment_id=len(self.records)))

    def query(self, t_start: float, t_end: float,
              top_n: int = 1000) -> Query:
        return Query(t_start=t_start, t_end=t_end, center=self.centre,
                     radius=Q_RADIUS, top_n=top_n)

    def in_box(self, q: Query) -> int:
        """How many records intersect ``q``'s closed 3-D box."""
        lng_lo, lat_lo, t_lo, lng_hi, lat_hi, t_hi = query_box_floats(q)
        return sum(1 for f in self.records
                   if lng_lo <= f.lng <= lng_hi and lat_lo <= f.lat <= lat_hi
                   and f.t_start <= t_hi and f.t_end >= t_lo)


def windows(lo: float, hi: float) -> list[tuple[float, float]]:
    """``[lo, hi]`` equal, one ulp inside and one ulp outside, per end."""
    return [(a, b)
            for a in (lo, math.nextafter(lo, math.inf),
                      math.nextafter(lo, -math.inf))
            for b in (hi, math.nextafter(hi, -math.inf),
                      math.nextafter(hi, math.inf))]


def answers(result) -> tuple[list, int, int]:
    return ([(r.fov.key(), r.distance, r.covers, r.score)
             for r in result.ranked], result.candidates, result.after_filter)


def engines(records, camera, strict_cover, tail=()):
    """Packed engine (base served, then ``tail`` appended) and the
    dynamic engine over a linear oracle holding the same records."""
    index, oracle = FoVIndex(), FoVIndex(backend="linear")
    index.insert_many(records)
    index.packed_view()
    if tail:
        index.insert_many(tail)
    oracle.insert_many(list(records) + list(tail))
    return (RetrievalEngine(index, camera, strict_cover=strict_cover,
                            engine="packed"),
            RetrievalEngine(oracle, camera, strict_cover=strict_cover,
                            engine="dynamic"))


def check(packed, dynamic, q: Query) -> tuple[list, int, int]:
    """The three ways agree on ``q``; returns the answer."""
    want = answers(dynamic.execute(q))
    assert answers(packed.execute(q)) == want
    narrow = Query(t_start=q.t_start, t_end=q.t_start + 1.0,
                   center=q.center, radius=q.radius)
    for batch in ([q, q], [narrow, q]):
        assert answers(packed.execute_many(batch)[1]) == want
    return want


@pytest.mark.parametrize("strict_cover", [True, False])
def test_one_grid(strict_cover):
    fleet = Fleet(np.random.default_rng(FUZZ_SEED), T0, T1, "b")
    packed, dynamic = engines(fleet.records, fleet.camera, strict_cover)
    grid = packed.index.packed_view().grid
    assert (grid.t0, grid.t1) == (T0, T1)
    got = {w: check(packed, dynamic, fleet.query(*w))
           for w in windows(T0, T1)}
    check(packed, dynamic, fleet.query(T0, T1, top_n=3))
    # Not vacuous: the boundary records are found on the whole window
    # and dropped one ulp inside it; the corners are candidates and the
    # ulp-outside points are not; the centre and radius cameras cover.
    ranked, cand, _ = got[(T0, T1)]
    inner = (math.nextafter(T0, math.inf), math.nextafter(T1, -math.inf))
    assert cand == fleet.in_box(fleet.query(T0, T1))
    assert got[inner][1] == fleet.in_box(fleet.query(*inner)) == cand - 3
    dists = {key: d for key, d, _, _ in ranked}
    assert list(dists.values()).count(0.0) == 4
    assert fleet.camera.radius in dists.values()


@pytest.mark.parametrize("strict_cover", [True, False])
def test_base_and_tail_with_different_time_extents(strict_cover):
    rng = np.random.default_rng(FUZZ_SEED)
    base = Fleet(rng, T0, T1, "b")
    # Fewer rows than the base (so the view keeps a tail): a quarter of
    # the background and every boundary record.
    tail = Fleet(rng, TT0, TT1, "t", centre=base.centre).records[60:]
    packed, dynamic = engines(base.records, base.camera, strict_cover,
                              tail=tail)
    view = packed.index.packed_view()
    assert view.tail is not None
    assert (view.grid.t0, view.grid.t1) == (T0, T1)
    assert view.tail.grid.t0 > T1
    for lo, hi in ((T0, T1), (TT0, TT1), (T0, TT1)):
        for w in windows(lo, hi):
            check(packed, dynamic, base.query(*w))


def test_the_angle_constants_are_numpys_conversions():
    """The read path's ``* _RAD_PER_DEG`` / ``* _DEG_PER_RAD`` are
    ``np.radians`` / ``np.degrees`` bit for bit, edge values included."""
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    values = np.array([0.0, -0.0, 1.0, -1.0, 90.0, 180.0, 359.999999,
                       1e-300, -1e-300, 5e-324, -5e-324, tiny, -tiny,
                       math.pi, -math.pi, 1e300, -1e300, huge, -huge,
                       np.inf, -np.inf, np.nan])
    values = np.concatenate((values, np.random.default_rng(FUZZ_SEED)
                             .uniform(-1e4, 1e4, 10_000)))
    with np.errstate(over="ignore"):
        for got, want in ((values * _RAD_PER_DEG, np.radians(values)),
                          (values * _DEG_PER_RAD, np.degrees(values))):
            assert got.tobytes() == want.tobytes()


def test_eq2_wrap_is_angular_difference():
    """The filter's inlined Eq. 2 is ``angular_difference`` bit for bit,
    across the wrap and at a bearing of -0.0."""
    thetas = np.array([359.0, 1.0, 0.0, 180.0, 330.0, 30.0, 359.999999])
    for x, y in ((0.0, -40.0), (-0.5, -40.0), (0.5, -40.0), (0.0, 40.0),
                 (1e-9, -1.0), (-3.0, 4.0)):
        xs, ys = np.full(thetas.size, x), np.full(thetas.size, y)
        _, dtheta, _, _ = _sector_evidence(CameraModel(), True, xs, ys,
                                           thetas, Q_RADIUS)
        bearings = np.degrees(np.arctan2(-xs, -ys))
        assert dtheta.tolist() == angular_difference(bearings,
                                                     thetas).tolist()


# ---------------------------------------------------------------------------
# Sector boxes: under strict cover the descent hands on only the box hits
# whose sector box holds the query centre (spatial/grid.py, "Sector boxes").

#: Camera of the sector fleets.
SECTOR_CAMERA = CameraModel(half_angle=30.0, radius=45.0)

#: Stored azimuths of the edge-ray cameras, all in ``[0, 360)``: both
#: sides of north, bin edges and a bin's last double.
EDGE_THETAS = (0.0, 1.0, 359.0, 90.0, 137.0, math.nextafter(138.0, 0.0),
               225.5)

#: Stored azimuths outside ``[0, 360)`` (only finiteness is checked).
#: 1e12 is 280 mod 360, and its doubles are 2**-13 apart, so the
#: filter's ``theta - bearing`` rounds by up to 6e-5 degrees.
WILD_THETAS = (-30.0, 720.0, 1e12)

#: Degrees past a sector edge (positive: outside) of the query centre.
EDGE_NUDGES = (-1e-9, 0.0, 1e-9, 3e-5)


class SectorFleet:
    """Cameras whose viewing sector's boundary passes through the query
    centre: on an edge ray, on the arc, at a compass extreme or at the
    apex; plus background cameras whose sector box misses it."""

    def __init__(self, rng: np.random.Generator, centre: GeoPoint,
                 thetas: tuple[float, ...], tag: str = "s") -> None:
        self.centre = centre
        self.proj = LocalProjection(centre)
        self.camera = SECTOR_CAMERA
        self.tag = tag
        self.records: list[RepresentativeFoV] = []
        radius, alpha = self.camera.radius, self.camera.half_angle
        for theta in thetas + tuple(rng.uniform(0.0, 360.0, 2)):
            for side in (-1.0, 1.0):
                for nudge in EDGE_NUDGES:
                    phi = math.fmod(theta, 360.0) + side * (alpha + nudge)
                    for d in (0.5 * radius, radius * (1.0 - 1e-9), radius):
                        self.add(phi, d, theta)
        # Compass extremes, with the arc spanning them.
        for c in (0.0, 90.0, 180.0, 270.0):
            for theta in (c, c + alpha / 2.0, c - alpha / 2.0 + 360.0,
                          c + alpha * (1.0 - 1e-9)):
                for d in (radius * (1.0 - 1e-9), radius):
                    self.add(c, d, theta)
        for theta in thetas:
            self.add(0.0, 0.0, theta)                  # the apex
        for _ in range(40):     # background: random azimuths in the box
            self.add(float(rng.uniform(0.0, 360.0)),
                     float(rng.uniform(0.0, Q_RADIUS)),
                     float(rng.uniform(0.0, 360.0)))

    def add(self, phi: float, d: float, theta: float) -> None:
        """A camera ``d`` metres from the centre, which it sees at
        bearing ``phi``."""
        p = self.proj.to_geo(-d * math.sin(math.radians(phi)),
                             -d * math.cos(math.radians(phi)))
        self.records.append(RepresentativeFoV(
            lat=p.lat, lng=p.lng, theta=theta, t_start=T0, t_end=T1,
            video_id=f"{self.tag}{len(self.records) % 7}",
            segment_id=len(self.records)))

    def query(self) -> Query:
        return Query(t_start=T0, t_end=T1, center=self.centre,
                     radius=Q_RADIUS, top_n=1000)


def sector_fleets() -> list[SectorFleet]:
    """Mid-latitude fleets with every edge azimuth (one with the wild
    ones too), and polar fleets at |lat| 89.9."""
    rng = np.random.default_rng(FUZZ_SEED)
    mid = GeoPoint(lat=40.0 + float(rng.uniform(-0.01, 0.01)),
                   lng=116.3 + float(rng.uniform(-0.01, 0.01)))
    return [SectorFleet(rng, mid, EDGE_THETAS, "m"),
            SectorFleet(rng, mid, EDGE_THETAS + WILD_THETAS, "w"),
            SectorFleet(rng, GeoPoint(lat=89.9, lng=-20.0), EDGE_THETAS, "n"),
            SectorFleet(rng, GeoPoint(lat=-89.9, lng=170.0), EDGE_THETAS,
                        "s")]


def sector_mismatches() -> int:
    """Sector fleets on which packed ``execute`` differs from the oracle."""
    bad = 0
    for fleet in sector_fleets():
        packed, dynamic = engines(fleet.records, fleet.camera, True)
        q = fleet.query()
        bad += answers(packed.execute(q)) != answers(dynamic.execute(q))
    return bad


@pytest.mark.parametrize("with_tail", [False, True])
@pytest.mark.parametrize("strict_cover", [True, False])
def test_sector_boundaries(strict_cover, with_tail):
    for fleet in sector_fleets():
        records = fleet.records
        cut = len(records) * 3 // 4 if with_tail else len(records)
        packed, dynamic = engines(records[:cut], fleet.camera, strict_cover,
                                  tail=records[cut:])
        q = fleet.query()
        ranked, cand, kept = check(packed, dynamic, q)
        assert cand == len(records) and 0.0 in {d for _, d, _, _ in ranked}
        if strict_cover:
            # Not vacuous: the sector boxes prune, and the boundary
            # cameras are decided by the exact test (some kept, some
            # dropped).
            tally = [0, 0]
            rows = packed.index.packed_view().range_search_ids(
                q, camera=fleet.camera, tally=tally)
            assert tally[0] == cand and kept < rows.size < cand


def test_a_visit_whose_box_hits_all_fail_the_sector_box():
    """Every box hit faces away: no row reaches the filter, and the
    query still reports its box hits as candidates."""
    rng = np.random.default_rng(FUZZ_SEED)
    fleet = Fleet(rng, T0, T1, "a")
    records = [RepresentativeFoV(
        lat=f.lat, lng=f.lng, theta=(facing(fleet.centre, f.point) + 180.0)
        % 360.0, t_start=T0, t_end=T1, video_id="a", segment_id=i)
        for i, f in enumerate(fleet.records)
        if local_xy(fleet.centre, f.point) != (0.0, 0.0)]
    packed, dynamic = engines(records, CameraModel(), True)
    q = fleet.query(T0, T1)
    ranked, cand, kept = check(packed, dynamic, q)
    assert cand == fleet.in_box(q) - 4 > 0 and kept == 0
    tally = [0, 0]
    rows = packed.index.packed_view().range_search_ids(
        q, camera=packed.camera, tally=tally)
    assert rows.size == 0 and tally[0] == cand


@pytest.fixture
def fresh_sector_table():
    """Clear the memoised tables around a mutation of their inputs."""
    grid_mod._sector_table.cache_clear()
    yield
    grid_mod._sector_table.cache_clear()


def test_mutation_zero_margin_is_caught(monkeypatch, fresh_sector_table):
    monkeypatch.setattr(grid_mod, "_sector_margin", lambda _extent: 0.0)
    assert sector_mismatches() > 0


@pytest.mark.parametrize("dropped", range(4))
def test_mutation_dropped_compass_extreme_is_caught(monkeypatch,
                                                   fresh_sector_table,
                                                   dropped):
    compass = grid_mod._COMPASS
    monkeypatch.setattr(grid_mod, "_COMPASS",
                        compass[:dropped] + compass[dropped + 1:])
    assert sector_mismatches() > 0


def test_mutation_unwidened_bins_are_caught(monkeypatch, fresh_sector_table):
    monkeypatch.setattr(grid_mod, "_BIN_WIDENING", 0.0)
    assert sector_mismatches() > 0
