"""Unit tests for the deterministic geo-grid partitioner.

:class:`TestColumnarSplit` pins the columnar ``split`` to the per-record
loop it replaced; ``FUZZ_SEED`` (set by the CI fuzz-smoke matrix) seeds
its Hypothesis draws, so a red run reproduces locally with
``FUZZ_SEED=<n> pytest <this file>``.
"""

import math
import os
from dataclasses import replace

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fov import RecordColumns, RepresentativeFoV
from repro.core.index import query_box
from repro.core.query import Query
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection, displacement, metres_per_degree
from repro.shard import partition as partition_mod
from repro.shard.partition import (
    _COVER_EPS_M, DEFAULT_CELL_M, GridPartitioner, _mix_cell, _mix_cells)

FUZZ_SEED = int(os.environ.get("FUZZ_SEED", "0"))

ORIGIN = GeoPoint(lat=40.0, lng=116.3)
PROJ = LocalProjection(ORIGIN)


def fov_at(x_m: float, y_m: float, i: int = 0) -> RepresentativeFoV:
    p = PROJ.to_geo(x_m, y_m)
    return RepresentativeFoV(lat=p.lat, lng=p.lng, theta=0.0,
                             t_start=0.0, t_end=60.0,
                             video_id="v", segment_id=i)


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GridPartitioner(n_shards=0, origin=ORIGIN)
        with pytest.raises(ValueError):
            GridPartitioner(n_shards=4, origin=ORIGIN, cell_m=0.0)
        with pytest.raises(ValueError):
            GridPartitioner(n_shards=4, origin=ORIGIN, cell_m=float("nan"))

    def test_cell_must_be_wider_than_the_cover_epsilon(self):
        # Keeps |x / cell_m| exact in the int64 floor the columnar route
        # casts to.
        for cell_m in (_COVER_EPS_M, _COVER_EPS_M / 2):
            with pytest.raises(ValueError, match="cell_m must exceed"):
                GridPartitioner(n_shards=4, origin=ORIGIN, cell_m=cell_m)
        part = GridPartitioner(n_shards=4, origin=ORIGIN,
                               cell_m=2 * _COVER_EPS_M)
        assert part.shards_of([-90.0, 90.0], [-180.0, 180.0]).shape == (2,)

    def test_defaults(self):
        part = GridPartitioner(n_shards=4, origin=ORIGIN)
        assert part.cell_m == DEFAULT_CELL_M
        assert part.seed == 0


class TestAssignment:
    def test_single_shard_takes_everything(self):
        part = GridPartitioner(n_shards=1, origin=ORIGIN)
        for x, y in [(0, 0), (-9000, 4000), (123456, -98765)]:
            assert part.shard_of(fov_at(x, y)) == 0

    def test_deterministic_and_in_range(self):
        part = GridPartitioner(n_shards=5, origin=ORIGIN, seed=11)
        rng = np.random.default_rng(3)
        for _ in range(200):
            x, y = rng.uniform(-5000, 5000, 2)
            f = fov_at(float(x), float(y))
            sid = part.shard_of(f)
            assert 0 <= sid < 5
            assert sid == part.shard_of(f)

    def test_cell_is_wholly_owned(self):
        """Points inside one cell always share a shard."""
        part = GridPartitioner(n_shards=7, origin=ORIGIN, cell_m=500.0)
        # sample well inside the cell: exact boundaries belong to a
        # single cell only up to fp round-trip noise
        base = part.shard_of(fov_at(1010.0, 1010.0))
        for dx in (10.0, 250.0, 490.0):
            for dy in (10.0, 250.0, 490.0):
                assert part.shard_of(fov_at(1000.0 + dx, 1000.0 + dy)) == base

    def test_seed_changes_assignment(self):
        a = GridPartitioner(n_shards=8, origin=ORIGIN, seed=0)
        b = GridPartitioner(n_shards=8, origin=ORIGIN, seed=1)
        fovs = [fov_at(700.0 * i, -450.0 * i, i) for i in range(40)]
        assert ([a.shard_of(f) for f in fovs]
                != [b.shard_of(f) for f in fovs])

    def test_spreads_across_shards(self):
        """A city-scale cloud of cells should touch every shard."""
        part = GridPartitioner(n_shards=8, origin=ORIGIN, cell_m=250.0)
        rng = np.random.default_rng(9)
        seen = {part.shard_of(fov_at(*map(float, rng.uniform(-4000, 4000, 2))))
                for _ in range(400)}
        assert seen == set(range(8))

    def test_split_partitions_input(self):
        part = GridPartitioner(n_shards=6, origin=ORIGIN)
        fovs = [fov_at(300.0 * i, -170.0 * i, i) for i in range(60)]
        parts = part.split(RecordColumns.of(fovs))
        assert len(parts) == 6
        assert sum(len(p) for p in parts) == len(fovs)
        for sid, chunk in enumerate(parts):
            for f in chunk:
                assert part.shard_of(f) == sid

    @pytest.mark.parametrize("lat,lng", [
        (float("nan"), 116.3), (float("inf"), 116.3), (-float("inf"), 116.3),
        (40.0, float("nan")), (40.0, float("inf")), (40.0, -float("inf")),
        (95.0, 116.3), (-90.5, 116.3), (40.0, 200.0), (40.0, -181.0)])
    def test_refuses_what_geopoint_refuses(self, lat, lng):
        """A NaN cast to int64 would route silently; the columnar path
        raises GeoPoint's own error, and ``split`` returns nothing."""
        part = GridPartitioner(n_shards=4, origin=ORIGIN)
        with pytest.raises(ValueError) as geo:
            GeoPoint(lat=lat, lng=lng)
        with pytest.raises(ValueError) as vec:
            part.shards_of([40.0, lat, 40.0], [116.3, lng, 116.3])
        assert str(vec.value) == str(geo.value)
        bad = RepresentativeFoV(lat=lat, lng=lng, theta=0.0, t_start=0.0,
                                t_end=1.0, video_id="bad")
        with pytest.raises(ValueError, match="out of range"):
            part.split(RecordColumns.of([fov_at(0.0, 0.0), bad]))


class TestRouting:
    def test_single_shard_short_circuits(self):
        part = GridPartitioner(n_shards=1, origin=ORIGIN)
        q = Query(t_start=0, t_end=10, center=ORIGIN, radius=100.0)
        assert part.shards_for_query(q) == (0,)

    def test_covers_every_contained_point(self):
        """Any record inside the query's lat/lng box routes to a
        targeted shard (the conservative-cover invariant)."""
        part = GridPartitioner(n_shards=8, origin=ORIGIN, cell_m=400.0)
        rng = np.random.default_rng(17)
        for _ in range(50):
            cx, cy = map(float, rng.uniform(-3000, 3000, 2))
            radius = float(rng.uniform(30, 800))
            q = Query(t_start=0, t_end=10, center=PROJ.to_geo(cx, cy),
                      radius=radius)
            targets = set(part.shards_for_query(q))
            for _ in range(20):
                # sample points within the inscribed disc of the box
                ang = float(rng.uniform(0, 2 * np.pi))
                rr = float(rng.uniform(0, radius))
                f = fov_at(cx + rr * np.cos(ang), cy + rr * np.sin(ang))
                assert part.shard_of(f) in targets

    def test_small_query_prunes(self):
        """A tight query must not fan out to the whole fleet."""
        part = GridPartitioner(n_shards=8, origin=ORIGIN, cell_m=1000.0)
        q = Query(t_start=0, t_end=10, center=PROJ.to_geo(150.0, 150.0),
                  radius=30.0)
        assert len(part.shards_for_query(q)) < 8

    def test_huge_box_falls_back_to_all_shards(self):
        part = GridPartitioner(n_shards=4, origin=ORIGIN, cell_m=10.0)
        q = Query(t_start=0, t_end=10, center=ORIGIN, radius=50_000.0)
        assert part.shards_for_query(q) == (0, 1, 2, 3)

    def test_box_straddling_mirror_latitude(self):
        """The x-extent peak at lat == -origin.lat is sampled, keeping
        the cover conservative even for boxes that straddle it."""
        part = GridPartitioner(n_shards=6, origin=GeoPoint(lat=0.002, lng=10.0),
                               cell_m=300.0)
        shards = part.shards_for_box(-0.01, 0.01, 9.99, 10.01)
        assert shards  # well-defined, non-empty
        for lat in (-0.002, 0.0, 0.005):
            f = RepresentativeFoV(lat=lat, lng=10.0, theta=0.0, t_start=0.0,
                                  t_end=1.0, video_id="v", segment_id=0)
            assert part.shard_of(f) in shards


# ---------------------------------------------------------------------------
# Exact cover: the edges the old one-cell pad used to hide.
# ---------------------------------------------------------------------------

#: With a million shards the cell -> shard hash is effectively
#: injective over the few cells a box touches, so "the record's shard is
#: targeted" means "the record's *cell* is covered" -- a neighbouring
#: cell that happens to share a shard cannot mask a hole in the cover.
MANY = 1_000_003

EDGE_ORIGINS = [
    GeoPoint(lat=40.0, lng=116.3),
    GeoPoint(lat=-33.9, lng=18.4),
    GeoPoint(lat=0.002, lng=10.0),      # queries straddle lat == -origin.lat
    GeoPoint(lat=64.1, lng=-21.9),
]

#: Where in the closed query box the record sits, per axis:
#: ``lo``/``hi`` are the box's own edges (both at once is a corner),
#: ``cell`` is a partition-cell edge inside the box, ``in`` anywhere.
placement = st.sampled_from(["lo", "hi", "cell", "in"])


def _edge_case(origin, cell_m, kx, ky, frac, radius, on_cell_edge,
               place_x, place_y, u, v):
    """``(query, record)`` with the record inside ``query_box(query)``.

    The box is anchored near cell ``(kx, ky)`` (negative indices too);
    ``on_cell_edge`` slides it so its own low edge lands on the cell
    edge ``x == kx * cell_m`` / ``y == ky * cell_m``.
    """
    proj = LocalProjection(origin)
    off = radius if on_cell_edge else frac * cell_m
    q = Query(t_start=0.0, t_end=10.0, radius=radius,
              center=proj.to_geo(kx * cell_m + off, ky * cell_m + off))
    (lng_lo, lat_lo, _), (lng_hi, lat_hi, _) = query_box(q)

    def place(how, lo, hi, t, cell_edge):
        if how == "cell" and lo <= cell_edge <= hi:
            return cell_edge
        return {"lo": lo, "hi": hi}.get(how, min(hi, lo + t * (hi - lo)))

    # The first cell edge at or above the box's low corner, mapped back
    # to degrees (the easting at the record's own latitude, since the
    # longitude scale depends on it); used when it crosses the box.
    cx, cy = proj.to_local(GeoPoint(lat=lat_lo, lng=lng_lo))
    edge_x = math.ceil(cx / cell_m) * cell_m
    edge_y = math.ceil(cy / cell_m) * cell_m
    lat = place(place_y, float(lat_lo), float(lat_hi), v,
                proj.to_geo(edge_x, edge_y).lat)
    _, y = proj.to_local(GeoPoint(lat=lat, lng=origin.lng))
    lng = place(place_x, float(lng_lo), float(lng_hi), u,
                proj.to_geo(edge_x, y).lng)
    rec = RepresentativeFoV(lat=lat, lng=lng, theta=0.0, t_start=0.0,
                            t_end=5.0, video_id="v", segment_id=0)
    assert lat_lo <= rec.lat <= lat_hi and lng_lo <= rec.lng <= lng_hi
    return q, rec


edge_cases = st.tuples(
    st.sampled_from(EDGE_ORIGINS),
    st.sampled_from([50.0, 300.0, 500.0, 1000.0]),          # cell_m
    st.integers(-40, 40), st.integers(-40, 40),             # kx, ky
    st.floats(0.0, 1.0),                                    # frac
    st.sampled_from([20.0, 100.0, 250.0, 700.0]),           # radius
    st.booleans(),                                          # on_cell_edge
    placement, placement,
    st.floats(0.0, 1.0), st.floats(0.0, 1.0))


def _covered(case) -> bool:
    origin, cell_m = case[0], case[1]
    part = GridPartitioner(n_shards=MANY, origin=origin, cell_m=cell_m)
    q, rec = _edge_case(*case)
    return part.shard_of(rec) in part.shards_for_query(q)


class TestExactCover:
    @settings(max_examples=600, deadline=None)
    @given(edge_cases)
    def test_every_record_in_the_box_is_routed_to(self, case):
        """Corners, box edges, cell edges, negative cells, the mirror
        latitude: a record inside the closed box is never missed."""
        assert _covered(case)

    def test_property_catches_a_cover_shrunk_by_a_millimetre(
            self, monkeypatch):
        """Mutation check: with the epsilon's sign flipped (and grown to
        a visible size) the very same edge cases must find the hole --
        otherwise the property above would pass on anything."""
        from repro.shard import partition
        rng = np.random.default_rng(5)
        cases = [(EDGE_ORIGINS[i % 4], 500.0, int(kx), int(ky), 0.5, 100.0,
                  True, "lo", "lo", 0.0, 0.0)
                 for i, (kx, ky) in enumerate(rng.integers(-40, 40, (40, 2)))]
        assert all(_covered(c) for c in cases)
        monkeypatch.setattr(partition, "_COVER_EPS_M", -1e-3)
        assert not all(_covered(c) for c in cases)

    def test_mirror_latitude_sample_is_load_bearing(self):
        """A box straddling ``-origin.lat`` whose four corners all fall
        just short of a cell edge that the peak latitude crosses."""
        origin = GeoPoint(lat=30.0, lng=0.0)
        part = GridPartitioner(n_shards=MANY, origin=origin, cell_m=500.0)
        k = 222
        lng_hi = (k * 500.0 + 2e-4) / metres_per_degree(0.0)[0]
        rec = RepresentativeFoV(lat=-30.0, lng=lng_hi, theta=0.0,
                                t_start=0.0, t_end=1.0, video_id="v",
                                segment_id=0)
        assert part.cell_of(-30.0, lng_hi)[0] == k
        for lat in (-30.01, -29.99):        # beyond the epsilon's reach
            x, _ = displacement(origin, GeoPoint(lat=lat, lng=lng_hi))
            assert x < k * 500.0 - 1e-4
        assert part.shard_of(rec) in part.shards_for_box(
            -30.01, -29.99, lng_hi - 0.001, lng_hi)

    @pytest.mark.parametrize("n_shards", [2, 4, 8, 61])
    @pytest.mark.parametrize("kx,ky", [(0, 0), (3, -2), (-7, 5), (-1, -1)])
    def test_small_query_mid_cell_routes_to_one_shard(self, n_shards, kx, ky):
        """The converse pin: no ring of neighbour cells any more."""
        part = GridPartitioner(n_shards=n_shards, origin=ORIGIN)
        centre = PROJ.to_geo((kx + 0.5) * DEFAULT_CELL_M,
                             (ky + 0.5) * DEFAULT_CELL_M)
        q = Query(t_start=0, t_end=10, center=centre, radius=20.0)
        assert part.shards_for_query(q) == (part.shard_of_cell(kx, ky),)


# ---------------------------------------------------------------------------
# Columnar split: pinned to the per-record loop it replaced.
# ---------------------------------------------------------------------------

#: Seeds whose uint64 image is not the int itself: two's complement,
#: past int64, past uint64.
HASH_SEEDS = [0, -1, 2**63 + 5, 2**64 + 3]
SHARD_COUNTS = [*range(1, 10), MANY]
int64s = st.integers(-2**63, 2**63 - 1)


def scalar_split(part, fovs):
    """The per-record loop ``split`` replaced, as ``{shard: records}``:
    Eq. 12 through ``displacement``, ``math.floor``, the Python-int hash."""
    parts = {}
    for f in fovs:
        x, y = displacement(part.origin, GeoPoint(lat=f.lat, lng=f.lng))
        sid = _mix_cell(math.floor(x / part.cell_m),
                        math.floor(y / part.cell_m), part.seed) % part.n_shards
        parts.setdefault(sid, []).append(f)
    return parts


def _corner_case(origin, cell_m, kx, ky, radius):
    """A record exactly on the cell corner ``(kx, ky) * cell_m`` and a
    query centred on it."""
    p = LocalProjection(origin).to_geo(kx * cell_m, ky * cell_m)
    rec = RepresentativeFoV(lat=p.lat, lng=p.lng, theta=0.0, t_start=0.0,
                            t_end=5.0, video_id="v")
    return Query(t_start=0.0, t_end=10.0, center=p, radius=radius), rec


@st.composite
def routed_batches(draw):
    """A partitioner and a batch of ``(query, record)`` pairs, each record
    inside its query's box: on cell corners, box edges and cell edges,
    in negative cells, and around an origin whose boxes straddle
    ``-origin.lat``."""
    origin = draw(st.sampled_from(EDGE_ORIGINS))
    cell_m = draw(st.sampled_from([50.0, 300.0, 500.0, 1000.0]))
    part = GridPartitioner(n_shards=draw(st.sampled_from(SHARD_COUNTS)),
                           origin=origin, cell_m=cell_m,
                           seed=draw(st.sampled_from(HASH_SEEDS)))
    corner = st.tuples(st.integers(-40, 40), st.integers(-40, 40),
                       st.sampled_from([20.0, 100.0, 250.0, 700.0]))
    cases = draw(st.lists(st.one_of(
        corner.map(lambda c: _corner_case(origin, cell_m, *c)),
        edge_cases.map(lambda c: _edge_case(origin, cell_m, *c[2:]))),
        max_size=24))
    return part, [(q, replace(rec, segment_id=i))
                  for i, (q, rec) in enumerate(cases)]


class TestColumnarSplit:
    @hypothesis.seed(FUZZ_SEED)
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(int64s, int64s), min_size=1, max_size=40),
           st.one_of(st.sampled_from(HASH_SEEDS),
                     st.integers(-2**80, 2**80)))
    def test_vector_hash_equals_scalar(self, cells, seed):
        cx, cy = np.array(cells, dtype=np.int64).T
        assert (_mix_cells(cx, cy, seed).tolist()
                == [_mix_cell(a, b, seed) for a, b in cells])

    @hypothesis.seed(FUZZ_SEED)
    @settings(max_examples=120, deadline=None)
    @given(routed_batches())
    def test_split_matches_the_scalar_loop_and_the_cover(self, batch):
        part, cases = batch
        recs = [rec for _, rec in cases]
        parts = part.split(RecordColumns.of(recs))
        assert len(parts) == part.n_shards
        # order-preserving partition, each record in the loop's shard
        assert {sid: list(p) for sid, p in enumerate(parts) if p} \
            == scalar_split(part, recs)
        for sid, chunk in enumerate(parts):
            for rec in chunk:
                q = cases[rec.segment_id][0]
                assert sid in part.shards_for_query(q), (q, rec)

    @pytest.mark.parametrize("n_shards", [1, 9, MANY])
    def test_empty_input_yields_empty_parts(self, n_shards):
        parts = GridPartitioner(n_shards=n_shards, origin=ORIGIN).split(
            RecordColumns.of([]))
        assert len(parts) == n_shards and not any(parts)


# ---------------------------------------------------------------------------
# Box cover: pinned to the GeoPoint / displacement loop it replaced.
# ---------------------------------------------------------------------------

def displacement_cover(part, lat_lo, lat_hi, lng_lo, lng_hi):
    """``shards_for_box`` as a loop over :class:`GeoPoint` corners and
    :func:`displacement`: the reference the float-only cover must equal."""
    if part.n_shards == 1:
        return (0,)
    lats = [lat_lo, lat_hi]
    if lat_lo < -part.origin.lat < lat_hi:
        lats.append(-part.origin.lat)
    xs, ys = [], []
    for lat in lats:
        for lng in (lng_lo, lng_hi):
            x, y = displacement(part.origin, GeoPoint(lat=lat, lng=lng))
            xs.append(x)
            ys.append(y)
    cx_lo, cx_hi = part._cell_span(min(xs), max(xs))
    cy_lo, cy_hi = part._cell_span(min(ys), max(ys))
    if (cx_hi - cx_lo + 1) * (cy_hi - cy_lo + 1) > partition_mod._MAX_CELLS:
        return tuple(range(part.n_shards))
    hit = {part.shard_of_cell(cx, cy) for cx in range(cx_lo, cx_hi + 1)
           for cy in range(cy_lo, cy_hi + 1)}
    return tuple(sorted(hit))


@st.composite
def boxes(draw):
    """A partitioner and a lat/lng box near its origin: tiny to city
    sized, in negative cells, straddling ``-origin.lat``, degenerate."""
    origin = draw(st.sampled_from(EDGE_ORIGINS))
    part = GridPartitioner(n_shards=draw(st.sampled_from(SHARD_COUNTS)),
                           origin=origin,
                           cell_m=draw(st.sampled_from([50.0, 500.0, 1000.0])),
                           seed=draw(st.sampled_from(HASH_SEEDS)))
    span = st.floats(0.0, 0.05)
    lat_lo = origin.lat + draw(st.floats(-0.05, 0.05))
    lng_lo = origin.lng + draw(st.floats(-0.05, 0.05))
    return part, (lat_lo, lat_lo + draw(span), lng_lo, lng_lo + draw(span))


class TestBoxCover:
    @hypothesis.seed(FUZZ_SEED)
    @settings(max_examples=400, deadline=None)
    @given(boxes())
    def test_equals_the_displacement_loop(self, case):
        part, box = case
        assert part.shards_for_box(*box) == displacement_cover(part, *box)

    def test_equals_it_at_the_mirror_latitude(self):
        """The box of ``test_mirror_latitude_sample_is_load_bearing``:
        only the peak-latitude sample reaches the last cell."""
        part = GridPartitioner(n_shards=MANY, origin=GeoPoint(lat=30.0,
                                                              lng=0.0),
                               cell_m=500.0)
        lng_hi = (222 * 500.0 + 2e-4) / metres_per_degree(0.0)[0]
        box = (-30.01, -29.99, lng_hi - 0.001, lng_hi)
        assert part.shards_for_box(*box) == displacement_cover(part, *box)

    @pytest.mark.parametrize("box", [
        (95.0, 96.0, 116.3, 116.4), (40.0, 90.5, 116.3, 116.4),
        (-90.5, 40.0, 116.3, 116.4), (40.0, 40.1, -181.0, 116.4),
        (40.0, 40.1, 116.3, 180.5), (float("nan"), 40.1, 116.3, 116.4),
        (40.0, float("inf"), 116.3, 116.4), (40.0, 40.1, float("nan"), 116.4),
        (40.0, 40.1, 116.3, -float("inf")), (95.0, 40.0, 200.0, 116.4),
        (40.0, 95.0, 116.3, 200.0)])
    def test_refuses_the_corners_geopoint_refuses(self, box):
        part = GridPartitioner(n_shards=8, origin=ORIGIN)
        with pytest.raises(ValueError) as want:
            displacement_cover(part, *box)
        with pytest.raises(ValueError) as got:
            part.shards_for_box(*box)
        assert str(got.value) == str(want.value)
