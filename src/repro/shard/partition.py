"""Deterministic geo-grid partitioning over the local plane.

Records are assigned to shards by *where the camera stood*: the
representative-FoV position is projected into the deployment's local
Euclidean plane (the paper's Eq. 12, evaluated over a whole batch by
:func:`repro.geo.earth.pairwise_local_xy` -- the same expression as
:func:`~repro.geo.earth.displacement`), snapped to a square grid cell,
and the cell coordinate is hashed to a shard with a splitmix64-style
integer mix.  Two properties matter:

* **Determinism.**  The shard of a record is a pure function of
  ``(origin, cell_m, seed, n_shards)`` and the record's position --
  no RNG state, no insertion order.  Ingest routing, query routing and
  snapshot reload therefore always agree (docs/SHARDING.md).
* **Locality with dispersion.**  A grid cell is wholly owned by one
  shard, so a query touching a small area fans out to few shards; the
  hash decorrelates adjacent cells so a crowded city centre still
  spreads across the fleet instead of hot-spotting one shard.

Query routing is *conservative*: :meth:`GridPartitioner.shards_for_query`
may return a shard that holds no matching record (a false positive costs
one empty range search) but never omits a shard that could hold one --
the pruning invariant the parity suite pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from repro._types import ArrayLike
from repro.core.fov import RecordColumns, RepresentativeFoV
from repro.core.query import Query
from repro.geo.coords import GeoPoint
from repro.geo.earth import (metres_per_degree, pairwise_local_xy,
                             radius_to_degrees)

__all__ = ["GridPartitioner", "DEFAULT_CELL_M"]

#: Default grid pitch, metres.  Cities in the paper's evaluation span a
#: few kilometres; 500 m cells keep a typical query (radius <= ~250 m,
#: Section V-B presets, so a box at most one cell wide) inside at most
#: a 2x2 cell neighbourhood, and a 20-100 m one usually inside one cell.
DEFAULT_CELL_M = 500.0

_MASK = (1 << 64) - 1

#: Above this many candidate cells, enumerating the query's cell
#: neighbourhood costs more than just asking every shard -- fall back
#: to the full fan-out (still correct, merely unpruned).
_MAX_CELLS = 4096

#: Metres by which :meth:`GridPartitioner.shards_for_box` pushes each
#: end of the box's metre interval outward before flooring.  It has to
#: absorb one thing: a record's coordinate and the corner coordinate
#: that bounds it each come out of :func:`~repro.geo.earth.displacement`
#: with their own rounding (one subtraction, one cosine of a mean
#: latitude, two products -- ~1e-15 of ``metres-per-degree x delta_lng``,
#: which :class:`GeoPoint`'s range check caps at 4e7 m), so the two can
#: disagree with their real-number order by under 1e-7 m anywhere on
#: the sphere.  A micrometre is ten times that, and adds a cell only to
#: a box whose edge already lies within a micrometre of a cell edge.
_COVER_EPS_M = 1e-6


def _mix_cell(cx: int, cy: int, seed: int) -> int:
    """splitmix64-style finalizer over a 2-D cell coordinate.

    Python's unbounded ints emulate uint64 wrap-around with ``& _MASK``;
    negative cell coordinates contribute their two's-complement image,
    exactly as an int64 -> uint64 cast would.  The scalar form serves
    the handful of cells a query box covers; :func:`_mix_cells` is the
    same hash over columns, and the tests pin the two equal.
    """
    z = (seed ^ (cx * 0x9E3779B97F4A7C15) ^ (cy * 0xC2B2AE3D27D4EB4F)) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix_cells(cx: np.ndarray, cy: np.ndarray, seed: int) -> np.ndarray:
    """:func:`_mix_cell` over int64 cell columns, as uint64.

    uint64 array arithmetic wraps modulo 2**64, which is what the scalar
    form's ``& _MASK`` emulates; viewing an int64 column as uint64 is the
    two's-complement cast, and the seed is reduced by the same mask.
    """
    u64 = np.uint64
    z = (u64(seed & _MASK) ^ (cx.view(u64) * u64(0x9E3779B97F4A7C15))
         ^ (cy.view(u64) * u64(0xC2B2AE3D27D4EB4F)))
    z = (z ^ (z >> u64(30))) * u64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> u64(27))) * u64(0x94D049BB133111EB)
    return z ^ (z >> u64(31))


@dataclass(frozen=True)
class GridPartitioner:
    """Maps positions to shards via a seeded hash of local grid cells.

    Parameters
    ----------
    n_shards : int
        Size of the shard fleet (>= 1).
    origin : GeoPoint
        Anchor of the deployment's local plane.  Every party that
        routes -- ingest, query scatter, snapshot reload -- must use
        the same origin, or cells (and therefore shards) disagree.
    cell_m : float
        Grid pitch in metres, wider than the cover epsilon (1e-6 m).
    seed : int
        Decorrelates cell->shard assignment between deployments.
    """

    n_shards: int
    origin: GeoPoint
    cell_m: float = DEFAULT_CELL_M
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        # A cell narrower than the cover epsilon is meaningless, and the
        # floor keeps |x / cell_m| (|x| <= ~4e7 m) exact in int64.
        if not (self.cell_m > _COVER_EPS_M and math.isfinite(self.cell_m)):
            raise ValueError(
                f"cell_m must exceed {_COVER_EPS_M} m, got {self.cell_m}")

    def _cells(self, lat: ArrayLike, lng: ArrayLike
               ) -> tuple[np.ndarray, np.ndarray]:
        """int64 grid cells of GPS fixes (Eq. 12 over the pitch, floored).

        Refuses what :class:`GeoPoint` refuses -- NaN, +/-inf or an
        out-of-range coordinate -- before a NaN can be cast to an
        arbitrary int64 cell.
        """
        lat = np.asarray(lat, dtype=float)
        lng = np.asarray(lng, dtype=float)
        for name, col, bound in (("latitude", lat, 90.0),
                                 ("longitude", lng, 180.0)):
            bad = ~(np.abs(col) <= bound)
            if bad.any():
                raise ValueError(
                    f"{name} out of range: {col[np.argmax(bad)]}")
        x, y = pairwise_local_xy(self.origin.lat, self.origin.lng, lat, lng)
        return (np.floor(x / self.cell_m).astype(np.int64),
                np.floor(y / self.cell_m).astype(np.int64))

    def cell_of(self, lat: float, lng: float) -> tuple[int, int]:
        """Grid cell of a GPS fix: floor of its local (x, y) over the pitch."""
        cx, cy = self._cells([lat], [lng])
        return (int(cx[0]), int(cy[0]))

    def shard_of_cell(self, cx: int, cy: int) -> int:
        """Owning shard of one grid cell."""
        return _mix_cell(cx, cy, self.seed) % self.n_shards

    def shards_of(self, lat: ArrayLike, lng: ArrayLike) -> np.ndarray:
        """Owning shards of positions given as lat/lng columns (intp).

        Raises ``ValueError`` on a non-finite or out-of-range coordinate.
        """
        cx, cy = self._cells(lat, lng)
        sids = _mix_cells(cx, cy, self.seed) % np.uint64(self.n_shards)
        return sids.astype(np.intp)

    def shard_of(self, fov: RepresentativeFoV) -> int:
        """Owning shard of one representative FoV (by camera position)."""
        return int(self.shards_of([fov.lat], [fov.lng])[0])

    def split(self, columns: RecordColumns) -> list[RecordColumns]:
        """Partition a run of columns into ``n_shards`` column runs
        (input order kept within each).

        Every position is projected and hashed by :meth:`shards_of`, so
        a bad coordinate raises before any slice is returned; then one
        stable argsort by shard, and each shard's run of it gathers that
        shard's rows.  The runs are separate copies, so a caller can
        drop each once it has landed.  No record object is built.

        A one-shard fleet gets the run itself back, in input order: its
        caller (``ShardedCloudServer._land``) has already refused a bad
        coordinate, and there is nothing to route.
        """
        if self.n_shards == 1:
            return [columns]
        sids = self.shards_of(columns.lat, columns.lng)
        order = np.argsort(sids, kind="stable")
        ends = np.cumsum(np.bincount(sids, minlength=self.n_shards)).tolist()
        return [columns.select(order[lo:hi])
                for lo, hi in zip([0] + ends[:-1], ends)]

    def _all_shards(self) -> tuple[int, ...]:
        return tuple(range(self.n_shards))

    def _cell_span(self, lo_m: float, hi_m: float) -> tuple[int, int]:
        """Cells covering ``[lo_m, hi_m]`` once widened by the epsilon."""
        return (math.floor((lo_m - _COVER_EPS_M) / self.cell_m),
                math.floor((hi_m + _COVER_EPS_M) / self.cell_m))

    def shards_for_box(self, lat_lo: float, lat_hi: float,
                       lng_lo: float, lng_hi: float) -> tuple[int, ...]:
        """Shards whose cells could intersect a lat/lng box (sorted).

        Exact conservative cover of the box's image in the local plane:
        every cell the image touches, and no ring of neighbours around
        them.  The northing ``y`` is linear in latitude, but the easting
        ``x`` scales longitude by ``cos((origin.lat + lat) / 2)``, which
        is *not* monotonic in latitude -- it peaks where ``lat ==
        -origin.lat``.  The extrema of ``x`` over the box are therefore
        attained at a sampled latitude: the box's edges, plus that peak
        latitude when the box straddles it.  Each end of the sampled
        metre interval is pushed outward by :data:`_COVER_EPS_M` before
        flooring, which is what keeps a record sitting exactly on a box
        or cell edge on the covered side of any rounding disagreement;
        routing errs toward an extra shard, never a missed one.

        A corner's metres are :func:`~repro.geo.earth.displacement`'s
        expressions on plain floats (``metres_per_degree`` of the mean
        latitude is its ``_M_PER_DEG * scale``): the same doubles, with
        no :class:`GeoPoint` built per query.  A corner that
        :class:`GeoPoint` refuses raises its ``ValueError``, corners
        checked in the same order.
        """
        if self.n_shards == 1:
            return (0,)
        if not (-90.0 <= lat_lo <= 90.0 and -90.0 <= lat_hi <= 90.0
                and -180.0 <= lng_lo <= 180.0 and -180.0 <= lng_hi <= 180.0):
            for lat in (lat_lo, lat_hi):
                for lng in (lng_lo, lng_hi):
                    GeoPoint(lat=lat, lng=lng)      # raises the refusal
        o_lat, o_lng = self.origin.lat, self.origin.lng
        dlng_lo, dlng_hi = lng_lo - o_lng, lng_hi - o_lng
        x_lo = y_lo = math.inf
        x_hi = y_hi = -math.inf
        for lat in ((lat_lo, lat_hi, -o_lat) if lat_lo < -o_lat < lat_hi
                    else (lat_lo, lat_hi)):
            m_lng, m_lat = metres_per_degree((o_lat + lat) / 2.0)
            x_lo = min(x_lo, m_lng * dlng_lo, m_lng * dlng_hi)
            x_hi = max(x_hi, m_lng * dlng_lo, m_lng * dlng_hi)
            y = m_lat * (lat - o_lat)
            y_lo, y_hi = min(y_lo, y), max(y_hi, y)
        cx_lo, cx_hi = self._cell_span(x_lo, x_hi)
        cy_lo, cy_hi = self._cell_span(y_lo, y_hi)
        n_cells = (cx_hi - cx_lo + 1) * (cy_hi - cy_lo + 1)
        if n_cells > _MAX_CELLS:
            return self._all_shards()
        seed, n = self.seed, self.n_shards
        if n_cells == 1:
            return (_mix_cell(cx_lo, cy_lo, seed) % n,)
        hit: set[int] = set()
        for cx in range(cx_lo, cx_hi + 1):
            for cy in range(cy_lo, cy_hi + 1):
                hit.add(_mix_cell(cx, cy, seed) % n)
                if len(hit) == n:
                    return self._all_shards()
        return tuple(sorted(hit))

    def shards_for_query(self, query: Query) -> tuple[int, ...]:
        """Shards that could hold a record matching the query (sorted).

        The query's metric radius is converted to degree half-extents
        around its centre (Section V-B, the same conversion the index's
        query box uses), then covered cell-wise by
        :meth:`shards_for_box`.
        """
        r_lng, r_lat = radius_to_degrees(query.radius, query.center.lat)
        return self.shards_for_box(
            query.center.lat - r_lat, query.center.lat + r_lat,
            query.center.lng - r_lng, query.center.lng + r_lng)
