"""Uniform 3-D cell grid over FoV records -- the serving candidate kernel.

An R-tree answers range queries over arbitrary boxes, but the FoV
serving path stores a very specific shape: every record is a *point*
``(lng, lat)`` with a short time interval ``[t_s, t_e]``.  For that
shape a flat uniform grid beats a tree descent: candidate gathering is
a few contiguous CSR ranges (the time slices of one cell, and the
cells of one grid row, are adjacent), and the exact box test is
**one** fused vectorised comparison instead of one pass per level per
dimension.

Cell layout
-----------
Cells are keyed ``(iy, ix, it)`` -- space-major: latitude row, then
longitude, with time innermost -- flattened as
``(iy * width + ix) * slices + it``.  The time slices a query touches
in one spatial cell are therefore one contiguous CSR range
``[off[cell(iy, ix, it0)], off[cell(iy, ix, it1) + 1])``, and when
that span covers every slice the ranges of neighbouring cells in a
grid row abut: a search coalesces a range that starts where the
previous one ended, so a query whose time bins span the whole extent
reads **one** range per touched grid row (two offsets, from the row's
first touched cell to past its last), and a windowed query one range
per touched cell.  Space goes outside because every query is a
small disc (tens of metres against a city) while its time window may
be anything up to the whole horizon; the time axis still prunes a
windowed query to exactly the slices it touches.

Records are bucketed by their *start* time ``t_s``; a query widens its
time range by the maximum record duration (``max_dur``) before
binning, so a record whose interval merely *extends into* the query
window is still gathered (the fused test then applies the exact
interval-overlap predicate).

Fused box test
--------------
A record intersects the closed query box ``[bmin, bmax]`` iff::

    lng >= bmin0  and  lng <= bmax0
    lat >= bmin1  and  lat <= bmax1
    t_s <= bmax2  and  t_e >= bmin2

Rewriting every ``>=`` as a negated ``<=`` folds all six conditions
into a single elementwise comparison against one 6-vector::

    [lng, -lng, lat, -lat, t_s, -t_e]  <=  [bmax0, -bmin0,
                                            bmax1, -bmin1,
                                            bmax2, -bmin2]

``F`` stores those six values (plus ``theta``) as the rows of a
``(7, n)`` block, one column per record in CSR order, so the hot loop
is
``(F[:6, cand] <= b[:, None]).all(axis=0)`` -- one compare, one
reduction along the long candidate axis, no Python per-entry work
(float negation is exact, so the candidate set is bit-identical to the
six separate tests).  ``F`` is pure derived data: the flat snapshot
holds record columns only, and a loaded snapshot builds its grid
afresh.

When the query window covers the grid's start-time extent
(``bmin2 <= t0`` and ``bmax2 >= t1``, with ``t0``/``t1`` the least and
greatest ``t_s``), no record can fail a time row: ``t_s <= t1 <=
bmax2``, and ``t_e >= t_s >= t0 >= bmin2`` because a stored segment
never ends before it starts.  The test then compares the four space
rows only -- the same hit set from two thirds of the compares.  Every
whole-horizon query takes this path.

The grid only *prunes*: cell membership uses the same monotone
``floor((v - origin) * inv_cell)`` mapping for records and for query
rectangles, so every record intersecting the query box lands in a
scanned cell, and the fused test re-checks the exact box.  Results are
therefore exactly the records intersecting the box -- the same set a
Section V-A R-tree search over the degenerate record boxes returns
(the engine parity props pin this).

Sector boxes
------------
Section V-B keeps a record only when its viewing sector (half-angle
``alpha``, radius ``R``) covers the query centre, and most box hits
fail that test: the box prunes by where the camera stood, not by what
it saw.  A search given a ``cover`` -- the camera's ``(alpha, R)`` and
the query centre -- therefore also tests, per box hit, whether the
centre lies in the lng/lat bounding box of the record's sector, and
hands on only the hits that pass.  A search reports what it did in
one explicit ``tally`` accumulator, like NumPy's ``out=``: its box
hits, which callers report as the query's candidates, and the rows
its box test read.

The sector rows are a second ``(4, n)`` block in CSR order,
``[lng_lo, -lng_hi, lat_lo, -lat_hi]``, read over the same candidate
ranges as ``F`` and compared with ``[lng, -lng, lat, -lat]`` of the
centre by the same ``<=`` test.  A grid derives them on its first
search with a cover and keeps them, keyed by ``(alpha, R)``; like
``F`` they are never persisted.  They come from a table of 361
one-degree azimuth bins: bin ``k`` holds ``mod(theta, 360)`` in
``[k, k + 1)`` (bin 360 takes a ``mod`` that rounds up to 360.0), and
its entry is the exact box of a sector of half-angle ``alpha + 0.5``
centred on the bin -- the apex, both edge endpoints and every compass
extreme the arc spans -- so it holds the sector of every azimuth in
the bin.  Each entry is widened by a rounding margin derived in
docs/PERFORMANCE.md §21, so that every row the floating-point Section
V-B test keeps is inside its box: the cover test only drops rows that
test would drop, and every ranking stays as it was.  Longitude
offsets are scaled by the cosine of the grid's largest latitude
widened by ``R``, the smallest scale any query the sector can reach
projects with.
"""

from __future__ import annotations

import functools
import math
from typing import MutableSequence, Sequence

import numpy as np

from repro.geo.earth import _M_PER_DEG

__all__ = ["PackedPointGrid"]

#: Aimed-for mean records per *spatial* column of cells; the cell count
#: adapts to the record count so the candidate slab stays a small
#: multiple of the true result set regardless of scale.
TARGET_PER_CELL = 48.0

#: Hard cap on cells per spatial axis (memory guard for huge extents).
MAX_CELLS_PER_AXIS = 1024

#: Hard cap on time slices.
MAX_TIME_SLICES = 64

#: Single-query budget of touched spatial cells up to which
#: :meth:`PackedPointGrid.search_ids` gathers with a plain Python loop
#: instead of the vectorised range enumeration (NumPy dispatch bound).
#: Measured on the 24 x 24 x 24 ``city_read`` shard grids
#: (docs/PERFORMANCE.md §2): with a 60-900 s window every cell is its
#: own range and the vectorised path wins from 16-25 cells on; with
#: the whole horizon the loop reads one range per grid row and stays
#: ahead up to 100 cells, by 19 % at 25 and 3 % at 100.  16 is the
#: largest measured budget at which the loop never loses.  The perf ledger's
#: queries touch 1-4 cells.
_CELL_LOOP_MAX = 16

_EMPTY_IDS = np.empty(0, dtype=np.int64)

#: One-degree azimuth bins of the sector-box table, plus bin 360 for a
#: ``mod(theta, 360)`` that rounds up to 360.0.
_SECTOR_BINS = 361

#: Unit roundoff of float64.
_U = 2.0 ** -53

#: Rounding terms of the sector-box margin, in units of ``_U * R``
#: (docs/PERFORMANCE.md §21): the computed distance (3), the
#: table's sin/cos (16), each axis of the projection (4 + 4), the
#: offsets' conversion to degrees (5) and second-order terms (4).
_MARGIN_ROUNDINGS = 36

#: How far past ``half_angle`` a bin's sector reaches: half a bin, so
#: it holds the sector of every azimuth in the bin.
_BIN_WIDENING = 0.5

#: ``(azimuth, east, north)`` of the four compass extremes of a unit
#: circle: a sector whose arc spans one reaches it.
_COMPASS = ((0.0, 0.0, 1.0), (90.0, 1.0, 0.0), (180.0, 0.0, -1.0),
            (270.0, -1.0, 0.0))


def _sector_margin(theta_exponent: int) -> float:
    """How far a unit sector box widens outward, in units of ``R``.

    The angular slack covers the filter's rounding of the bearing, of
    ``theta - bearing`` and its wrap, and of the bin's own
    ``mod(theta, 360)``: eight spacings of the doubles below
    ``2**theta_exponent``, which bounds ``|theta| + 360``.  The rest
    covers the rounding of distances and offsets.
    """
    slack_deg = 8.0 * math.ldexp(1.0, theta_exponent - 53)
    return (math.radians(slack_deg) * (1.0 + 8.0 * _U)
            + _MARGIN_ROUNDINGS * _U)


@functools.lru_cache(maxsize=64)
def _sector_table(half_angle: float, radius: float, lat_extent: float,
                  theta_exponent: int) -> np.ndarray:
    """Per-bin sector-box offsets ``[lng_lo, -lng_hi, lat_lo, -lat_hi]``
    in degrees, shape ``(4, _SECTOR_BINS)``.

    Column ``k`` is the bounding box of a sector of half-angle
    ``half_angle + 0.5`` and radius ``radius`` centred on azimuth
    ``k + 0.5``, apex at the origin -- the apex, both edge endpoints
    and every compass extreme its arc spans -- widened by the derived
    margin (docs/PERFORMANCE.md §21).  ``lat_extent`` bounds the
    records' ``|lat|`` and ``2**theta_exponent`` their ``|theta| + 360``;
    callers round both up so that grids of one shard share a table.
    """
    centre = np.arange(_SECTOR_BINS) + 0.5
    beta = half_angle + _BIN_WIDENING
    lo_rad, hi_rad = np.radians(centre - beta), np.radians(centre + beta)
    zero = np.zeros(_SECTOR_BINS)
    east = [zero, np.sin(lo_rad), np.sin(hi_rad)]
    north = [zero, np.cos(lo_rad), np.cos(hi_rad)]
    for azimuth, e, n in _COMPASS:
        spans = np.abs((azimuth - centre + 180.0) % 360.0 - 180.0) <= beta
        east.append(np.where(spans, e, 0.0))
        north.append(np.where(spans, n, 0.0))
    margin = _sector_margin(theta_exponent)
    # The smallest cos(latitude) a covered (centre, camera) midpoint can
    # project with, less its rounding; at the pole longitude is unbounded.
    reach = min(90.0, lat_extent + radius / _M_PER_DEG)
    scale = math.cos(math.radians(reach)) - 32.0 * _U
    lng_deg = radius / (_M_PER_DEG * scale) if scale > 0.0 else math.inf
    lat_deg = radius / _M_PER_DEG
    table = np.array([(np.min(east, axis=0) - margin) * lng_deg,
                      (np.max(east, axis=0) + margin) * -lng_deg,
                      (np.min(north, axis=0) - margin) * lat_deg,
                      (np.max(north, axis=0) + margin) * -lat_deg])
    table.flags.writeable = False
    return table


def _expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s + c) for s, c in zip(starts, counts)]``
    without a Python loop (the CSR-range gather of a grid search)."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    exclusive = np.cumsum(counts) - counts
    return np.repeat(starts - exclusive, counts) + np.arange(total)


class PackedPointGrid:
    """Frozen CSR cell grid over ``(lng, lat, [t_s, t_e])`` records.

    Attributes
    ----------
    width, height, slices : int
        Cells per axis; cell ``(iy, ix, it)`` is CSR bucket
        ``(iy * width + ix) * slices + it``.
    cell_offsets : ndarray, shape (width * height * slices + 1,)
        CSR bucket boundaries into ``row_ids``.
    row_ids : ndarray, shape (n,)
        Original record ids in CSR (cell-major) order.
    fused : ndarray, shape (7, n)
        Rows ``[lng, -lng, lat, -lat, t_start, -t_end, theta]``, one
        column per record in CSR order.  Rows 0..5 feed the fused
        ``<=`` test (rows 0..3 alone when the window covers every start
        time); row 6 carries the camera azimuth, from which the sector
        rows are derived (module note).  The id searches return
        ``row_ids`` and the engine gathers ``theta`` from the view's
        columns.
    max_dur : float
        Maximum record duration; queries widen their lower time bound
        by this much before binning (see the module note).
    """

    __slots__ = ("n", "width", "height", "slices",
                 "x0", "y0", "t0", "x1", "y1", "t1",
                 "inv_cw", "inv_ch", "inv_ct", "max_dur",
                 "cell_offsets", "row_ids", "fused", "_sector")

    def __init__(self, n: int, width: int, height: int, slices: int,
                 x0: float, y0: float, t0: float,
                 x1: float, y1: float, t1: float,
                 inv_cw: float, inv_ch: float, inv_ct: float,
                 max_dur: float,
                 cell_offsets: np.ndarray, row_ids: np.ndarray,
                 fused: np.ndarray) -> None:
        self.n = n
        self.width = width
        self.height = height
        self.slices = slices
        self.x0 = x0
        self.y0 = y0
        self.t0 = t0
        self.x1 = x1
        self.y1 = y1
        self.t1 = t1
        self.inv_cw = inv_cw
        self.inv_ch = inv_ch
        self.inv_ct = inv_ct
        self.max_dur = max_dur
        self.cell_offsets = cell_offsets
        self.row_ids = row_ids
        self.fused = fused
        # ``((half_angle, radius), rows)``: the sector rows of the last
        # camera searched with (module note), derived on first use.
        self._sector: tuple[tuple[float, float], np.ndarray] | None = None

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(cls, lng: np.ndarray, lat: np.ndarray,
              t_start: np.ndarray, t_end: np.ndarray,
              theta: np.ndarray) -> "PackedPointGrid":
        """Bucket the records of a packed snapshot (one vectorised pass)."""
        n = int(lng.shape[0])
        if n == 0:
            return cls(0, 1, 1, 1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                       0.0, 0.0, 0.0, 0.0,
                       np.zeros(2, dtype=np.int64),
                       np.empty(0, dtype=np.int64),
                       np.empty((7, 0), dtype=float))
        x0, x1 = float(lng.min()), float(lng.max())
        y0, y1 = float(lat.min()), float(lat.max())
        t0, t1 = float(t_start.min()), float(t_start.max())
        max_dur = float((t_end - t_start).max())
        axis = max(1, min(MAX_CELLS_PER_AXIS,
                          int(math.sqrt(n / TARGET_PER_CELL))))
        width = height = axis
        slices = max(1, min(MAX_TIME_SLICES, int(math.sqrt(n / TARGET_PER_CELL))))
        # Guard degenerate extents (all records on one meridian/parallel
        # or simultaneous): a zero span keeps every record in bin 0 of
        # that axis.
        inv_cw = width / (x1 - x0) if x1 > x0 else 0.0
        inv_ch = height / (y1 - y0) if y1 > y0 else 0.0
        inv_ct = slices / (t1 - t0) if t1 > t0 else 0.0
        ix = np.minimum(((lng - x0) * inv_cw).astype(np.int64), width - 1)
        iy = np.minimum(((lat - y0) * inv_ch).astype(np.int64), height - 1)
        it = np.minimum(((t_start - t0) * inv_ct).astype(np.int64),
                        slices - 1)
        cell = (iy * width + ix) * slices + it
        order = np.argsort(cell, kind="stable").astype(np.int64)
        counts = np.bincount(cell, minlength=width * height * slices)
        cell_offsets = np.zeros(width * height * slices + 1, dtype=np.int64)
        np.cumsum(counts, out=cell_offsets[1:])
        fused = np.empty((7, n), dtype=float)
        fused[0] = lng[order]
        np.negative(fused[0], out=fused[1])
        fused[2] = lat[order]
        np.negative(fused[2], out=fused[3])
        fused[4] = t_start[order]
        np.negative(t_end[order], out=fused[5])
        fused[6] = theta[order]
        return cls(n, width, height, slices, x0, y0, t0, x1, y1, t1,
                   inv_cw, inv_ch, inv_ct, max_dur,
                   cell_offsets, order, fused)

    def sector_rows(self, half_angle: float, radius: float) -> np.ndarray:
        """The ``(4, n)`` sector rows ``[lng_lo, -lng_hi, lat_lo,
        -lat_hi]`` for a camera of ``half_angle`` and ``radius``, in CSR
        order (module note); derived on first use and kept for the last
        camera asked for."""
        key = (half_angle, radius)
        memo = self._sector
        if memo is not None and memo[0] == key:
            return memo[1]
        theta = self.fused[6]
        lo = float(theta.min()) if self.n else 0.0
        hi = float(theta.max()) if self.n else 0.0
        # Rounded up (a wider box), so that a shard's grids share one
        # table: latitude to 1/64 degree, |theta| + 360 to a power of 2.
        table = _sector_table(
            half_angle, radius,
            math.ceil(max(abs(self.y0), abs(self.y1)) * 64.0) / 64.0,
            math.frexp(max(-lo, hi) + 360.0)[1])
        # Stored azimuths are only checked to be finite; the common
        # [0, 360) case skips the (slow) mod, which leaves it unchanged.
        azimuth_bin = (theta if lo >= 0.0 and hi < 360.0
                       else np.mod(theta, 360.0)).astype(np.intp)
        rows = table.take(azimuth_bin, axis=1)
        rows += self.fused[:4]
        # Unlocked: two threads may both derive the rows, equal either
        # way, and the memo is replaced by one assignment.
        self._sector = (key, rows)
        return rows

    # ------------------------------------------------------------------
    # search

    def _cell_span(self, qx0: float, qy0: float, qt0: float,
                   qx1: float, qy1: float, qt1: float
                   ) -> tuple[int, int, int, int, int, int] | None:
        """Clamped bins ``(ix0, ix1, iy0, iy1, it0, it1)`` of a closed
        query box, or ``None`` when the box misses the grid's extent.

        The lower time bound is widened by ``max_dur`` (records bucket
        by start time).  Lower bins are clamped to ``axis - 1`` too:
        records at the extent's upper edge are clamped into the last bin
        at build time, and a closed-box query touching exactly that edge
        maps one past it.
        """
        if self.n == 0 or qx1 < self.x0 or qx0 > self.x1 \
                or qy1 < self.y0 or qy0 > self.y1 \
                or qt1 < self.t0 or qt0 > self.t1 + self.max_dur:
            return None
        w1, h1, s1 = self.width - 1, self.height - 1, self.slices - 1
        return (min(w1, max(0, int((qx0 - self.x0) * self.inv_cw))),
                min(w1, int((qx1 - self.x0) * self.inv_cw)),
                min(h1, max(0, int((qy0 - self.y0) * self.inv_ch))),
                min(h1, int((qy1 - self.y0) * self.inv_ch)),
                min(s1, max(0, int((qt0 - self.max_dur - self.t0)
                                   * self.inv_ct))),
                min(s1, int((qt1 - self.t0) * self.inv_ct)))

    def _cell_ranges(self, span: tuple[int, int, int, int, int, int]
                     ) -> tuple[list[int], list[int]]:
        """Non-empty CSR ranges ``(los, his)`` of the cells in ``span``.

        One range per touched cell, over its slices ``it0..it1``, in
        CSR order; a range starting where the previous one ended
        extends it instead.  A span covering every time slice touches
        one contiguous CSR run per grid row, from the row's first
        touched cell to past its last, so it reads two offsets per grid
        row instead of two per cell -- the same ranges, since a cell's
        range abuts the next one's.
        """
        ix0, ix1, iy0, iy1, it0, it1 = span
        w, s = self.width, self.slices
        if it0 == 0 and it1 == s - 1:
            # Every slice: a grid row's touched cells are one CSR run.
            xs, run = (ix0,), (ix1 - ix0 + 1) * s
        else:
            xs, run = range(ix0, ix1 + 1), it1 - it0 + 1
        item = self.cell_offsets.item
        los: list[int] = []
        his: list[int] = []
        for iy in range(iy0, iy1 + 1):
            row = iy * w
            for ix in xs:
                base = (row + ix) * s + it0
                lo = item(base)
                hi = item(base + run)
                if hi > lo:
                    if his and his[-1] == lo:
                        his[-1] = hi
                    else:
                        los.append(lo)
                        his.append(hi)
        return los, his

    def search_ids(self, bmin: Sequence[float], bmax: Sequence[float],
                   cover: tuple[float, float, float, float] | None = None,
                   tally: MutableSequence[int] | None = None) -> np.ndarray:
        """Ids of records intersecting the (closed) query box.

        ``bmin``/``bmax`` are ``(lng, lat, t)`` triples (plain floats --
        the latency path never builds query arrays).  Result order is
        CSR position order, which callers must treat as unordered (the
        retrieval layer's canonical ranking is order-independent).

        ``cover`` -- ``(half_angle, radius, lng, lat)`` -- keeps only
        the box hits whose sector box, for a camera of that half-angle
        and radius, holds the point ``(lng, lat)`` (module note).
        ``tally``, when given, is a two-slot accumulator: the number of
        box hits, before the cover test, is added to ``tally[0]`` and
        the number of rows the box test read to ``tally[1]``.
        """
        qx0, qy0, qt0 = float(bmin[0]), float(bmin[1]), float(bmin[2])
        qx1, qy1, qt1 = float(bmax[0]), float(bmax[1]), float(bmax[2])
        span = self._cell_span(qx0, qy0, qt0, qx1, qy1, qt1)
        if span is None:
            return _EMPTY_IDS
        ix0, ix1, iy0, iy1, it0, it1 = span
        rid = self.row_ids
        if qt0 <= self.t0 and qt1 >= self.t1:
            # The window covers every start time: no record can fail a
            # time row (module note), so only the four space rows test.
            tested = self.fused[:4]
            bounds = [qx1, -qx0, qy1, -qy0]
        else:
            tested = self.fused[:6]
            bounds = [qx1, -qx0, qy1, -qy0, qt1, -qt0]
        sector = None
        if cover is not None:
            sector = self.sector_rows(cover[0], cover[1])
            cx, cy = cover[2], cover[3]
            bounds += [cx, -cx, cy, -cy]
        b = np.array(bounds)[:, None]
        if (iy1 - iy0 + 1) * (ix1 - ix0 + 1) <= _CELL_LOOP_MAX:
            # Typical query: a handful of cells.  A plain Python loop
            # collecting contiguous ranges costs less than the ~15 NumPy
            # dispatches of the vectorised enumeration below -- per-op
            # dispatch (~1 us) dominates at this frontier size.
            los, his = self._cell_ranges(span)
            if not los:
                return _EMPTY_IDS
            if len(los) == 1:
                lo, hi = los[0], his[0]
                cand, ids = tested[:, lo:hi], rid[lo:hi]
                if sector is not None:
                    sector = sector[:, lo:hi]
            else:
                # Concatenating a few contiguous slices is a memcpy each;
                # a gather by index array costs several times more here.
                ranges = list(zip(los, his))
                cand = np.concatenate(
                    [tested[:, lo:hi] for lo, hi in ranges], axis=1)
                ids = np.concatenate([rid[lo:hi] for lo, hi in ranges])
                if sector is not None:
                    sector = np.concatenate(
                        [sector[:, lo:hi] for lo, hi in ranges], axis=1)
        else:
            off = self.cell_offsets
            bases = ((np.arange(iy0, iy1 + 1)[:, None] * self.width
                      + np.arange(ix0, ix1 + 1)[None, :])
                     * self.slices).ravel()
            lo_a = off[bases + it0]
            pos = _expand_ranges(lo_a, off[bases + it1 + 1] - lo_a)
            if pos.size == 0:
                return _EMPTY_IDS
            cand, ids = tested.take(pos, axis=1), rid[pos]
            if sector is not None:
                sector = sector.take(pos, axis=1)
        n_box = cand.shape[0]
        keep = (cand <= b[:n_box]).all(axis=0)
        if sector is None:
            found = ids[keep]
            n_hits = found.size
        else:
            # The cover test streams over the same candidate columns as
            # the box test; one mask then picks the survivors.
            n_hits = int(np.count_nonzero(keep))
            found = ids[keep & (sector <= b[n_box:]).all(axis=0)]
        if tally is not None:
            tally[0] += n_hits
            tally[1] += ids.size
        return found

    def search_rows(self, bmin: Sequence[float], bmax: Sequence[float],
                    limit: int) -> list[list[float]] | None:
        """Exact-match fused rows for one query box, as Python lists.

        The same hit set as :meth:`search_ids`, but each hit comes back
        as an evidence row ``[lng, -lng, lat, -lat, t_start, -t_end,
        theta, row_id]`` of plain floats (ids are array indices, far
        below 2**53, so the float round-trip is exact).  One vectorised
        box mask runs over the touched cells' CSR positions; only the
        hits are materialised, through one ``tolist``, which
        round-trips doubles exactly.

        Returns ``None`` when the touched cells hold more than
        ``limit`` rows.
        """
        qx0, qy0, qt0 = float(bmin[0]), float(bmin[1]), float(bmin[2])
        qx1, qy1, qt1 = float(bmax[0]), float(bmax[1]), float(bmax[2])
        span = self._cell_span(qx0, qy0, qt0, qx1, qy1, qt1)
        if span is None:
            return []
        los, his = self._cell_ranges(span)
        if sum(his) - sum(los) > limit:
            return None
        lo_a = np.array(los, dtype=np.int64)
        pos = _expand_ranges(lo_a, np.array(his, dtype=np.int64) - lo_a)
        b = np.array([qx1, -qx0, qy1, -qy0, qt1, -qt0])[:, None]
        hit = pos[(self.fused[:6].take(pos, axis=1) <= b).all(axis=0)]
        return np.vstack((self.fused.take(hit, axis=1),
                          self.row_ids[hit])).T.tolist()

    def search_many(self, bmins: np.ndarray, bmaxs: np.ndarray,
                    cover: tuple[float, float, np.ndarray, np.ndarray]
                    | None = None,
                    tally: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched box search: ``(query_ids, record_ids)`` hit pairs.

        ``query_ids`` comes back sorted ascending (query-major), so each
        query's hits form a contiguous run recoverable with
        ``np.searchsorted``.  The whole batch is answered by one
        two-level expansion (``(query, iy, ix)`` cell triples, then each
        cell's CSR range over the query's time slices) plus one fused
        compare over the combined ``(query, candidate)`` frontier.

        ``cover`` and ``tally`` are :meth:`search_ids`' per query:
        ``(half_angle, radius, lngs, lats)`` with one point per query,
        and a ``(2, n_queries)`` int64 array to whose column ``q`` query
        ``q``'s box hits and rows read are added.
        """
        bmins = np.atleast_2d(np.asarray(bmins, dtype=float))
        bmaxs = np.atleast_2d(np.asarray(bmaxs, dtype=float))
        n_q = int(bmins.shape[0])
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        if self.n == 0 or n_q == 0:
            return empty
        nonempty = ((bmaxs[:, 0] >= self.x0) & (bmins[:, 0] <= self.x1)
                    & (bmaxs[:, 1] >= self.y0) & (bmins[:, 1] <= self.y1)
                    & (bmaxs[:, 2] >= self.t0)
                    & (bmins[:, 2] <= self.t1 + self.max_dur))
        ix0 = np.clip(((bmins[:, 0] - self.x0) * self.inv_cw
                       ).astype(np.int64), 0, self.width - 1)
        ix1 = np.clip(((bmaxs[:, 0] - self.x0) * self.inv_cw
                       ).astype(np.int64), 0, self.width - 1)
        iy0 = np.clip(((bmins[:, 1] - self.y0) * self.inv_ch
                       ).astype(np.int64), 0, self.height - 1)
        iy1 = np.clip(((bmaxs[:, 1] - self.y0) * self.inv_ch
                       ).astype(np.int64), 0, self.height - 1)
        it0 = np.clip(((bmins[:, 2] - self.max_dur - self.t0) * self.inv_ct
                       ).astype(np.int64), 0, self.slices - 1)
        it1 = np.clip(((bmaxs[:, 2] - self.t0) * self.inv_ct
                       ).astype(np.int64), 0, self.slices - 1)
        # Two-level expansion: one (query, iy, ix) triple per touched
        # cell, enumerated query-major so hits stay sorted by query.
        n_x = ix1 - ix0 + 1
        n_pairs = np.where(nonempty, (iy1 - iy0 + 1) * n_x, 0)
        pair_q = np.repeat(np.arange(n_q), n_pairs)
        if pair_q.size == 0:
            return empty
        total = int(n_pairs.sum())
        k = (np.arange(total)
             - np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs))
        nx_q = n_x[pair_q]
        iy = iy0[pair_q] + k // nx_q
        ix = ix0[pair_q] + k % nx_q
        base = (iy * self.width + ix) * self.slices
        lo = self.cell_offsets[base + it0[pair_q]]
        hi = self.cell_offsets[base + it1[pair_q] + 1]
        counts = hi - lo
        cand = _expand_ranges(lo, counts)
        cqid = np.repeat(pair_q, counts)
        if cand.size == 0:
            return empty
        # As in search_ids, the time rows test only when some window
        # leaves out a start time.
        n_rows = 4 if (bool((bmins[:, 2] <= self.t0).all())
                       and bool((bmaxs[:, 2] >= self.t1).all())) else 6
        qb = np.empty((n_rows, n_q), dtype=float)
        qb[0] = bmaxs[:, 0]
        np.negative(bmins[:, 0], out=qb[1])
        qb[2] = bmaxs[:, 1]
        np.negative(bmins[:, 1], out=qb[3])
        if n_rows == 6:
            qb[4] = bmaxs[:, 2]
            np.negative(bmins[:, 2], out=qb[5])
        keep = (self.fused[:n_rows].take(cand, axis=1)
                <= qb.take(cqid, axis=1)).all(axis=0)
        cqid, cand = cqid[keep], cand[keep]
        if tally is not None:
            tally[0] += np.bincount(cqid, minlength=n_q)
            # Rows read per query, summed over its (query, cell) pairs.
            tally[1] += np.bincount(pair_q, counts, n_q).astype(np.int64)
        if cover is not None:
            half_angle, radius, cx, cy = cover
            qc = np.stack((cx, -cx, cy, -cy))
            inside = (self.sector_rows(half_angle, radius).take(cand, axis=1)
                      <= qc.take(cqid, axis=1)).all(axis=0)
            cqid, cand = cqid[inside], cand[inside]
        return cqid, self.row_ids[cand]
