"""PackedPointGrid: boundary clamping and cross-path parity.

Regression anchor: the single-query paths (``search_ids`` and the
``search_rows`` latency path) used to clamp the *lower* cell-bin
indices only from below.  Records sitting exactly on an extent's upper
edge are clamped into the last bin at build time, so a closed-box
query touching exactly that edge mapped its lower bin one past the
last bin and scanned nothing -- while the batched ``search_many``
(which ``np.clip``s both ends) found the record.  The engine-parity
hypothesis suite caught this as a dynamic-vs-sharded ranking split.

The layout suites below pin the space-major cell order on a grid with
at least 8 cells per axis: every search path, on both sides of the
single-query loop cutoff, equals brute force on whole-horizon,
one-slice, slice-edge, instant and gap-spanning boxes, and a
whole-horizon box gathers at most one CSR range per grid row.
``FUZZ_SEED`` (set by the CI fuzz-smoke matrix) picks the random boxes
of :class:`TestFuzzedBoxParity`; a red run reproduces locally with
``FUZZ_SEED=<n> pytest <this file>``.
"""

import os

import numpy as np
import pytest

import repro.spatial.grid as grid_mod
from repro.spatial.grid import PackedPointGrid

FUZZ_SEED = int(os.environ.get("FUZZ_SEED", "0"))


def build_grid(n=300, seed=7):
    """A grid big enough to get >1 bin per axis (n=300 -> 2x2x2)."""
    rng = np.random.default_rng(seed)
    lng = rng.uniform(116.0, 116.6, n)
    lat = rng.uniform(39.8, 40.2, n)
    t_start = rng.uniform(0.0, 3600.0, n)
    dur = rng.uniform(60.0, 600.0, n)
    theta = rng.uniform(0.0, 360.0, n)
    # Pin one record to every upper extent so edge-exact queries have
    # a guaranteed hit: max lng, max lat, max t_start with max duration.
    lng[0], lat[0] = lng.max(), lat.max()
    t_start[0], dur[0] = t_start.max(), dur.max()
    cols = (lng, lat, t_start, t_start + dur, theta)
    return PackedPointGrid.build(*cols), cols


def brute_ids(cols, bmin, bmax):
    lng, lat, t_start, t_end, _theta = cols
    hit = ((lng >= bmin[0]) & (lng <= bmax[0])
           & (lat >= bmin[1]) & (lat <= bmax[1])
           & (t_start <= bmax[2]) & (t_end >= bmin[2]))
    return sorted(np.flatnonzero(hit).tolist())


def all_paths(grid, bmin, bmax):
    """(search_ids, search_rows, search_many) hit sets, each sorted."""
    ids = sorted(grid.search_ids(bmin, bmax).tolist())
    rows = grid.search_rows(bmin, bmax, limit=10**9)
    assert rows is not None
    via_rows = sorted(int(r[7]) for r in rows)
    _qids, many = grid.search_many(np.array([bmin]), np.array([bmax]))
    via_many = sorted(many.tolist())
    return ids, via_rows, via_many


class TestUpperEdgeClamp:
    """Closed-box queries that touch an extent's upper edge exactly."""

    def test_time_edge_t1_plus_max_dur(self):
        grid, cols = build_grid()
        # Record 0 runs [t1, t1 + max_dur]; a query starting exactly at
        # its end instant still overlaps the closed interval.
        bmin = (grid.x0, grid.y0, grid.t1 + grid.max_dur)
        bmax = (grid.x1, grid.y1, grid.t1 + grid.max_dur + 600.0)
        want = brute_ids(cols, bmin, bmax)
        assert 0 in want
        ids, via_rows, via_many = all_paths(grid, bmin, bmax)
        assert ids == via_rows == via_many == want

    def test_lng_edge(self):
        grid, cols = build_grid()
        bmin = (grid.x1, grid.y0, 0.0)
        bmax = (grid.x1 + 1.0, grid.y1, 1e6)
        want = brute_ids(cols, bmin, bmax)
        assert 0 in want
        ids, via_rows, via_many = all_paths(grid, bmin, bmax)
        assert ids == via_rows == via_many == want

    def test_lat_edge(self):
        grid, cols = build_grid()
        bmin = (grid.x0, grid.y1, 0.0)
        bmax = (grid.x1, grid.y1 + 1.0, 1e6)
        want = brute_ids(cols, bmin, bmax)
        assert 0 in want
        ids, via_rows, via_many = all_paths(grid, bmin, bmax)
        assert ids == via_rows == via_many == want

    def test_single_slice_grid(self):
        """The falsifying shape: everything in one cell, boundary query.

        12 co-located records collapse the grid to 1x1x1; the record
        ending at t=4200 must match a query starting at t=4200.
        """
        n = 12
        lng = np.full(n, 116.3)
        lat = np.full(n, 40.0)
        t_start = np.array([3600.0] + [0.0] * (n - 1))
        t_end = np.array([4200.0] + [300.0] * (n - 1))
        grid = PackedPointGrid.build(lng, lat, t_start, t_end,
                                     np.zeros(n))
        bmin = (116.29, 39.99, 4200.0)
        bmax = (116.31, 40.01, 4800.0)
        ids, via_rows, via_many = all_paths(grid, bmin, bmax)
        assert ids == via_rows == via_many == [0]


class TestRandomBoxParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_paths_match_brute_force(self, seed):
        grid, cols = build_grid(seed=100 + seed)
        rng = np.random.default_rng(seed)
        for _ in range(50):
            c = (rng.uniform(116.0, 116.6), rng.uniform(39.8, 40.2),
                 rng.uniform(0.0, 4200.0))
            half = (rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.2),
                    rng.uniform(0.0, 1800.0))
            bmin = tuple(c[i] - half[i] for i in range(3))
            bmax = tuple(c[i] + half[i] for i in range(3))
            want = brute_ids(cols, bmin, bmax)
            ids, via_rows, via_many = all_paths(grid, bmin, bmax)
            assert ids == via_rows == via_many == want


# ----------------------------------------------------------------------
# space-major layout on a grid with >= 8 cells per axis

HOTSPOTS = np.array([[116.05, 39.85], [116.55, 39.85],
                     [116.05, 40.15], [116.55, 40.15]])


@pytest.fixture(scope="module")
def hotspot():
    """n=4000 -> 9 x 9 x 9 cells; four tight hotspots in the corners
    leave the middle cells empty, so a box can span empty cells between
    occupied ones."""
    rng = np.random.default_rng(11)
    n = 4000
    k = rng.integers(0, len(HOTSPOTS), n)
    lng = HOTSPOTS[k, 0] + rng.normal(0.0, 0.02, n)
    lat = HOTSPOTS[k, 1] + rng.normal(0.0, 0.015, n)
    t_start = rng.uniform(0.0, 3600.0, n)
    cols = (lng, lat, t_start, t_start + rng.uniform(5.0, 60.0, n),
            rng.uniform(0.0, 360.0, n))
    grid = PackedPointGrid.build(*cols)
    assert min(grid.width, grid.height, grid.slices) >= 8
    return grid, cols


def every_path(grid, bmin, bmax, monkeypatch):
    """Hit sets of search_ids on both sides of the loop cutoff, plus
    search_rows and search_many; each sorted."""
    monkeypatch.setattr(grid_mod, "_CELL_LOOP_MAX", 10**9)
    ids, via_rows, via_many = all_paths(grid, bmin, bmax)
    monkeypatch.setattr(grid_mod, "_CELL_LOOP_MAX", 0)
    vectorised = sorted(grid.search_ids(bmin, bmax).tolist())
    return ids, vectorised, via_rows, via_many


def slice_width(grid):
    return (grid.t1 - grid.t0) / grid.slices


SPACES = {
    "whole-extent": lambda g: ((g.x0, g.y0), (g.x1, g.y1)),
    "one-hotspot": lambda g: ((116.02, 39.83), (116.09, 39.88)),
    "across-gap": lambda g: ((116.03, 39.84), (116.57, 39.87)),
    "diagonal-gap": lambda g: ((116.04, 39.84), (116.56, 40.16)),
}

WINDOWS = {
    "horizon-exact": lambda g: (g.t0 - g.max_dur, g.t1),
    "horizon-wide": lambda g: (g.t0 - 1e4, g.t1 + 1e4),
    "one-slice": lambda g: (g.t0 + 3 * slice_width(g) + g.max_dur + 1.0,
                            g.t0 + 4 * slice_width(g) - 1.0),
    "slice-edge": lambda g: (g.t0 + 4 * slice_width(g) - 20.0,
                             g.t0 + 4 * slice_width(g) + 20.0),
    "instant": lambda g: (g.t0 + 4 * slice_width(g),) * 2,
}


def layout_box(grid, space, window):
    (x0, y0), (x1, y1) = SPACES[space](grid)
    t0, t1 = WINDOWS[window](grid)
    return (x0, y0, t0), (x1, y1, t1)


def binned_rows(grid, cols, span):
    """How many records sit in the (cell, slice) bins of ``span`` --
    the candidate rows any layout of this grid must gather."""
    lng, lat, t_start, _t_end, _theta = cols
    ix = np.minimum(((lng - grid.x0) * grid.inv_cw).astype(np.int64),
                    grid.width - 1)
    iy = np.minimum(((lat - grid.y0) * grid.inv_ch).astype(np.int64),
                    grid.height - 1)
    it = np.minimum(((t_start - grid.t0) * grid.inv_ct).astype(np.int64),
                    grid.slices - 1)
    ix0, ix1, iy0, iy1, it0, it1 = span
    return int(((ix >= ix0) & (ix <= ix1) & (iy >= iy0) & (iy <= iy1)
                & (it >= it0) & (it <= it1)).sum())


class TestSpaceMajorParity:
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    @pytest.mark.parametrize("space", sorted(SPACES))
    def test_every_path_matches_brute_force(self, hotspot, monkeypatch,
                                            space, window):
        grid, cols = hotspot
        bmin, bmax = layout_box(grid, space, window)
        want = brute_ids(cols, bmin, bmax)
        assert want, "every layout box holds at least one record"
        ids, vectorised, via_rows, via_many = every_path(
            grid, bmin, bmax, monkeypatch)
        assert ids == vectorised == via_rows == via_many == want

    def test_windows_bin_as_named(self, hotspot):
        grid, _ = hotspot
        last = grid.slices - 1
        spans = {w: layout_box(grid, "whole-extent", w) for w in WINDOWS}
        bins = {w: grid._cell_span(*b[0], *b[1])[4:]
                for w, b in spans.items()}
        assert bins["horizon-exact"] == bins["horizon-wide"] == (0, last)
        assert bins["one-slice"] == (3, 3)
        assert bins["slice-edge"] == (3, 4)
        assert bins["instant"][1] == 4


class TestRangeCoalescing:
    """A whole-horizon box reads one CSR range per touched grid row;
    the time-major layout read one per (slice, row) slab."""

    @pytest.mark.parametrize("space", sorted(SPACES))
    def test_whole_horizon_reads_at_most_one_range_per_row(
            self, hotspot, space):
        grid, cols = hotspot
        bmin, bmax = layout_box(grid, space, "horizon-exact")
        span = grid._cell_span(*bmin, *bmax)
        ix0, ix1, iy0, iy1, it0, it1 = span
        assert (it0, it1) == (0, grid.slices - 1)
        los, his = grid._cell_ranges(span)
        assert len(los) <= iy1 - iy0 + 1
        assert sum(his) - sum(los) == binned_rows(grid, cols, span)

    def test_the_pin_has_cells_to_coalesce(self, hotspot):
        """Precondition: the one-hotspot box has more occupied cells
        than rows, so one-range-per-row is not just one-per-cell."""
        grid, _ = hotspot
        bmin, bmax = layout_box(grid, "one-hotspot", "horizon-exact")
        ix0, ix1, iy0, iy1, _, _ = grid._cell_span(*bmin, *bmax)
        off, s, w = grid.cell_offsets, grid.slices, grid.width
        occupied = sum(int(off[(iy * w + ix + 1) * s] > off[(iy * w + ix) * s])
                       for iy in range(iy0, iy1 + 1)
                       for ix in range(ix0, ix1 + 1))
        assert occupied > iy1 - iy0 + 1

    @pytest.mark.parametrize("window", ["one-slice", "slice-edge", "instant"])
    @pytest.mark.parametrize("space", sorted(SPACES))
    def test_windowed_box_reads_its_bins_and_no_more(self, hotspot, space,
                                                     window):
        grid, cols = hotspot
        bmin, bmax = layout_box(grid, space, window)
        span = grid._cell_span(*bmin, *bmax)
        ix0, ix1, iy0, iy1, _, _ = span
        los, his = grid._cell_ranges(span)
        assert len(los) <= (ix1 - ix0 + 1) * (iy1 - iy0 + 1)
        assert all(lo < hi for lo, hi in zip(los, his))
        assert all(a < b for a, b in zip(his, los[1:]))   # disjoint, sorted
        assert sum(his) - sum(los) == binned_rows(grid, cols, span)


def per_cell_ranges(grid, span):
    """Reference: two offsets per touched cell, abutting ranges merged."""
    ix0, ix1, iy0, iy1, it0, it1 = span
    off, w, s = grid.cell_offsets.tolist(), grid.width, grid.slices
    los, his = [], []
    for iy in range(iy0, iy1 + 1):
        for ix in range(ix0, ix1 + 1):
            cell = (iy * w + ix) * s
            lo, hi = off[cell + it0], off[cell + it1 + 1]
            if hi > lo:
                if his and his[-1] == lo:
                    his[-1] = hi
                else:
                    los.append(lo)
                    his.append(hi)
    return los, his


class TestPerRowOffsets:
    """A span over every time slice reads two offsets per grid row; its
    ranges must be the per-cell loop's, windowed spans included."""

    def test_random_spans_match_the_per_cell_loop(self, hotspot):
        grid, _ = hotspot
        rng = np.random.default_rng(FUZZ_SEED)
        w, h, s = grid.width, grid.height, grid.slices
        full = 0
        for _ in range(2000):
            ix0, ix1 = sorted(rng.integers(0, w, 2).tolist())
            iy0, iy1 = sorted(rng.integers(0, h, 2).tolist())
            it0, it1 = ((0, s - 1) if rng.random() < 0.5
                        else sorted(rng.integers(0, s, 2).tolist()))
            span = (ix0, ix1, iy0, iy1, it0, it1)
            full += (it0, it1) == (0, s - 1)
            assert grid._cell_ranges(span) == per_cell_ranges(grid, span), (
                f"FUZZ_SEED={FUZZ_SEED}: span {span}")
        assert 0 < full < 2000

    def test_a_full_span_reads_two_offsets_per_row(self, hotspot,
                                                   monkeypatch):
        grid, cols = hotspot
        bmin, bmax = layout_box(grid, "diagonal-gap", "horizon-exact")
        span = grid._cell_span(*bmin, *bmax)
        ix0, ix1, iy0, iy1, _, _ = span
        assert ix1 > ix0 and iy1 > iy0
        reads = []

        class Offsets(np.ndarray):
            def item(self, *args):
                reads.append(args)
                return super().item(*args)

        monkeypatch.setattr(grid, "cell_offsets",
                            grid.cell_offsets.view(Offsets))
        los, his = grid._cell_ranges(span)
        assert len(reads) == 2 * (iy1 - iy0 + 1)
        assert sum(his) - sum(los) == binned_rows(grid, cols, span)


class TestFuzzedBoxParity:
    """Random boxes over the hotspot grid, drawn from ``FUZZ_SEED``."""

    def test_random_boxes_match_brute_force(self, hotspot, monkeypatch):
        grid, cols = hotspot
        rng = np.random.default_rng(FUZZ_SEED)
        hits = 0
        for _ in range(150):
            cx, cy = HOTSPOTS[rng.integers(len(HOTSPOTS))]
            cx += rng.normal(0.0, 0.05)
            cy += rng.normal(0.0, 0.04)
            hx, hy = rng.uniform(0.0, 0.3, 2) ** 2
            span_s = rng.choice([0.0, 60.0, 300.0, 900.0, 3600.0, 1e5])
            t_lo = rng.uniform(grid.t0 - 200.0, grid.t1 + 200.0)
            bmin = (cx - hx, cy - hy, t_lo - span_s / 2)
            bmax = (cx + hx, cy + hy, t_lo + span_s / 2)
            want = brute_ids(cols, bmin, bmax)
            ids, vectorised, via_rows, via_many = every_path(
                grid, bmin, bmax, monkeypatch)
            assert ids == vectorised == via_rows == via_many == want, (
                f"FUZZ_SEED={FUZZ_SEED}: box {bmin} .. {bmax}")
            hits += len(want)
        assert hits > 0


class TestSectorCover:
    """Searches with a ``cover`` hand on exactly the box hits whose
    sector box holds the point, on every path, and count every box hit;
    the sector boxes hold every record that covers the point."""

    CAMERA = (30.0, 5000.0)       # (half_angle, radius): km-wide boxes

    @staticmethod
    def sector_by_record(grid):
        rows = grid.sector_rows(*TestSectorCover.CAMERA)
        by_record = np.empty_like(rows)
        by_record[:, grid.row_ids] = rows
        return by_record

    def test_every_path_matches_brute_force(self, hotspot, monkeypatch):
        grid, cols = hotspot
        by_record = self.sector_by_record(grid)
        rng = np.random.default_rng(FUZZ_SEED)
        kept = boxed = 0
        for _ in range(100):
            cx, cy = HOTSPOTS[rng.integers(len(HOTSPOTS))]
            cx += rng.normal(0.0, 0.03)
            cy += rng.normal(0.0, 0.02)
            hx, hy = rng.uniform(0.0, 0.3, 2) ** 2
            t_lo = rng.uniform(grid.t0 - 200.0, grid.t1 + 200.0)
            span_s = rng.choice([60.0, 900.0, 1e5])
            bmin = (cx - hx, cy - hy, t_lo - span_s / 2)
            bmax = (cx + hx, cy + hy, t_lo + span_s / 2)
            box = brute_ids(cols, bmin, bmax)
            inside = (by_record <= np.array([[cx], [-cx], [cy], [-cy]])
                      ).all(axis=0)
            want = [i for i in box if inside[i]]
            cover = (*self.CAMERA, cx, cy)
            got = []
            for loop_max in (10**9, 0):
                monkeypatch.setattr(grid_mod, "_CELL_LOOP_MAX", loop_max)
                tally = [0, 0]
                got.append(sorted(grid.search_ids(bmin, bmax, cover,
                                                  tally).tolist()))
                assert tally[0] == len(box) <= tally[1]
            counts = np.zeros((2, 2), dtype=np.int64)
            qids, many = grid.search_many(
                np.array([bmin, bmin]), np.array([bmax, bmax]),
                (self.CAMERA[0], self.CAMERA[1], np.array([cx, cx]),
                 np.array([cy, cy])), counts)
            assert counts.tolist() == [[len(box)] * 2, [tally[1]] * 2]
            for q in (0, 1):
                got.append(sorted(many[qids == q].tolist()))
            assert got == [want] * 4, f"FUZZ_SEED={FUZZ_SEED}"
            kept += len(want)
            boxed += len(box)
        assert 0 < kept < boxed

    def test_sector_boxes_hold_every_covering_record(self, hotspot):
        from repro.core.camera import CameraModel
        from repro.core.retrieval import _sector_evidence
        from repro.geo.earth import pairwise_local_xy

        grid, cols = hotspot
        lng, lat, _t_start, _t_end, theta = cols
        by_record = self.sector_by_record(grid)
        camera = CameraModel(*self.CAMERA)
        rng = np.random.default_rng(FUZZ_SEED)
        covered = 0
        for i in rng.integers(0, grid.n, 200):
            # A point in record i's sector, so that it covers something.
            a = np.radians(theta[i] + rng.uniform(-30.0, 30.0))
            d = rng.uniform(0.0, 5000.0)
            cy = lat[i] + d * np.cos(a) / 111_319.0
            cx = lng[i] + d * np.sin(a) / (111_319.0
                                          * np.cos(np.radians(cy)))
            x, y = pairwise_local_xy(cy, cx, lat, lng)
            _, _, covers, _ = _sector_evidence(camera, True, x, y, theta,
                                               0.0)
            inside = (by_record <= np.array([[cx], [-cx], [cy], [-cy]])
                      ).all(axis=0)
            assert not (covers & ~inside).any(), f"FUZZ_SEED={FUZZ_SEED}"
            covered += int(covers.sum())
        assert covered > 0
