"""Hypothesis property tests: interval tree and sector overlap.

Also the failure-injection contracts: non-finite sensor data must be
rejected at the trace/segmenter boundary, never silently absorbed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import FoV, FoVTrace, StreamingSegmenter
from repro.geometry.overlap import overlap_fraction, sector_overlap_area
from repro.geometry.sector import Sector
from repro.geometry.vec import Vec2
from repro.spatial.intervaltree import IntervalTree


@st.composite
def interval_sets(draw):
    n = draw(st.integers(0, 40))
    rows = []
    for i in range(n):
        lo = draw(st.floats(0.0, 1000.0))
        rows.append((lo, lo + draw(st.floats(0.0, 100.0)), i))
    return rows


@settings(max_examples=50, deadline=None)
@given(interval_sets(), st.floats(-50.0, 1150.0), st.floats(0.0, 200.0))
def test_interval_tree_exact(rows, lo, width):
    tree = IntervalTree(rows)
    hi = lo + width
    got = sorted(tree.overlapping(lo, hi))
    want = sorted(i for a, b, i in rows if b >= lo and a <= hi)
    assert got == want


@settings(max_examples=50, deadline=None)
@given(interval_sets(), st.floats(-50.0, 1150.0))
def test_interval_tree_stab_exact(rows, point):
    tree = IntervalTree(rows)
    got = sorted(tree.stab(point))
    want = sorted(i for a, b, i in rows if a <= point <= b)
    assert got == want


sectors = st.builds(
    Sector,
    apex=st.builds(Vec2, st.floats(-100, 100), st.floats(-100, 100)),
    azimuth=st.floats(0.0, 360.0, exclude_max=True),
    half_angle=st.floats(10.0, 85.0),
    radius=st.floats(10.0, 150.0),
)


@settings(max_examples=40, deadline=None)
@given(sectors, sectors)
def test_overlap_symmetric_and_bounded(s1, s2):
    a12 = sector_overlap_area(s1, s2, arc_points=24)
    a21 = sector_overlap_area(s2, s1, arc_points=24)
    assert a12 == pytest.approx(a21, rel=1e-6, abs=1e-6)
    assert -1e-9 <= a12 <= min(s1.area(), s2.area()) * 1.01 + 1e-9
    f = overlap_fraction(s1, s2, arc_points=24)
    assert 0.0 <= f <= 1.0


@settings(max_examples=30, deadline=None)
@given(sectors)
def test_self_overlap_is_area(s):
    assert sector_overlap_area(s, s, arc_points=64) == pytest.approx(
        s.area(), rel=5e-3)


class TestNonFiniteRejection:
    def test_trace_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            FoVTrace([0.0, 1.0], [40.0, float("nan")], [116.0, 116.0],
                     [0.0, 0.0])

    def test_trace_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            FoVTrace([0.0], [40.0], [float("inf")], [0.0])

    def test_segmenter_rejects_nan_record(self, camera):
        seg = StreamingSegmenter(camera)
        with pytest.raises(ValueError, match="non-finite"):
            seg.push(FoV(t=0.0, lat=float("nan"), lng=116.0, theta=0.0))

    def test_segmenter_state_survives_rejection(self, camera):
        seg = StreamingSegmenter(camera)
        seg.push(FoV(t=0.0, lat=40.0, lng=116.0, theta=0.0))
        with pytest.raises(ValueError):
            seg.push(FoV(t=1.0, lat=40.0, lng=116.0, theta=float("inf")))
        # The good stream continues unharmed.
        seg.push(FoV(t=2.0, lat=40.0, lng=116.0, theta=0.0))
        assert seg.open_length == 2
