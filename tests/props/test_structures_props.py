"""Hypothesis property tests: the interval tree.

Also the failure-injection contracts: non-finite sensor data must be
rejected at the trace/segmenter boundary, never silently absorbed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import FoV, FoVTrace, StreamingSegmenter
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
