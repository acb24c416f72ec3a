"""Hypothesis property tests for video-to-video retrieval.

Three layers of guarantees:

* The vectorised sequence kernels are **bit-identical** to their
  scalar references on arbitrary similarity matrices -- same ints,
  same floats, not merely close.
* Both reductions respect the structure of the problem: monotone in
  the per-pair similarities, bounded to their documented ranges,
  invariant where the definition says they must be.
* The retrieval ranking is a pure function of geometry: relabelling
  video ids with any order-preserving map relabels the ranking and
  changes nothing else.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.server import CloudServer
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection
from repro.video import VideoQuery
from repro.video.scoring import (alignment_score, alignment_score_ref,
                                 lcv_run_length, lcv_run_length_ref,
                                 lcv_score)

ORIGIN = GeoPoint(lat=40.0, lng=116.3)
PROJ = LocalProjection(ORIGIN)

# Similarity values on a coarse grid: ties and exact-threshold hits
# are the norm, exercising the inclusive >= comparison.
sim_value = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0])


@st.composite
def sim_matrices(draw, max_side=10):
    n = draw(st.integers(1, max_side))
    m = draw(st.integers(1, max_side))
    flat = draw(st.lists(sim_value, min_size=n * m, max_size=n * m))
    return np.array(flat, dtype=float).reshape(n, m)


thresholds = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0])


@settings(max_examples=150, deadline=None)
@given(sim_matrices(), thresholds)
def test_lcv_kernel_matches_reference(sim, thr):
    assert lcv_run_length(sim, thr) == lcv_run_length_ref(sim, thr)


@settings(max_examples=150, deadline=None)
@given(sim_matrices())
def test_alignment_kernel_bit_identical(sim):
    # == on floats: the wavefront performs the identical add and
    # three-way max per cell as the scalar DP.
    assert alignment_score(sim) == alignment_score_ref(sim)


@st.composite
def sim_stacks(draw, max_side=12, max_videos=6):
    """Ragged stacks: ``(stack, lengths)`` with arbitrary padding."""
    n = draw(st.integers(1, max_side))
    lengths = draw(st.lists(st.integers(1, max_side), min_size=1,
                            max_size=max_videos))
    cells = len(lengths) * n * max(lengths)
    flat = draw(st.lists(sim_value, min_size=cells, max_size=cells))
    return (np.array(flat, dtype=float).reshape(len(lengths), n, -1),
            lengths)


@settings(max_examples=150, deadline=None)
@given(sim_stacks(), thresholds)
def test_stacked_kernels_equal_per_video_equal_reference(stacked, thr):
    """One pass over V videos == V passes over one == the scalar DP,
    whatever sits in the columns past each video's length."""
    stack, lengths = stacked
    runs = lcv_run_length(stack, thr, lengths)
    scores = alignment_score(stack, lengths)
    for v, m in enumerate(lengths):
        own = stack[v, :, :m]
        assert runs[v] == lcv_run_length(own, thr) \
            == lcv_run_length_ref(own, thr)
        assert scores[v] == alignment_score(own) == alignment_score_ref(own)


@settings(max_examples=100, deadline=None)
@given(sim_matrices(), thresholds, thresholds)
def test_lcv_antitone_in_threshold(sim, a, b):
    lo, hi = min(a, b), max(a, b)
    assert lcv_run_length(sim, lo) >= lcv_run_length(sim, hi)


@settings(max_examples=100, deadline=None)
@given(sim_matrices(), thresholds, st.data())
def test_scores_monotone_in_similarity(sim, thr, data):
    """Raising any entry of Sim can never lower either score."""
    n, m = sim.shape
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, m - 1))
    bumped = sim.copy()
    bumped[i, j] = 1.0
    assert lcv_run_length(bumped, thr) >= lcv_run_length(sim, thr)
    assert alignment_score(bumped) >= alignment_score(sim)


@settings(max_examples=100, deadline=None)
@given(sim_matrices(), thresholds)
def test_ranges_and_run_bounds(sim, thr):
    n, m = sim.shape
    run = lcv_run_length(sim, thr)
    assert 0 <= run <= min(n, m)
    assert 0.0 <= lcv_score(sim, thr) <= 1.0
    assert 0.0 <= alignment_score(sim) <= 1.0


@settings(max_examples=100, deadline=None)
@given(sim_matrices(), thresholds)
def test_lcv_transpose_symmetric(sim, thr):
    # A diagonal run reads the same from either video's perspective.
    assert lcv_run_length(sim, thr) == lcv_run_length(sim.T, thr)


# ---------------------------------------------------------------------------
# Retrieval-level: ranking is invariant under order-preserving relabels.
# ---------------------------------------------------------------------------

lattice_m = st.integers(-4, 4).map(lambda k: 60.0 * k)
theta_deg = st.sampled_from([0.0, 45.0, 90.0, 180.0, 270.0])


@st.composite
def video_workloads(draw, max_videos=8, max_segments=5):
    """Short lattice trajectories: collisions and ties are common."""
    n_videos = draw(st.integers(2, max_videos))
    n_segs = draw(st.integers(1, max_segments))
    out = []
    for v in range(n_videos):
        x = draw(lattice_m)
        y = draw(lattice_m)
        for s in range(n_segs):
            x += draw(st.sampled_from([-30.0, 0.0, 30.0]))
            y += draw(st.sampled_from([-30.0, 0.0, 30.0]))
            p = PROJ.to_geo(x, y)
            out.append(RepresentativeFoV(
                lat=p.lat, lng=p.lng, theta=draw(theta_deg),
                t_start=600.0 * s, t_end=600.0 * s + 300.0,
                video_id=f"v{v:03d}", segment_id=s))
    return out


def _relabel(records, fn):
    return [RepresentativeFoV(lat=f.lat, lng=f.lng, theta=f.theta,
                              t_start=f.t_start, t_end=f.t_end,
                              video_id=fn(f.video_id),
                              segment_id=f.segment_id)
            for f in records]


@settings(max_examples=40, deadline=None)
@given(video_workloads(), st.sampled_from(["lcv", "dtw"]),
       st.booleans())
def test_order_preserving_relabel_relabels_ranking(recs, scorer, packed):
    """Prefixing every id (order-preserving) must relabel the ranking
    one-for-one: same scores, same runs, same order."""
    camera = CameraModel()
    query_vid = recs[0].video_id
    segs = tuple(sorted((r for r in recs if r.video_id == query_vid),
                        key=lambda r: r.segment_id))
    # The oracle answers the linear baseline; the packed engine the rest.
    backend = "rtree" if packed else "linear"

    def run(records, qvid):
        server = CloudServer(camera, backend=backend, cache_size=0)
        server.ingest(records)
        return server.query_video(VideoQuery(
            segments=segs, t_start=0.0, t_end=4000.0, radius=120.0,
            top_k=16, scorer=scorer, sim_threshold=0.25,
            per_segment_top_n=64, exclude=frozenset({qvid})))

    base = run(recs, query_vid)
    relabeled = run(_relabel(recs, lambda v: "crowd-" + v),
                    "crowd-" + query_vid)
    assert [("crowd-" + m.video_id, m.score, m.lcv, m.segments_matched)
            for m in base.ranked] == \
        [(m.video_id, m.score, m.lcv, m.segments_matched)
         for m in relabeled.ranked]
