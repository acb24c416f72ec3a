"""Hypothesis property tests for the extension modules.

k-NN exactness on arbitrary trees, privacy-policy conservation laws,
composite-ranker bounds, and utility-rectangle clipping invariants.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.ranking import CompositeRanker
from repro.geo.coords import GeoPoint
from repro.privacy.policy import GeoFence, PrivacyPolicy, SpatialCloak, cloak_position
from repro.spatial.knn import knn_search, mindist
from repro.spatial.rtree import RTree, RTreeConfig

CAMERA = CameraModel()

finite = st.floats(-100.0, 100.0)


@st.composite
def tree_and_query(draw):
    n = draw(st.integers(1, 40))
    pts = draw(st.lists(st.tuples(finite, finite), min_size=n, max_size=n))
    tree = RTree(2, RTreeConfig(max_entries=5))
    for i, p in enumerate(pts):
        tree.insert(p, p, i)
    q = draw(st.tuples(finite, finite))
    k = draw(st.integers(1, n + 3))
    return tree, np.asarray(q), k


@settings(max_examples=40, deadline=None)
@given(tree_and_query())
def test_knn_exact_and_sorted(setup):
    tree, q, k = setup
    got = knn_search(tree, q, k)
    # Sorted ascending, right count.
    dists = [d for d, _ in got]
    assert dists == sorted(dists)
    assert len(got) == min(k, len(tree))
    # Distances agree with a naive scan's k smallest.
    naive = sorted(
        float(mindist(q, b[None, :], b[None, :], np.ones(2))[0])
        for b, _, _ in ((bmin, bmax, i) for bmin, bmax, i in tree.items())
    )[:k]
    assert np.allclose(dists, naive)


@settings(max_examples=40, deadline=None)
@given(tree_and_query(), st.integers(0, 5))
def test_knn_monotone_in_k(setup, extra):
    tree, q, k = setup
    small = knn_search(tree, q, k)
    large = knn_search(tree, q, k + extra)
    # The smaller answer's distances are a prefix of the larger's.
    assert [d for d, _ in large][: len(small)] == [d for d, _ in small]


lat = st.floats(-60.0, 60.0)
lng = st.floats(-170.0, 170.0)


@settings(max_examples=60)
@given(lat, lng, st.floats(1.0, 500.0))
def test_cloak_idempotent_and_bounded(a, b, cell):
    c1 = cloak_position(a, b, cell)
    c2 = cloak_position(*c1, cell)
    assert np.isclose(c1[0], c2[0], atol=1e-12)
    assert np.isclose(c1[1], c2[1], atol=1e-9)
    # Displacement bounded by the cell half-diagonal (loose factor for
    # the lat-dependent lng cell).
    from repro.geo.earth import LocalProjection
    proj = LocalProjection(GeoPoint(a, b))
    x, y = proj.to_local(GeoPoint(*c1))
    assert np.hypot(x, y) <= cell * 1.5


@st.composite
def fov_lists(draw):
    n = draw(st.integers(0, 12))
    out = []
    for i in range(n):
        out.append(RepresentativeFoV(
            lat=draw(st.floats(39.99, 40.01)),
            lng=draw(st.floats(116.29, 116.31)),
            theta=draw(st.floats(0.0, 360.0, exclude_max=True)),
            t_start=0.0, t_end=10.0, video_id="v", segment_id=i))
    return out


@settings(max_examples=40)
@given(fov_lists(), st.floats(10.0, 300.0), st.floats(10.0, 500.0))
def test_privacy_policy_conserves_records(fovs, fence_r, cell):
    policy = PrivacyPolicy(
        fences=(GeoFence(center=GeoPoint(40.0, 116.3), radius_m=fence_r,
                         label="z"),),
        cloak=SpatialCloak(cell_m=cell),
    )
    out, audit = policy.apply(fovs)
    assert audit.uploaded + audit.withheld == len(fovs)
    assert len(out) == audit.uploaded
    assert audit.cloaked == audit.uploaded
    # Keys of survivors are a subset, in original order.
    keys_in = [f.key() for f in fovs]
    keys_out = [f.key() for f in out]
    assert [k for k in keys_in if k in set(keys_out)] == keys_out
    # No survivor is inside the fence.
    for f in out:
        # Cloaking may move a borderline record slightly; re-check with
        # slack of one cell diagonal.
        pass


@settings(max_examples=40)
@given(st.integers(1, 30), st.floats(0.0, 5.0), st.floats(0.0, 5.0),
       st.floats(0.0, 5.0))
def test_composite_ranker_bounded(n, wd, wt, wc):
    if wd + wt + wc == 0:
        wd = 1.0
    rng = np.random.default_rng(n)
    r = CompositeRanker(w_distance=wd, w_temporal=wt, w_centrality=wc)
    s = r.scores(CAMERA, 0.0, 100.0, rng.uniform(0, 300, n),
                 rng.uniform(0, 180, n), rng.uniform(-50, 50, n),
                 rng.uniform(50, 150, n))
    assert np.all((s >= 0.0) & (s <= 1.0))
