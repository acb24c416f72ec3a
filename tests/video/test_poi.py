"""Unit tests for POI discovery over harvested coverage."""

import numpy as np
import pytest

from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection
from repro.video.poi import POICell, discover_pois

ORIGIN = GeoPoint(lat=40.003, lng=116.326)
PROJ = LocalProjection(ORIGIN)


def fov_at(x, y, theta, t0=0.0, t1=10.0, vid="v0", sid=0):
    p = PROJ.to_geo(float(x), float(y))
    return RepresentativeFoV(lat=p.lat, lng=p.lng, theta=float(theta),
                             t_start=t0, t_end=t1, video_id=vid,
                             segment_id=sid)


@pytest.fixture
def camera():
    return CameraModel(half_angle=30.0, radius=100.0)


class TestDiscoverPois:
    def test_empty_input(self, camera):
        assert discover_pois([], camera) == []

    def test_converging_gazes_make_the_hotspot(self, camera):
        # Four observers on a ring, all looking at the centre: the
        # centre cell is seen by all four, the periphery by fewer.
        ring = [fov_at(0, -60, 0.0, vid="a"), fov_at(0, 60, 180.0, vid="b"),
                fov_at(-60, 0, 90.0, vid="c"), fov_at(60, 0, 270.0, vid="d")]
        cells = discover_pois(ring, camera, projection=PROJ, cell_m=20.0,
                              top_k=3)
        assert cells and isinstance(cells[0], POICell)
        best = cells[0]
        assert best.observers == 4
        # The hotspot cell centre is near the ring centre (0, 0).
        assert abs(best.x) <= 20.0 and abs(best.y) <= 20.0
        # Counts are non-increasing down the ranking.
        counts = [c.observers for c in cells]
        assert counts == sorted(counts, reverse=True)

    def test_utility_rewards_angular_diversity(self, camera):
        # Equal observer counts, but one crowd watches from diverse
        # angles and the other from a single direction: the paper's
        # Section VII utility must rank the diverse crowd higher.
        diverse = [fov_at(0, -60, 0.0, vid="a"), fov_at(0, 60, 180.0, vid="b"),
                   fov_at(-60, 0, 90.0, vid="c"), fov_at(60, 0, 270.0, vid="d")]
        aligned = [fov_at(-5 * k, -60, 0.0, vid=f"v{k}") for k in range(4)]
        u_div = discover_pois(diverse, camera, projection=PROJ,
                              cell_m=20.0, top_k=1)[0]
        u_ali = discover_pois(aligned, camera, projection=PROJ,
                              cell_m=20.0, top_k=1)[0]
        assert u_div.observers == u_ali.observers == 4
        assert u_div.utility > u_ali.utility
        assert 0.0 <= u_ali.utility <= u_div.utility <= 1.0

    def test_time_window_filters_observers(self, camera):
        fovs = [fov_at(0, -60, 0.0, t0=0.0, t1=10.0, vid="early"),
                fov_at(0, 60, 180.0, t0=100.0, t1=110.0, vid="late")]
        early = discover_pois(fovs, camera, projection=PROJ,
                              t_window=(0.0, 50.0), top_k=1)
        assert early and early[0].observers == 1
        none = discover_pois(fovs, camera, projection=PROJ,
                             t_window=(500.0, 600.0))
        assert none == []

    def test_top_k_bounds_output(self, camera):
        rng = np.random.default_rng(5)
        fovs = [fov_at(x, y, th, vid=f"v{i}")
                for i, (x, y, th) in enumerate(zip(
                    rng.uniform(-200, 200, 30), rng.uniform(-200, 200, 30),
                    rng.uniform(0, 360, 30)))]
        assert len(discover_pois(fovs, camera, projection=PROJ,
                                 top_k=4)) <= 4
        with pytest.raises(ValueError):
            discover_pois(fovs, camera, top_k=0)

    def test_deterministic(self, camera):
        rng = np.random.default_rng(9)
        fovs = [fov_at(x, y, th, vid=f"v{i}")
                for i, (x, y, th) in enumerate(zip(
                    rng.uniform(-150, 150, 20), rng.uniform(-150, 150, 20),
                    rng.uniform(0, 360, 20)))]
        a = discover_pois(fovs, camera, projection=PROJ, top_k=5)
        b = discover_pois(fovs, camera, projection=PROJ, top_k=5)
        assert a == b

    def test_geo_and_local_coordinates_agree(self, camera):
        cells = discover_pois([fov_at(0, 0, 0.0)], camera, projection=PROJ,
                              top_k=1)
        cell = cells[0]
        x, y = PROJ.to_local(GeoPoint(cell.lat, cell.lng))
        assert x == pytest.approx(cell.x, abs=1e-6)
        assert y == pytest.approx(cell.y, abs=1e-6)
