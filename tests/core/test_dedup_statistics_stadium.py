"""Tests for bootstrap statistics and the stadium
scenario (the paper's grandstand orientation example end-to-end)."""

import numpy as np
import pytest

from repro import ClientPipeline, CloudServer, Query
from repro.eval.statistics import bootstrap_ci, paired_bootstrap_diff
from repro.geo.earth import LocalProjection
from repro.traces.noise import SensorNoiseModel
from repro.traces.scenarios import CITY_ORIGIN, stadium_scenario

PROJ = LocalProjection(CITY_ORIGIN)


class TestBootstrap:
    def test_degenerate_sample(self):
        ci = bootstrap_ci([5.0] * 20)
        assert ci.estimate == ci.lo == ci.hi == 5.0

    def test_interval_brackets_mean(self, rng):
        data = rng.normal(10.0, 2.0, 200)
        ci = bootstrap_ci(data, rng=rng)
        assert ci.lo <= ci.estimate <= ci.hi
        assert ci.contains(float(np.mean(data)))
        # Roughly mean +/- 2 se.
        se = 2.0 / np.sqrt(200)
        assert (ci.hi - ci.lo) == pytest.approx(2 * 1.96 * se, rel=0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], n_boot=10)

    def test_paired_diff_detects_systematic_gap(self, rng):
        base = rng.uniform(0, 1, 100)
        better = np.clip(base + 0.2, 0, 2)
        ci = paired_bootstrap_diff(better, base, rng=rng)
        assert ci.lo > 0.0, "a 0.2 systematic gap must exclude zero"

    def test_paired_diff_null(self, rng):
        a = rng.normal(0, 1, 150)
        b = a + rng.normal(0, 0.01, 150)
        ci = paired_bootstrap_diff(a, b, rng=rng)
        assert ci.contains(0.0)

    def test_paired_length_checked(self):
        with pytest.raises(ValueError):
            paired_bootstrap_diff([1.0], [1.0, 2.0])


class TestStadiumScenario:
    def test_generation(self):
        pairs = stadium_scenario(n_cameras=12, facing_fraction=0.5,
                                 noise=SensorNoiseModel.ideal())
        assert len(pairs) == 12
        assert sum(1 for _, faces in pairs if faces) == 6

    def test_orientation_filter_separates_grandstand_from_match(self, camera):
        """The paper's example: a camera on the ring filming Merkel is
        useless for a World Cup query.  The orientation filter must
        return exactly the stage-facing cameras."""
        pairs = stadium_scenario(n_cameras=16, ring_radius_m=60.0,
                                 facing_fraction=0.5,
                                 noise=SensorNoiseModel.ideal())
        server = CloudServer(camera)
        truth_facing = set()
        for k, (trace, faces) in enumerate(pairs):
            client = ClientPipeline(f"fan-{k}", camera)
            bundle = client.record_trace(trace, video_id=f"fan-{k}-vid")
            server.register_client(client)
            server.receive_bundle(bundle.payload, device_id=f"fan-{k}")
            if faces:
                truth_facing.update(r.key() for r in bundle.representatives)
        stage = PROJ.to_geo(0.0, 0.0)
        res = server.query(Query(t_start=0.0, t_end=30.0, center=stage,
                                 radius=70.0, top_n=16))
        got = set(res.keys())
        assert got == truth_facing, (
            "exactly the stage-facing cameras must match the stage query")

    def test_validation(self):
        with pytest.raises(ValueError):
            stadium_scenario(n_cameras=0)
        with pytest.raises(ValueError):
            stadium_scenario(facing_fraction=1.5)
