"""Server-level observability: facade parity, reconciliation, tracing.

Three contracts pinned here:

* ``ServerStats`` is a read-through facade -- every property is backed
  by a registry family, so the Prometheus snapshot and the Python
  properties can never disagree;
* the query cache's own counters reconcile exactly with the
  server-level cache counters (a stale drop *is* a miss on both sides);
* with a tracing :class:`Observability` bundle and an injected fake
  clock, a query produces the nested span tree the CLI renders, with
  per-stage durations determined entirely by the fake clock: the four
  funnel stages directly under ``server.query`` / ``server.query_many``,
  as on a fleet of any size.
"""

import numpy as np
import pytest

from repro import CloudServer, Query
from repro.core.fov import RepresentativeFoV
from repro.core.index import FoVIndex
from repro.core.server import IngestStatus
from repro.geo.coords import GeoPoint
from repro.net.protocol import encode_bundle
from repro.obs import Observability
from repro.shard import ShardedCloudServer
from repro.traces.dataset import random_representative_fovs


class FakeClock:
    """Deterministic timer: each read advances by 1 ms."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        t = self.now
        self.now += 0.001
        return t


def _bundle(n=20, video_id="vid-a"):
    reps = [
        RepresentativeFoV(lat=40.0 + 0.0001 * i, lng=116.3,
                          theta=(30.0 * i) % 360.0,
                          t_start=float(i), t_end=float(i) + 2.0,
                          video_id=video_id, segment_id=i)
        for i in range(n)
    ]
    return encode_bundle(video_id, reps), reps


def _query_for(rec, radius=120.0, top_n=5):
    return Query(t_start=rec.t_start - 1.0, t_end=rec.t_end + 1.0,
                 center=GeoPoint(rec.lat, rec.lng), radius=radius,
                 top_n=top_n)


@pytest.fixture
def server(camera):
    return CloudServer(camera)


class TestServerStatsFacade:
    def test_ingest_counters_read_through_the_registry(self, server, rng):
        payload, reps = _bundle()
        assert server.receive_bundle(payload) == len(reps)
        reg = server.obs.registry
        bundles = reg.get("ingest.bundles")
        assert server.stats.bundles_received == 1
        assert bundles.labels(status="accepted").value == 1
        assert server.stats.records_indexed == len(reps)
        assert reg.get("ingest.records_indexed").value == len(reps)
        assert server.stats.descriptor_bytes_in == len(payload)
        assert reg.get("ingest.bytes").value == len(payload)
        assert server.stats.records_live == len(server.index)
        assert reg.get("index.records_live").value == len(server.index)
        assert reg.get("index.epoch").value == server.index.epoch

    def test_rejected_bundle_counts_journals_and_quarantines(self, server):
        outcome = server.ingest_bundle(b"garbage-not-a-bundle")
        assert outcome.status is IngestStatus.REJECTED
        reg = server.obs.registry
        assert server.stats.bundles_rejected == 1
        assert reg.get("ingest.bundles").labels(status="rejected").value == 1
        journal = server.obs.journal
        (rejected,) = journal.events("ingest.rejected")
        assert rejected.fields["digest"] == outcome.digest
        (quarantined,) = journal.events("quarantine.added")
        assert quarantined.fields["reason"] == rejected.fields["reason"]
        assert len(server.quarantine) == 1

    def test_duplicate_bundle_counted_and_journaled(self, server, rng):
        payload, _ = _bundle()
        server.receive_bundle(payload)
        assert server.receive_bundle(payload) == 0
        reg = server.obs.registry
        assert server.stats.bundles_duplicated == 1
        assert reg.get("ingest.bundles").labels(status="duplicate").value == 1
        assert len(server.obs.journal.events("ingest.duplicate")) == 1

    def test_epoch_bump_is_journaled_with_cause(self, server, rng):
        payload, _ = _bundle()
        server.receive_bundle(payload)
        bumps = server.obs.journal.events("index.epoch_bump")
        assert bumps and bumps[-1].fields["cause"] == "ingest"
        server.evict_older_than(1e12)
        bumps = server.obs.journal.events("index.epoch_bump")
        assert bumps[-1].fields["cause"] == "evict"
        assert server.stats.records_live == 0
        assert server.obs.registry.get("index.records_live").value == 0

    def test_injected_observability_is_shared(self, camera):
        obs = Observability.default()
        server = CloudServer(camera, obs=obs)
        assert server.obs is obs
        server.ingest_bundle(b"junk")
        assert obs.registry.get("ingest.bundles") \
            .labels(status="rejected").value == 1

    def test_queries_served_reads_through(self, server, rng):
        reps = random_representative_fovs(40, rng)
        server.ingest(reps)
        server.query(_query_for(reps[0]))
        server.query_many([_query_for(r) for r in reps[:4]])
        assert server.stats.queries_served == 5
        assert server.obs.registry.get("query.requests").value == 5


class TestCacheReconciliation:
    def test_server_and_cache_counters_reconcile(self, server, rng):
        """Regression: the server's cache hit/miss counters must equal

        the cache's own counters after a mixed workload that exercises
        fresh misses, repeat hits, and epoch-staleness drops.
        """
        reps = random_representative_fovs(60, rng)
        server.ingest(reps)
        queries = [_query_for(r) for r in reps[:6]]

        server.query_many(queries)          # 6 cold misses
        server.query_many(queries)          # 6 warm hits
        server.query(queries[0])            # 1 more hit

        # epoch bump invalidates every cached entry
        server.ingest(random_representative_fovs(10, rng))
        server.query_many(queries)          # 6 stale drops -> misses

        cache = server._cache
        assert cache.stale_drops == 6
        assert cache.hits == 7
        assert cache.misses == 12
        assert server.stats.cache_hits == cache.hits
        assert server.stats.cache_misses == cache.misses

        # and the registry families agree with both facades
        reg = server.obs.registry
        assert reg.get("query.cache_hits").value == cache.hits
        assert reg.get("cache.hits").value == cache.hits
        assert reg.get("query.cache_misses").value == cache.misses
        assert reg.get("cache.misses").value == cache.misses
        assert reg.get("cache.stale_drops").value == 6

    def test_cache_evictions_counted_and_journaled(self, camera, rng):
        server = CloudServer(camera, cache_size=2)
        reps = random_representative_fovs(30, rng)
        server.ingest(reps)
        for r in reps[:5]:
            server.query(_query_for(r))
        cache = server._cache
        assert cache.evictions == 3
        assert server.obs.registry.get("cache.evictions").value == 3
        assert len(server.obs.journal.events("cache.evicted")) == 3


class TestServerTracing:
    def _traced_server(self, camera, index=None):
        obs = Observability.tracing(clock=FakeClock())
        return CloudServer(camera, index=index, obs=obs), obs

    def test_query_produces_the_nested_stage_tree(self, camera, rng):
        server, obs = self._traced_server(camera)
        reps = random_representative_fovs(50, rng)
        server.ingest(reps)
        server.query(_query_for(reps[0]))

        root = obs.span_tracer.last_trace()
        assert root.name == "server.query"
        stages = [c.name for c in root.children]
        assert stages == ["query.tree_descent", "query.projection",
                          "query.orientation_filter", "query.rank"]
        # fake clock: every span closed, durations strictly positive
        for _, span in root.walk():
            assert span.end_s is not None
            assert span.duration_s > 0.0
        # children nest inside their parent's window
        for stage in root.children:
            assert stage.start_s >= root.start_s
            assert stage.end_s <= root.end_s

    def test_batched_packed_query_traces_batch_stages(self, camera, rng):
        server, obs = self._traced_server(camera)
        reps = random_representative_fovs(80, rng)
        server.ingest(reps)
        server.query_many([_query_for(r) for r in reps[:4]])

        root = obs.span_tracer.last_trace()
        assert root.name == "server.query_many"
        assert root.attrs["batch"] == 4
        stages = [c.name for c in root.children]
        assert stages == ["query.tree_descent", "query.projection",
                          "query.orientation_filter", "query.rank"]
        assert root.children[0].attrs["queries"] == 4

    def test_span_durations_populate_the_latency_histogram(self, camera, rng):
        server, obs = self._traced_server(camera)
        reps = random_representative_fovs(30, rng)
        server.ingest(reps)
        server.query(_query_for(reps[0]))
        fam = obs.registry.get("span.duration_s")
        assert fam.labels(span="server.query").count == 1
        assert fam.labels(span="query.rank").count == 1
        assert fam.labels(span="server.query").sum > 0.0

    def test_ingest_trace_records_payload_size(self, camera, rng):
        server, obs = self._traced_server(camera)
        payload, _ = _bundle()
        server.receive_bundle(payload)
        root = obs.span_tracer.last_trace()
        assert root.name == "server.ingest_bundle"
        assert root.attrs["bytes"] == len(payload)

    def test_untraced_server_records_no_traces(self, server, rng):
        reps = random_representative_fovs(20, rng)
        server.ingest(reps)
        server.query(_query_for(reps[0]))
        assert server.obs.span_tracer is None

    def test_packed_search_counters_flow_from_query(self, camera, rng):
        server, obs = self._traced_server(camera)
        reps = random_representative_fovs(200, rng)
        server.ingest(reps)
        server.query(_query_for(reps[0]))
        reg = obs.registry
        assert reg.get("packed.descents").value >= 1
        tested = reg.get("packed.entries_tested")
        assert sum(c.value for _, c in tested.children()) > 0


def _fleet(n_shards):
    def build(camera, reps, obs):
        fleet = ShardedCloudServer(camera, n_shards=n_shards,
                                   origin=reps[0].point, cell_m=100.0,
                                   cache_size=0, obs=obs)
        fleet.ingest(reps)
        return fleet
    return build


def _linear(camera, reps, obs):
    server = CloudServer(camera, backend="linear", cache_size=0, obs=obs)
    server.ingest(reps)
    return server


#: Every serving shape, each holding the same records, and the linear
#: baseline: the reference the ledger checks answers against, not a
#: serving shape.
SHAPES = {
    "cloud-server": lambda camera, reps, obs: CloudServer(
        camera, index=FoVIndex.bulk(reps), cache_size=0, obs=obs),
    "one-shard-fleet": _fleet(1),
    "three-shard-fleet": _fleet(3),
    "linear-baseline": _linear,
}

STAGES = ["query.tree_descent", "query.projection",
          "query.orientation_filter", "query.rank"]
PACKED = ["packed.descents", "packed.entries_matched",
          "packed.entries_tested", "packed.frontier_width_peak"]


@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("shape", SHAPES)
def test_every_shape_counts_and_traces_a_read_alike(camera, shape, batch):
    """One read call is one counted funnel pass, traced as the same four
    stages under the server span, whatever the fleet's size.  The
    linear baseline, answered by the oracle, is the exception: no stage
    span, no ``packed.*`` pass."""
    reps = random_representative_fovs(2000, np.random.default_rng(5),
                                      extent_m=400.0)
    obs = Observability.tracing(clock=FakeClock())
    server = SHAPES[shape](camera, reps, obs)
    reg = obs.registry
    candidates = 0
    for call in (1, 2):
        queries = [_query_for(r, radius=150.0)
                   for r in reps[batch * call: batch * (call + 1)]]
        if batch == 1:
            results = [server.query(queries[0])]
        else:
            results = server.query_many(queries)
        candidates += sum(r.candidates for r in results)
        root = obs.span_tracer.last_trace()
        assert root.name == ("server.query" if batch == 1
                             else "server.query_many")
        if shape == "linear-baseline":
            assert candidates > 0 and root.children == []
            assert [reg.get(name).value for name in PACKED] == [0] * 4
            continue
        assert reg.get("packed.descents").value == call
        matched = reg.get("packed.entries_matched").value
        assert matched == candidates > 0
        assert reg.get("packed.entries_tested").value >= matched
        assert [c.name for c in root.children] == STAGES
    if shape == "three-shard-fleet":        # the reads spanned shards
        assert server._fanout.sum > server._fanout.count
