"""CLI observability surfaces: ``metrics`` subcommand and ``--trace``."""

import json

import pytest

from repro.cli import main
from repro.obs import parse_prometheus


@pytest.fixture
def snapshot(tmp_path):
    path = tmp_path / "city.fov"
    rc = main(["generate", "--providers", "4", "--seed", "7",
               "--out", str(path)])
    assert rc == 0
    return path


class TestMetricsCommand:
    def test_prometheus_output_round_trips(self, snapshot, capsys):
        rc = main(["metrics", "--snapshot", str(snapshot),
                   "--queries", "16", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        families = parse_prometheus(out)

        # the whole instrumented surface shows up in one snapshot
        for name in ("query_requests", "query_cache_hits",
                     "query_cache_misses", "cache_hits", "cache_misses",
                     "index_records_live", "packed_descents",
                     "span_duration_s"):
            assert name in families, f"missing family {name}"

        # each of the 16 queries ran twice: cold misses, then warm hits
        (requests,) = families["query_requests"].samples
        assert requests.value == 32
        (hits,) = families["cache_hits"].samples
        (misses,) = families["cache_misses"].samples
        assert hits.value == 16
        assert misses.value == 16

        # histogram series are well-formed: +Inf bucket equals count
        spans = families["span_duration_s"]
        assert spans.kind == "histogram"
        inf = {tuple(sorted(s.labels.items())): s.value
               for s in spans.samples if s.labels.get("le") == "+Inf"}
        assert inf and all(v > 0 for v in inf.values())

    def test_json_output_matches_prometheus_numbers(self, snapshot, capsys):
        rc = main(["metrics", "--snapshot", str(snapshot),
                   "--queries", "8", "--seed", "3", "--format", "json"])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["query.requests"]["samples"][0]["value"] == 16
        assert blob["cache.hits"]["samples"][0]["value"] == 8
        assert blob["span.duration_s"]["type"] == "histogram"

    def test_metrics_serve_the_packed_engine(self, snapshot, capsys):
        rc = main(["metrics", "--snapshot", str(snapshot),
                   "--queries", "4"])
        assert rc == 0
        families = parse_prometheus(capsys.readouterr().out)
        # the cold batch is one packed descent; the warm batch hits
        assert families["packed_descents"].samples[0].value == 1
        assert families["query_requests"].samples[0].value == 8

    def test_missing_snapshot_is_an_error(self, tmp_path, capsys):
        rc = main(["metrics", "--snapshot", str(tmp_path / "nope.fov")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestQueryTrace:
    def test_trace_flag_prints_the_span_tree(self, snapshot, capsys):
        rc = main(["query", "--snapshot", str(snapshot),
                   "--lat", "40.0046", "--lng", "116.3284",
                   "--t0", "0", "--t1", "5000", "--radius", "300",
                   "--trace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        tree = out.split("trace:", 1)[1]
        assert "server.query" in tree
        assert "query.rank" in tree
        assert " ms" in tree
        # nesting is rendered by indentation under the root span
        root_line = next(line for line in tree.splitlines()
                         if line.startswith("server.query"))
        child_lines = [line for line in tree.splitlines()
                       if line.startswith("  query.")]
        assert root_line and child_lines

    def test_sharded_trace_shows_one_funnel_pass(self, snapshot, capsys):
        """The router descends each shard, then projects, filters and
        ranks every shard's hits once."""
        rc = main(["query", "--snapshot", str(snapshot),
                   "--lat", "40.0046", "--lng", "116.3284",
                   "--t0", "0", "--t1", "5000", "--radius", "300",
                   "--shards", "3", "--trace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert not out.startswith("0 candidates")
        names = [line.split()[0] for line in
                 out.split("trace:", 1)[1].splitlines() if line.strip()]
        assert names[0] == "server.query"
        for stage in ("query.tree_descent", "query.projection",
                      "query.orientation_filter", "query.rank"):
            assert names.count(stage) == 1, names

    def test_without_flag_no_trace_is_printed(self, snapshot, capsys):
        rc = main(["query", "--snapshot", str(snapshot),
                   "--lat", "40.0046", "--lng", "116.3284",
                   "--t0", "0", "--t1", "5000", "--radius", "300"])
        assert rc == 0
        assert "trace:" not in capsys.readouterr().out


class TestIngestTrace:
    def test_trace_flag_prints_the_ingest_span(self, capsys):
        rc = main(["ingest", "--providers", "2", "--seed", "1", "--trace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace (last bundle):" in out
        assert "server.ingest_bundle" in out
