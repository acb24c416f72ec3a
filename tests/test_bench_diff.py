"""The advisory benchmark differ (``tools/analysis/bench_diff.py``).

The differ infers the good direction for each metric from the naming
convention the exports follow; these tests pin that inference --
especially the rate suffixes (``_mb_s``, ``_bundles_s``) whose
trailing ``_s`` must *not* be read as a duration -- and the advisory
exit contract (0 even with regressions).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "bench_diff", REPO / "tools" / "analysis" / "bench_diff.py")
assert _spec is not None and _spec.loader is not None
bench_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_diff)


def _keys(rows):
    return [row[0] for row in rows]


class TestClassifyKey:
    """Table-driven classification over the *real* exported key names.

    Every row here appears verbatim in a committed ``BENCH_*.json``;
    the table is the contract that unsuffixed counters and string
    stamps are skipped and that the rate suffixes out-rank the generic
    ``_s`` duration rule by suffix length, not by check order.
    """

    TABLE = [
        # durations: lower is better
        ("ingest_clean_s", "lower"),
        ("ingest_faulty_s", "lower"),
        ("batch_s", "lower"),
        # speedups: higher is better
        ("batched_speedup_x", "higher"),
        ("wal_overhead_x", "higher"),
        # rates: higher is better despite the trailing "_s"
        ("decode_v2_mb_s", "higher"),
        ("ingest_clean_bundles_s", "higher"),
        ("ingest_batched_bundles_s", "higher"),
        ("wal_ingest_batched_bundles_s", "higher"),
        # unsuffixed counters: informational, never diffed
        ("faulty_retries", None),
        ("bundles", None),
        ("records", None),
        ("corrupt_copies_quarantined", None),
        ("backpressure_shed", None),
        ("wal_syncs", None),
        # string stamps: informational (and non-numeric anyway)
        ("engine", None),
        ("bench", None),
        ("snapshot_schema_version", None),
    ]

    def test_table(self):
        for key, want in self.TABLE:
            rule = bench_diff.classify_key(key)
            got = rule[0] if rule is not None else None
            assert got == want, f"{key}: {got!r} != {want!r}"

    def test_rate_beats_duration_regardless_of_table_order(self):
        # Longest-suffix precedence must hold even if SUFFIX_RULES is
        # reordered so "_s" is checked last-inserted.
        original = bench_diff.SUFFIX_RULES
        reordered = dict(reversed(list(original.items())))
        bench_diff.SUFFIX_RULES = reordered
        try:
            assert bench_diff.classify_key(
                "ingest_batched_bundles_s")[0] == "higher"
            assert bench_diff.classify_key("decode_v2_mb_s")[0] == "higher"
            assert bench_diff.classify_key("batch_s")[0] == "lower"
        finally:
            bench_diff.SUFFIX_RULES = original

    def test_labels_match_directions(self):
        assert bench_diff.classify_key("batch_s")[1] == "slower"
        assert bench_diff.classify_key("speedup_x")[1] == "less speedup"
        assert bench_diff.classify_key(
            "decode_mb_s")[1] == "lower throughput"


class TestDirections:
    def test_duration_regression_is_slower(self):
        rows = bench_diff.regressions(
            {"batch_s": 1.0}, {"batch_s": 1.5}, 0.20)
        assert _keys(rows) == ["batch_s"]
        assert rows[0][3] == 0.5

    def test_duration_improvement_is_quiet(self):
        assert bench_diff.regressions(
            {"batch_s": 1.0}, {"batch_s": 0.5}, 0.20) == []

    def test_speedup_regression_is_less_speedup(self):
        rows = bench_diff.regressions(
            {"speedup_x": 10.0}, {"speedup_x": 5.0}, 0.20)
        assert _keys(rows) == ["speedup_x"]

    def test_rate_suffixes_are_higher_is_better(self):
        # 9.9 -> 13.2 MB/s is an *improvement*; the trailing "_s" must
        # not flag it as a 33% slowdown.
        old = {"decode_mb_s": 9.9, "ingest_bundles_s": 150.0}
        new = {"decode_mb_s": 13.2, "ingest_bundles_s": 200.0}
        assert bench_diff.regressions(old, new, 0.20) == []
        # ...and a real throughput drop is flagged.
        rows = bench_diff.regressions(new, old, 0.20)
        assert _keys(rows) == ["decode_mb_s", "ingest_bundles_s"]

    def test_informational_keys_never_warn(self):
        old = {"records": 100, "engine": "packed",
               "snapshot_schema_version": 1}
        new = {"records": 999, "engine": "dynamic",
               "snapshot_schema_version": 2}
        assert bench_diff.regressions(old, new, 0.20) == []

    def test_realistic_summary_mixed_keys(self):
        # A down-scaled BENCH_ingest_path.json: the counters swing
        # wildly (workload shape changed) and must stay silent; only
        # the genuine perf regressions surface.
        old = {"bench": "ingest_path", "bundles": 400,
               "faulty_retries": 12, "corrupt_copies_quarantined": 3,
               "backpressure_shed": 0, "wal_syncs": 2,
               "ingest_clean_s": 1.0,
               "ingest_clean_bundles_s": 400.0,
               "ingest_batched_bundles_s": 4000.0,
               "wal_ingest_batched_bundles_s": 3500.0,
               "decode_v2_mb_s": 50.0, "batched_speedup_x": 10.0}
        new = dict(old, bundles=800, faulty_retries=90,
                   corrupt_copies_quarantined=40, backpressure_shed=77,
                   wal_syncs=9,
                   ingest_clean_s=2.0,              # slower: warn
                   ingest_batched_bundles_s=1000.0,  # throughput drop: warn
                   batched_speedup_x=2.0)            # less speedup: warn
        rows = bench_diff.regressions(old, new, 0.20)
        assert _keys(rows) == ["batched_speedup_x",
                               "ingest_batched_bundles_s",
                               "ingest_clean_s"]

    def test_within_threshold_is_quiet(self):
        assert bench_diff.regressions(
            {"batch_s": 1.0}, {"batch_s": 1.19}, 0.20) == []

    def test_new_and_zero_keys_are_skipped(self):
        old = {"gone_s": 1.0, "zero_s": 0.0}
        new = {"fresh_s": 9.9, "zero_s": 5.0}
        assert bench_diff.regressions(old, new, 0.20) == []


class TestMain:
    def test_regression_warns_but_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "BENCH_fake.json"
        path.write_text(json.dumps({"batch_s": 9.0}), encoding="utf-8")

        def fake_committed(_path):
            return {"batch_s": 1.0}

        original = bench_diff.committed_version
        bench_diff.committed_version = fake_committed
        try:
            rc = bench_diff.main([str(path)])
        finally:
            bench_diff.committed_version = original
        out = capsys.readouterr().out
        assert rc == 0
        assert "::warning file=BENCH_fake.json::" in out
        assert "800% slower" in out

    def test_untracked_file_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "BENCH_new.json"
        path.write_text(json.dumps({"batch_s": 1.0}), encoding="utf-8")
        original = bench_diff.committed_version
        bench_diff.committed_version = lambda _p: None
        try:
            rc = bench_diff.main([str(path)])
        finally:
            bench_diff.committed_version = original
        assert rc == 0
        assert "no committed baseline" in capsys.readouterr().out

    def test_unreadable_json_is_operational_error(self, tmp_path):
        path = tmp_path / "BENCH_broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert bench_diff.main([str(path)]) == 2
