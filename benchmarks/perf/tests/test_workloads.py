"""Generator determinism and the expectations it hands the harness."""

import pytest

from benchmarks.perf.workloads import (BUNDLE_RECORDS, GROUP_BUNDLES,
                                       HORIZON_S, POOL_KEYS, RUN_SECONDS,
                                       SWEEP_QUERIES, WORKLOADS, Sizing,
                                       build_workload)

SMOKE = Sizing.for_run(20.0, scale=0.01)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_digest_other_seed_other_digest(name):
    a = build_workload(name, 3, SMOKE)
    b = build_workload(name, 3, SMOKE)
    c = build_workload(name, 4, SMOKE)
    assert a.digest == b.digest
    assert a.ops == b.ops and a.base == b.base
    assert a.digest != c.digest


def test_workloads_share_one_city_but_not_one_stream():
    built = [build_workload(name, 5, SMOKE) for name in sorted(WORKLOADS)]
    assert len({w.base for w in built}) == 1
    assert len({w.digest for w in built}) == len(built)


def test_seconds_scale_operations_uniformly_and_leave_the_corpus():
    short, long = Sizing.for_run(10.0), Sizing.for_run(20.0)
    assert long == Sizing()
    assert (long.read_queries, long.ingest_groups, long.mixed_cycles,
            long.batch_videos) == (12_000, 300, 40, 600)     # ISSUE 11's
    driver = Sizing.for_run(RUN_SECONDS)
    assert (driver.read_queries, driver.ingest_groups, driver.mixed_cycles,
            driver.batch_videos) == (9_000, 225, 30, 450)
    assert short.base_records == long.base_records
    for field in ("read_queries", "ingest_groups", "mixed_cycles",
                  "batch_videos"):
        assert getattr(short, field) * 2 == getattr(long, field)


def test_read_only_workloads_hold_no_writes_and_distinct_keys():
    for name in ("city_read", "city_batch"):
        w = build_workload(name, 2, SMOKE)
        assert not w.writes
        assert {op.kind for op in w.ops} <= {"query", "video", "sweep"}
        assert w.expected["cache_hits"] == 0
    reads = build_workload("city_read", 2, SMOKE)
    assert len({op.arg for op in reads.ops}) == len(reads.ops)
    # whole-horizon windows, like repro.sim.cityload's queries
    assert {(op.arg.t_start, op.arg.t_end) for op in reads.ops} == {
        (0.0, HORIZON_S)}
    batch = build_workload("city_batch", 2, SMOKE)
    assert all(len(op.arg) == SWEEP_QUERIES
               for op in batch.ops if op.kind == "sweep")


def test_ingest_expectations_add_up():
    w = build_workload("city_ingest", 2, Sizing.for_run(20.0, scale=0.3))
    groups = [op for op in w.ops if op.kind == "ingest"]
    assert w.ops[-1].kind == "replay"
    assert all(len(op.arg) == len(op.expect) == GROUP_BUNDLES
               for op in groups)
    e = w.expected
    assert e["accepted"] + e["duplicates"] + e["rejected"] == e["bundles"]
    assert e["duplicates"] > 0 and e["rejected"] > 0
    assert e["records_inserted"] == e["accepted"] * BUNDLE_RECORDS
    # A redelivery is byte-identical to an earlier accepted payload.
    seen: set[bytes] = set()
    for op in groups:
        for payload, status in zip(op.arg, op.expect):
            assert (payload in seen) == (status == "DUPLICATE")
            if status == "ACCEPTED":
                seen.add(payload)


def test_mixed_cache_expectation_counts_every_lookup():
    w = build_workload("city_mixed", 2, SMOKE)
    queries = [op for op in w.ops if op.kind == "query"]
    e = w.expected
    assert e["cache_hits"] + e["cache_misses"] == len(queries) == e["queries"]
    assert e["cache_hits"] > 0
    roles = [op.role for op in w.ops]
    assert roles.count("pool_before") == roles.count("pool_after") == POOL_KEYS
    assert roles.index("failover") > len(roles) - POOL_KEYS - 2
