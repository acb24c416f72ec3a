"""End-to-end metric definitions and how a run log becomes numbers.

Two tiers, one measured run behind both:

* :data:`END_TO_END` -- the five metrics ``BENCHMARK.json`` gates.  The
  driver's contract wants every gated metric on every workload and
  never zero, so they are named by role: ``op_p50_ms`` / ``op_tail_ms``
  are the median and tail latency of the workload's *headline* call
  (:data:`HEADLINE`), ``run_s`` the time the whole fixed operation
  stream spends inside client calls.
* the workload's own metrics (``query_p99_ms``,
  ``wal_recovery_records_per_s``, ...) -- the names ISSUE 11 and later
  issues use.  Each exists only where its operation runs; each names
  the gated metric whose bound :mod:`benchmarks.perf.compare` applies
  to it (:data:`DETAIL`).

Every time and rate in both tiers is the wall-clock value
``time.perf_counter`` read, divided (rates: multiplied) by the run's
slowdown (:mod:`benchmarks.perf.harness`); on a quiet reference box the
slowdown is 1.  The wall-clock values of the gated times and the
slowdown itself are reported as well (:data:`WALL`), ungated: on this
box they move by up to half with the neighbours.

Percentiles follow ``repro.eval.statistics.percentile`` (the repo's
one definition).  A tail percentile is the highest round one the
run's sample count supports with about ten samples beyond it -- p99 of
9 000 queries, p95 of 225 ingest acks, p75 of 30 read-after-writes.
"""

from __future__ import annotations

import os
import resource

from repro.eval.statistics import percentile

from benchmarks.perf.harness import RunLog, Verdict
from benchmarks.perf.workloads import SWEEP_QUERIES, Workload

__all__ = ["END_TO_END", "DETAIL", "WALL", "HEADLINE", "Metric",
           "run_metrics", "peak_rss_mb", "resident_mb"]

#: (value, unit, sample count behind it)
Metric = tuple[float, str, int]

#: gated metric -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: workload -> (headline role, its tail percentile)
HEADLINE: dict[str, tuple[str, float]] = {
    "city_read": ("query", 99.0),
    "city_ingest": ("ingest", 95.0),
    "city_mixed": ("read_after_write", 75.0),
    "city_batch": ("video", 95.0),
}

#: detail metric -> (unit, better, gated metric lending its bound)
DETAIL: dict[str, tuple[str, str, str]] = {
    "query_p50_ms": ("ms", "lower", "op_p50_ms"),
    "query_p99_ms": ("ms", "lower", "op_tail_ms"),
    "queries_per_s": ("1/s", "higher", "run_s"),
    "ingest_ack_p50_ms": ("ms", "lower", "op_p50_ms"),
    "ingest_ack_p95_ms": ("ms", "lower", "op_tail_ms"),
    "ingest_records_per_s": ("1/s", "higher", "run_s"),
    "wal_recovery_records_per_s": ("1/s", "higher", "run_s"),
    "read_after_write_p50_ms": ("ms", "lower", "op_tail_ms"),
    "standby_sync_p50_ms": ("ms", "lower", "op_p50_ms"),
    "video_query_p50_ms": ("ms", "lower", "op_p50_ms"),
    "video_query_p95_ms": ("ms", "lower", "op_tail_ms"),
    "batch_queries_per_s": ("1/s", "higher", "run_s"),
    "failed_share": ("ratio", "lower", "run_s"),
}


#: reported, never compared: metric -> unit
WALL: dict[str, str] = {
    "setup_wall_s": "s",
    "run_wall_s": "s",
    "op_p50_wall_ms": "ms",
    "op_tail_wall_ms": "ms",
    "machine_slowdown": "ratio",
}


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux: KiB -> MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def resident_mb() -> float:
    """Resident set of this process right now, in MiB."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20


def run_metrics(workload: Workload, log: RunLog, verdict: Verdict,
                setup_wall_s: float, setup_slowdown: float,
                rss_mb: float) -> dict[str, Metric]:
    """Every end-to-end, detail and wall-clock metric of one untraced run."""
    lat: dict[str, list[float]] = {}
    for op, dt in zip(workload.ops, log.durations):
        lat.setdefault(op.role, []).append(dt)
    slow = log.slowdown
    out: dict[str, Metric] = {}

    def ms(name: str, role: str, q: float, by: float = slow) -> None:
        if lat.get(role):
            out[name] = (1e3 * percentile(lat[role], q) / by, "ms",
                         len(lat[role]))

    def rate(name: str, work: int, role: str) -> None:
        if lat.get(role):
            out[name] = (work * slow / sum(lat[role]), "1/s", work)

    ms("query_p50_ms", "query", 50.0)
    ms("query_p99_ms", "query", 99.0)
    if workload.name == "city_read":
        rate("queries_per_s", len(lat["query"]), "query")
    ms("ingest_ack_p50_ms", "ingest", 50.0)
    if workload.name == "city_ingest":
        ms("ingest_ack_p95_ms", "ingest", 95.0)
    rate("ingest_records_per_s", log.acked_records, "ingest")
    rate("wal_recovery_records_per_s", log.recovered_records, "replay")
    ms("read_after_write_p50_ms", "read_after_write", 50.0)
    ms("standby_sync_p50_ms", "sync", 50.0)
    ms("video_query_p50_ms", "video", 50.0)
    ms("video_query_p95_ms", "video", 95.0)
    rate("batch_queries_per_s", SWEEP_QUERIES * len(lat.get("sweep", ())),
         "sweep")
    out["failed_share"] = (verdict.failed / verdict.attempted, "ratio",
                           verdict.attempted)

    role, tail_q = HEADLINE[workload.name]
    n_ops = len(workload.ops)
    ms("op_p50_ms", role, 50.0)
    ms("op_tail_ms", role, tail_q)
    out["run_s"] = (log.wall_seconds() / slow, "s", n_ops)
    out["setup_s"] = (setup_wall_s / setup_slowdown, "s", 1)
    out["peak_rss_mb"] = (rss_mb, "MiB", 1)

    ms("op_p50_wall_ms", role, 50.0, by=1.0)
    ms("op_tail_wall_ms", role, tail_q, by=1.0)
    out["run_wall_s"] = (log.wall_seconds(), "s", n_ops)
    out["setup_wall_s"] = (setup_wall_s, "s", 1)
    out["machine_slowdown"] = (slow, "ratio", len(log.calibration))
    return out
