"""Which public functions the traced run wraps, and the per-layer
metrics derived from their spans and counts.

Layer names are module names under ``repro``.  ``*_s`` metrics are
*self* times (span duration minus child spans); counts are exact and
repeat run to run.  Every metric is emitted on every workload -- a
layer the workload bypasses reads 0, which is the isolation claim the
workload exists to make.
"""

from __future__ import annotations

from typing import Any

from repro.core import flatsnap, wal
from repro.core.cache import QueryResultCache
from repro.core.index import FoVIndex
from repro.core.retrieval import RetrievalEngine
from repro.core.server import CloudServer
from repro.net import protocol
from repro.shard.partition import GridPartitioner
from repro.shard.replica import ReplicaSet
from repro.shard.server import ShardedCloudServer
from repro.spatial.grid import PackedPointGrid
from repro.video import retrieval as video_retrieval
from repro.video import scoring as video_scoring

from benchmarks.perf.harness import RunLog
from benchmarks.perf.trace import SpanRecorder, Target
from benchmarks.perf.workloads import Workload

__all__ = ["PER_LAYER", "targets", "layer_metrics",
           "expected_counts", "reconcile"]

#: name -> (unit, better).  Order is the waterfall's print order.
PER_LAYER: dict[str, tuple[str, str]] = {
    "net.protocol.decode_s": ("s", "lower"),
    "net.protocol.decode_calls": ("count", "lower"),
    "net.protocol.decode_mb_per_s": ("MB/s", "higher"),
    "net.protocol.rejected": ("count", "lower"),
    "core.wal.append_s": ("s", "lower"),
    "core.wal.commit_s": ("s", "lower"),
    "core.wal.commits": ("count", "lower"),
    "core.wal.bytes_written": ("bytes", "lower"),
    "core.wal.bytes_per_record": ("bytes", "lower"),
    "core.wal.replay_s": ("s", "lower"),
    "shard.partition.split_s": ("s", "lower"),
    "shard.partition.split_records": ("count", "lower"),
    "shard.partition.route_s": ("s", "lower"),
    "shard.partition.route_calls": ("count", "lower"),
    "shard.partition.fanout_mean": ("shards", "lower"),
    "shard.partition.pruned_share": ("ratio", "higher"),
    "core.server.ingest_s": ("s", "lower"),
    "core.index.insert_many_s": ("s", "lower"),
    "core.index.insert_many_calls": ("count", "lower"),
    "core.index.records_inserted": ("count", "higher"),
    "core.index.epoch_bumps": ("count", "lower"),
    "core.index.packed_view_s": ("s", "lower"),
    "core.index.packed_view_calls": ("count", "lower"),
    "core.index.packed_view_rebuilds": ("count", "lower"),
    "spatial.grid.search_s": ("s", "lower"),
    "spatial.grid.search_calls": ("count", "lower"),
    "spatial.grid.rows_returned": ("count", "lower"),
    "spatial.grid.rows_per_result": ("ratio", "lower"),
    "core.retrieval.execute_s": ("s", "lower"),
    "core.retrieval.execute_calls": ("count", "lower"),
    "core.retrieval.candidates": ("count", "lower"),
    "core.retrieval.after_filter": ("count", "lower"),
    "core.retrieval.filter_keep_share": ("ratio", "higher"),
    "core.retrieval.execute_many_s": ("s", "lower"),
    "core.retrieval.execute_many_calls": ("count", "higher"),
    "core.cache.get_s": ("s", "lower"),
    "core.cache.put_s": ("s", "lower"),
    "core.cache.hits": ("count", "higher"),
    "core.cache.misses": ("count", "lower"),
    "core.cache.hit_share": ("ratio", "higher"),
    "shard.server.query_self_s": ("s", "lower"),
    "shard.server.query_calls": ("count", "lower"),
    "shard.server.query_many_self_s": ("s", "lower"),
    "shard.server.ingest_batch_self_s": ("s", "lower"),
    "shard.server.duplicates": ("count", "lower"),
    "shard.server.rejected": ("count", "lower"),
    "video.retrieval.retrieve_s": ("s", "lower"),
    "video.retrieval.segments_harvested": ("count", "lower"),
    "video.retrieval.videos_considered": ("count", "lower"),
    "video.scoring.lcv_s": ("s", "lower"),
    "video.scoring.dtw_s": ("s", "lower"),
    "video.scoring.calls": ("count", "lower"),
    "core.flatsnap.pack_s": ("s", "lower"),
    "core.flatsnap.pack_bytes": ("bytes", "lower"),
    "core.flatsnap.unpack_s": ("s", "lower"),
    "shard.replica.sync_s": ("s", "lower"),
    "shard.replica.syncs": ("count", "lower"),
    "shard.replica.promote_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.residual_share": ("ratio", "lower"),
}


def targets() -> list[Target]:
    """The wrappers of one traced run (hooks keep per-run state)."""
    views: dict[int, Any] = {}      # id(index) -> last view it returned

    def decoded(rec: SpanRecorder, args: tuple, _kw: dict, _res: Any) -> None:
        rec.add("net.protocol.decode_bytes", len(args[0]))

    def decode_failed(rec: SpanRecorder, _args: tuple, _kw: dict) -> None:
        rec.add("net.protocol.rejected")

    def appended(rec: SpanRecorder, args: tuple, _kw: dict, _res: Any) -> None:
        rec.add("core.wal.bytes_written", len(args[1]) + wal.ENTRY_OVERHEAD)

    def split(rec: SpanRecorder, args: tuple, _kw: dict, _res: Any) -> None:
        rec.add("shard.partition.split_records", len(args[1]))

    def inserted(rec: SpanRecorder, _args: tuple, _kw: dict, n: int) -> None:
        rec.add("core.index.records_inserted", n)
        rec.add("core.index.epoch_bumps", 1 if n else 0)

    def viewed(rec: SpanRecorder, args: tuple, _kw: dict, view: Any) -> None:
        if views.get(id(args[0])) is not view:
            views[id(args[0])] = view
            rec.add("core.index.packed_view_rebuilds")

    def searched_ids(rec: SpanRecorder, _a: tuple, _kw: dict, ids: Any) -> None:
        rec.add("spatial.grid.rows_returned", len(ids))

    def searched_rows(rec: SpanRecorder, _a: tuple, _kw: dict,
                      rows: Any) -> None:
        rec.add("spatial.grid.rows_returned", 0 if rows is None else len(rows))

    def searched_many(rec: SpanRecorder, _a: tuple, _kw: dict,
                      pairs: Any) -> None:
        rec.add("spatial.grid.rows_returned", len(pairs[1]))

    def executed(rec: SpanRecorder, _a: tuple, _kw: dict, result: Any) -> None:
        rec.add("core.retrieval.candidates", result.candidates)
        rec.add("core.retrieval.after_filter", result.after_filter)
        rec.add("core.retrieval.ranked_rows", len(result.ranked))

    def executed_many(rec: SpanRecorder, _a: tuple, _kw: dict,
                      results: Any) -> None:
        for result in results:
            executed(rec, _a, _kw, result)

    def cache_got(rec: SpanRecorder, _a: tuple, _kw: dict, value: Any) -> None:
        rec.add("core.cache.misses" if value is None else "core.cache.hits")

    def ingested(rec: SpanRecorder, _a: tuple, _kw: dict,
                 outcomes: Any) -> None:
        for outcome in outcomes:
            rec.add("shard.server.records_acked", outcome.records_indexed)
            if outcome.status.name == "DUPLICATE":
                rec.add("shard.server.duplicates")
            elif outcome.status.name == "REJECTED":
                rec.add("shard.server.rejected")

    def retrieved(rec: SpanRecorder, _a: tuple, _kw: dict, result: Any) -> None:
        rec.add("video.retrieval.segments_harvested",
                result.segments_harvested)
        rec.add("video.retrieval.videos_considered", result.videos_considered)

    def packed(rec: SpanRecorder, _a: tuple, _kw: dict, buf: bytes) -> None:
        rec.add("core.flatsnap.pack_bytes", len(buf))

    return [
        Target(protocol, "decode_bundle_columns", "net.protocol.decode",
               after=decoded, failed=decode_failed),
        Target(wal.WriteAheadLog, "append", "core.wal.append", after=appended),
        Target(wal.WriteAheadLog, "commit", "core.wal.commit"),
        Target(wal, "replay", "core.wal.replay"),
        Target(GridPartitioner, "split", "shard.partition.split", after=split),
        Target(GridPartitioner, "shards_for_query", "shard.partition.route"),
        Target(CloudServer, "ingest", "core.server.ingest"),
        Target(FoVIndex, "insert_many", "core.index.insert_many",
               after=inserted),
        Target(FoVIndex, "packed_view", "core.index.packed_view",
               after=viewed),
        Target(PackedPointGrid, "search_ids", "spatial.grid.search",
               after=searched_ids),
        Target(PackedPointGrid, "search_rows", "spatial.grid.search",
               after=searched_rows),
        Target(PackedPointGrid, "search_many", "spatial.grid.search",
               after=searched_many),
        Target(RetrievalEngine, "execute", "core.retrieval.execute",
               after=executed),
        Target(RetrievalEngine, "execute_many", "core.retrieval.execute_many",
               after=executed_many),
        Target(QueryResultCache, "get", "core.cache.get", after=cache_got),
        Target(QueryResultCache, "put", "core.cache.put"),
        Target(ShardedCloudServer, "query", "shard.server.query"),
        # query() is a one-line delegate to query_many([q]): its
        # locks, merge and stats are the query span's self time.
        Target(ShardedCloudServer, "query_many", "shard.server.query_many",
               absorbed_by="shard.server.query"),
        Target(ShardedCloudServer, "ingest_batch", "shard.server.ingest_batch",
               after=ingested),
        # replay_wal runs the same commit-group code as ingest_batch.
        Target(ShardedCloudServer, "replay_wal", "shard.server.ingest_batch"),
        Target(video_retrieval, "retrieve_videos", "video.retrieval.retrieve",
               after=retrieved),
        Target(video_scoring, "lcv_run_length", "video.scoring.lcv"),
        Target(video_scoring, "alignment_score", "video.scoring.dtw"),
        Target(flatsnap, "pack_snapshot", "core.flatsnap.pack", after=packed),
        Target(flatsnap, "unpack_snapshot", "core.flatsnap.unpack"),
        Target(ReplicaSet, "sync", "shard.replica.sync"),
        Target(ReplicaSet, "promote", "shard.replica.promote"),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder, n_shards: int, slowdown: float,
                  overhead_share: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced measured run.

    Self times are divided by the traced pass's ``slowdown`` like the
    gated times.  ``overhead_share`` is what tracing added to the time inside client
    calls, against an untraced pass over the same inputs.
    ``trace.residual_share`` is the traced wall no wrapped function
    covers: the self time of the harness's own per-operation spans.
    """
    times = rec.self_times()

    def self_s(span: str) -> float:
        return times.get(span, (0.0, 0))[0] / slowdown

    def calls(span: str) -> int:
        return times.get(span, (0.0, 0))[1]

    wall = rec.wall()
    residual = sum(t for name, (t, _n) in times.items()
                   if name.startswith("op."))      # wall-clock, like wall
    decode_s = self_s("net.protocol.decode")
    hits, misses = rec.count("core.cache.hits"), rec.count("core.cache.misses")
    searched = calls("core.retrieval.execute")
    routed = calls("shard.partition.route")
    out = {
        "net.protocol.decode_s": decode_s,
        "net.protocol.decode_calls": calls("net.protocol.decode"),
        "net.protocol.decode_mb_per_s":
            _ratio(rec.count("net.protocol.decode_bytes") / 1e6, decode_s),
        "net.protocol.rejected": rec.count("net.protocol.rejected"),
        "core.wal.append_s": self_s("core.wal.append"),
        "core.wal.commit_s": self_s("core.wal.commit"),
        "core.wal.commits": calls("core.wal.commit"),
        "core.wal.bytes_written": rec.count("core.wal.bytes_written"),
        "core.wal.bytes_per_record":
            _ratio(rec.count("core.wal.bytes_written"),
                   rec.count("shard.server.records_acked")),
        "core.wal.replay_s": self_s("core.wal.replay"),
        "shard.partition.split_s": self_s("shard.partition.split"),
        "shard.partition.split_records":
            rec.count("shard.partition.split_records"),
        "shard.partition.route_s": self_s("shard.partition.route"),
        "shard.partition.route_calls": routed,
        "shard.partition.fanout_mean": _ratio(searched, routed),
        "shard.partition.pruned_share":
            1.0 - _ratio(searched, routed * n_shards) if routed else 0.0,
        "core.server.ingest_s": self_s("core.server.ingest"),
        "core.index.insert_many_s": self_s("core.index.insert_many"),
        "core.index.insert_many_calls": calls("core.index.insert_many"),
        "core.index.records_inserted": rec.count("core.index.records_inserted"),
        "core.index.epoch_bumps": rec.count("core.index.epoch_bumps"),
        "core.index.packed_view_s": self_s("core.index.packed_view"),
        "core.index.packed_view_calls": calls("core.index.packed_view"),
        "core.index.packed_view_rebuilds":
            rec.count("core.index.packed_view_rebuilds"),
        "spatial.grid.search_s": self_s("spatial.grid.search"),
        "spatial.grid.search_calls": calls("spatial.grid.search"),
        "spatial.grid.rows_returned": rec.count("spatial.grid.rows_returned"),
        "spatial.grid.rows_per_result":
            _ratio(rec.count("spatial.grid.rows_returned"),
                   rec.count("core.retrieval.ranked_rows")),
        "core.retrieval.execute_s": self_s("core.retrieval.execute"),
        "core.retrieval.execute_calls": searched,
        "core.retrieval.candidates": rec.count("core.retrieval.candidates"),
        "core.retrieval.after_filter": rec.count("core.retrieval.after_filter"),
        "core.retrieval.filter_keep_share":
            _ratio(rec.count("core.retrieval.after_filter"),
                   rec.count("core.retrieval.candidates")),
        "core.retrieval.execute_many_s": self_s("core.retrieval.execute_many"),
        "core.retrieval.execute_many_calls":
            calls("core.retrieval.execute_many"),
        "core.cache.get_s": self_s("core.cache.get"),
        "core.cache.put_s": self_s("core.cache.put"),
        "core.cache.hits": hits,
        "core.cache.misses": misses,
        "core.cache.hit_share": _ratio(hits, hits + misses),
        "shard.server.query_self_s": self_s("shard.server.query"),
        "shard.server.query_calls": calls("shard.server.query"),
        "shard.server.query_many_self_s": self_s("shard.server.query_many"),
        "shard.server.ingest_batch_self_s":
            self_s("shard.server.ingest_batch"),
        "shard.server.duplicates": rec.count("shard.server.duplicates"),
        "shard.server.rejected": rec.count("shard.server.rejected"),
        "video.retrieval.retrieve_s": self_s("video.retrieval.retrieve"),
        "video.retrieval.segments_harvested":
            rec.count("video.retrieval.segments_harvested"),
        "video.retrieval.videos_considered":
            rec.count("video.retrieval.videos_considered"),
        "video.scoring.lcv_s": self_s("video.scoring.lcv"),
        "video.scoring.dtw_s": self_s("video.scoring.dtw"),
        "video.scoring.calls":
            calls("video.scoring.lcv") + calls("video.scoring.dtw"),
        "core.flatsnap.pack_s": self_s("core.flatsnap.pack"),
        "core.flatsnap.pack_bytes": rec.count("core.flatsnap.pack_bytes"),
        "core.flatsnap.unpack_s": self_s("core.flatsnap.unpack"),
        "shard.replica.sync_s": self_s("shard.replica.sync"),
        "shard.replica.syncs": calls("shard.replica.sync"),
        "shard.replica.promote_s": self_s("shard.replica.promote"),
        "trace.overhead_share": overhead_share,
        "trace.residual_share": _ratio(residual, wall),
    }
    return out


#: Traced wall the wrappers may leave unexplained.
MAX_RESIDUAL_SHARE = 0.10

_INGEST_SIDE = ("net.protocol.decode_calls", "core.wal.commits",
                "shard.partition.split_records",
                "core.index.insert_many_calls",
                "core.index.packed_view_rebuilds", "shard.replica.syncs")
_QUERY_SIDE = ("shard.partition.route_calls", "spatial.grid.search_calls",
               "core.retrieval.execute_calls",
               "core.retrieval.execute_many_calls", "core.cache.hits",
               "core.cache.misses", "shard.server.query_calls",
               "core.index.packed_view_calls", "video.scoring.calls")


def expected_counts(workload: Workload, log: RunLog) -> dict[str, int]:
    """Per-layer counts the operation stream implies, exactly.

    The generator knows how many lookups hit, how many bundles are
    redelivered or corrupt and which groups reach the WAL; the run log
    adds what only the fleet can tell (how many shards a group bumped,
    how many records a promotion re-indexed).
    """
    want = workload.expected
    kinds = [op.kind for op in workload.ops]
    out = {"shard.server.query_calls": kinds.count("query")}
    if "cache_hits" in want:
        out["core.cache.hits"] = want["cache_hits"]
        out["core.cache.misses"] = want["cache_misses"]
    if workload.writes:
        replayed = (len(workload.warmup_group) + want["accepted"]
                    if "replay" in kinds else 0)
        out.update({
            "net.protocol.decode_calls":
                want["accepted"] + want["rejected"] + replayed,
            "net.protocol.rejected": want["rejected"],
            "shard.server.duplicates": want["duplicates"],
            "shard.server.rejected": want["rejected"],
            "core.wal.commits": want["wal_commits"],
            "core.index.records_inserted":
                log.acked_records + log.recovered_records
                + log.promoted_records,
            "core.index.epoch_bumps":
                log.epoch_bumps + (1 if log.promoted_records else 0),
        })
    return out


def reconcile(layer: dict[str, float], expected: dict[str, int],
              reads: bool, writes: bool) -> list[str]:
    """Waterfall checks; returns one note per violated expectation.

    ``expected`` maps a per-layer count to the value the operation
    stream implies.  A workload without writes must leave every
    ingest-side layer untouched (and rebuild no packed view), one
    without reads every query-side layer; one with both must show the
    rebuilds its epoch bumps force.
    """
    notes = [f"{name} = {layer[name]:g}, operation stream implies {want}"
             for name, want in expected.items() if layer[name] != want]
    if layer["trace.residual_share"] > MAX_RESIDUAL_SHARE:
        notes.append(f"trace.residual_share "
                     f"{layer['trace.residual_share']:.3f} > "
                     f"{MAX_RESIDUAL_SHARE}")
    idle = (() if writes else _INGEST_SIDE) + (() if reads else _QUERY_SIDE)
    notes.extend(f"{name} = {layer[name]:g} on a workload that bypasses it"
                 for name in idle if layer[name] != 0)
    if reads and writes and layer["core.index.packed_view_rebuilds"] == 0:
        notes.append("no packed_view rebuild although epochs were bumped")
    return notes
