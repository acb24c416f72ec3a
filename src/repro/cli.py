"""Command-line front-end: generate, inspect, and query FoV datasets.

A downstream user's first contact with the system, without writing
Python::

    python -m repro.cli generate --providers 20 --seed 7 --out city.fov
    python -m repro.cli inspect --snapshot city.fov
    python -m repro.cli ingest --providers 10 --seed 7 \
        --drop 0.1 --duplicate 0.1 --corrupt 0.05
    python -m repro.cli query --snapshot city.fov \
        --lat 40.0046 --lng 116.3284 --t0 0 --t1 4000 --radius 100 --top 5
    python -m repro.cli nearest --snapshot city.fov \
        --lat 40.0046 --lng 116.3284 --t 1800 --k 5
    python -m repro.cli video-query --snapshot city.fov \
        --video-id device-003-video-0 --scorer lcv --top 5 --poi 3

Snapshots are flat ``FOVPACK1`` files (:mod:`repro.core.flatsnap`:
seven record columns, CRC-protected, mmap-attachable, exact).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.core.camera import CameraModel
from repro.core.flatsnap import load_snapshot_file, write_snapshot_file
from repro.core.fov import RepresentativeFoV
from repro.core.index import FoVIndex
from repro.core.query import Query
from repro.geo.coords import GeoPoint
from repro.traces.dataset import CityDataset

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Content-free crowd-sourced mobile video retrieval "
                    "(Scan Without a Glance, ICPP 2015).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate",
                         help="simulate a city of providers and save a "
                              "descriptor snapshot")
    gen.add_argument("--providers", type=int, default=20)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    ins = sub.add_parser("inspect", help="summarise a snapshot")
    ins.add_argument("--snapshot", required=True)

    qry = sub.add_parser("query", help="run one ranked range query")
    qry.add_argument("--snapshot", required=True)
    qry.add_argument("--lat", type=float, required=True)
    qry.add_argument("--lng", type=float, required=True)
    qry.add_argument("--t0", type=float, required=True)
    qry.add_argument("--t1", type=float, required=True)
    qry.add_argument("--radius", type=float, default=100.0)
    qry.add_argument("--top", type=int, default=10)
    qry.add_argument("--half-angle", type=float, default=30.0)
    qry.add_argument("--shards", type=int, default=1,
                     help="serve from a geo-sharded fleet of N shards "
                          "(identical results, see docs/SHARDING.md)")
    qry.add_argument("--json", action="store_true",
                     help="emit the result as JSON instead of text")
    qry.add_argument("--trace", action="store_true",
                     help="collect a span trace of the request and print "
                          "the tree with per-stage durations")

    vqp = sub.add_parser("video-query",
                         help="rank stored videos against one video's "
                              "trajectory (largest common view / "
                              "alignment; see docs/VIDEO_RETRIEVAL.md)")
    vqp.add_argument("--snapshot", required=True)
    vqp.add_argument("--video-id", required=True,
                     help="id of the query video inside the snapshot; "
                          "its own segments are excluded from the "
                          "ranking (leave-one-out)")
    vqp.add_argument("--scorer", choices=("lcv", "dtw"), default="lcv",
                     help="sequence scorer: longest common view run "
                          "or DTW-style monotonic alignment")
    vqp.add_argument("--threshold", type=float, default=0.25,
                     help="per-pair similarity threshold of the LCV run")
    vqp.add_argument("--top", type=int, default=5)
    vqp.add_argument("--radius", type=float, default=100.0,
                     help="harvest radius around each query segment, m")
    vqp.add_argument("--per-segment-top", type=int, default=32,
                     help="candidate budget of each harvest point query")
    vqp.add_argument("--half-angle", type=float, default=30.0)
    vqp.add_argument("--shards", type=int, default=1,
                     help="serve from a geo-sharded fleet of N shards "
                          "(identical ranking, see docs/SHARDING.md)")
    vqp.add_argument("--poi", type=int, default=0, metavar="K",
                     help="also report the K most-observed cells of "
                          "the harvested coverage (0 = off)")
    vqp.add_argument("--cell", type=float, default=25.0,
                     help="POI raster cell size in metres")
    vqp.add_argument("--json", action="store_true",
                     help="emit the result as JSON instead of text")
    vqp.add_argument("--trace", action="store_true",
                     help="collect a span trace of the request and print "
                          "the tree with per-stage durations")

    near = sub.add_parser("nearest", help="k nearest segments to a point")
    near.add_argument("--snapshot", required=True)
    near.add_argument("--lat", type=float, required=True)
    near.add_argument("--lng", type=float, required=True)
    near.add_argument("--t", type=float, required=True)
    near.add_argument("--k", type=int, default=5)
    near.add_argument("--time-weight", type=float, default=0.0,
                      help="metres charged per second of temporal gap")

    cov = sub.add_parser("coverage",
                         help="rasterise how much area the snapshot's "
                              "segments can answer queries about")
    cov.add_argument("--snapshot", required=True)
    cov.add_argument("--cell", type=float, default=50.0,
                     help="cell size in metres")
    cov.add_argument("--half-angle", type=float, default=30.0)
    cov.add_argument("--radius", type=float, default=100.0,
                     help="camera radius of view in metres")

    ing = sub.add_parser("ingest",
                         help="simulate crowd uploads over a fault-injected "
                              "channel and verify the ingest path converges")
    ing.add_argument("--providers", type=int, default=10)
    ing.add_argument("--seed", type=int, default=0)
    ing.add_argument("--drop", type=float, default=0.0,
                     help="probability a transmitted copy is lost")
    ing.add_argument("--duplicate", type=float, default=0.0,
                     help="probability a transmission arrives twice")
    ing.add_argument("--corrupt", type=float, default=0.0,
                     help="probability a delivered copy is mutated")
    ing.add_argument("--reorder", type=float, default=0.0,
                     help="probability a copy is held back and arrives late")
    ing.add_argument("--max-attempts", type=int, default=10,
                     help="uploader retry budget per bundle")
    ing.add_argument("--shards", type=int, default=1,
                     help="ingest into a geo-sharded fleet of N shards "
                          "instead of a single server")
    ing.add_argument("--batch", type=int, default=1, metavar="N",
                     help="ingest deliveries in commit groups of N "
                          "bundles (vectorized decode, one epoch bump "
                          "and one WAL fsync per group); 1 = the "
                          "classic per-bundle uploader path")
    ing.add_argument("--wal", default=None, metavar="FILE",
                     help="append accepted bundles to a write-ahead log "
                          "at FILE, fsynced once per commit group")
    ing.add_argument("--admission-capacity", type=int, default=None,
                     metavar="N",
                     help="bound on in-flight bundles; beyond it ingest "
                          "sheds with a retryable outcome (default: "
                          "unbounded)")
    ing.add_argument("--out", default=None,
                     help="optionally save the converged index as a snapshot")
    ing.add_argument("--json", action="store_true",
                     help="emit the convergence report as JSON")
    ing.add_argument("--trace", action="store_true",
                     help="trace the server's ingest path and print the "
                          "span tree of the last bundle")

    met = sub.add_parser("metrics",
                         help="run an instrumented query workload against "
                              "a snapshot and print the metrics registry")
    met.add_argument("--snapshot", required=True)
    met.add_argument("--queries", type=int, default=64,
                     help="how many seeded queries to answer (each runs "
                          "twice so cache families populate)")
    met.add_argument("--seed", type=int, default=0)
    met.add_argument("--radius", type=float, default=100.0)
    met.add_argument("--half-angle", type=float, default=30.0)
    met.add_argument("--format", choices=("prometheus", "json"),
                     default="prometheus",
                     help="exposition format for the snapshot "
                          "(classic Prometheus text, or JSON)")

    lint = sub.add_parser("lint",
                          help="run the domain-aware FoV lint rules "
                               "(RF001-RF015) over source trees")
    lint.add_argument("paths", nargs="*",
                      default=[os.path.dirname(os.path.abspath(__file__))],
                      help="files or directories to lint "
                           "(default: this repro package's source)")
    lint.add_argument("--select", action="append", metavar="RFxxx",
                      help="run only these rule ids (repeatable)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text", dest="lint_format",
                      help="report format")
    return parser


def _read_fovpack(path: str) -> tuple[FoVIndex, list[RepresentativeFoV]]:
    """Attach a ``FOVPACK1`` file (verified) and index its records."""
    columns = load_snapshot_file(path)
    return FoVIndex.bulk(columns), list(columns)


def _read_server(camera: CameraModel, index: FoVIndex,
                 records: list[RepresentativeFoV], shards: int, obs):
    """The server a read command answers from, caching nothing: one
    ``CloudServer`` over ``index``, or a fleet of ``shards`` holding
    ``records``."""
    if shards == 1:
        from repro.core.server import CloudServer
        return CloudServer(camera, index=index, cache_size=0, obs=obs)
    from repro.shard import ShardedCloudServer
    fleet = ShardedCloudServer(camera, n_shards=shards,
                               origin=records[0].point if records
                               else GeoPoint(0.0, 0.0),
                               cache_size=0, obs=obs)
    fleet.ingest(records)
    return fleet


def _cmd_generate(args) -> int:
    dataset = CityDataset(n_providers=args.providers, seed=args.seed)
    reps = dataset.all_representatives()
    written = write_snapshot_file(args.out,
                                  FoVIndex.bulk(reps).record_columns())
    t0, t1 = dataset.time_span()
    print(f"generated {args.providers} providers, {len(reps)} segments, "
          f"time span [{t0:.0f}, {t1:.0f}] s")
    print(f"wrote {written} bytes to {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    from repro.spatial.metrics import tree_stats

    index, records = _read_fovpack(args.snapshot)
    if not records:
        print("snapshot is empty")
        return 0
    lats = [r.lat for r in records]
    lngs = [r.lng for r in records]
    t0 = min(r.t_start for r in records)
    t1 = max(r.t_end for r in records)
    videos = {r.video_id for r in records}
    stats = tree_stats(index.rtree())
    print(f"records: {len(records)} segments from {len(videos)} videos")
    print(f"area: lat [{min(lats):.5f}, {max(lats):.5f}], "
          f"lng [{min(lngs):.5f}, {max(lngs):.5f}]")
    print(f"time span: [{t0:.1f}, {t1:.1f}] s "
          f"({sum(r.duration for r in records):.0f} s of video)")
    print(f"index: R-tree height {stats.height}, {stats.node_count} nodes, "
          f"leaf fill {stats.avg_leaf_fill:.1f}")
    return 0


def _cmd_query(args) -> int:
    from repro.obs import Observability, format_span_tree

    index, records = _read_fovpack(args.snapshot)
    camera = CameraModel(half_angle=args.half_angle)
    obs = Observability.tracing() if args.trace else None
    query = Query(t_start=args.t0, t_end=args.t1,
                  center=GeoPoint(args.lat, args.lng),
                  radius=args.radius, top_n=args.top)
    result = _read_server(camera, index, records, args.shards,
                          obs).query(query)
    if args.json:
        from repro.net.jsonio import result_to_json
        print(result_to_json(result, indent=2))
        return 0
    print(f"{result.candidates} candidates, {result.after_filter} cover "
          f"the spot, answered in {result.elapsed_s * 1e3:.2f} ms")
    for rank, row in enumerate(result.ranked, start=1):
        rep = row.fov
        print(f"#{rank}: {rep.video_id} seg {rep.segment_id} "
              f"[{rep.t_start:.1f}..{rep.t_end:.1f}]s "
              f"{row.distance:.1f} m az {rep.theta:.0f}")
    if not result.ranked:
        print("no segment covers this spot in that window")
    if obs is not None and obs.span_tracer is not None:
        trace = obs.span_tracer.last_trace()
        if trace is not None:
            print("trace:")
            print(format_span_tree(trace))
    return 0


def _cmd_video_query(args) -> int:
    """Rank stored videos against one stored video's trajectory."""
    from repro.obs import Observability, format_span_tree
    from repro.video import VideoQuery, discover_pois

    index, records = _read_fovpack(args.snapshot)
    segs = sorted((r for r in records if r.video_id == args.video_id),
                  key=lambda r: r.segment_id)
    if not segs:
        print(f"error: no segments of video {args.video_id!r} in "
              f"{args.snapshot}", file=sys.stderr)
        return 2
    camera = CameraModel(half_angle=args.half_angle)
    obs = Observability.tracing() if args.trace else None
    # The harvest window spans the whole snapshot: video similarity is
    # about *where* the trajectories looked, not *when* they recorded.
    video_query = VideoQuery(
        segments=tuple(segs),
        t_start=min(r.t_start for r in records),
        t_end=max(r.t_end for r in records),
        radius=args.radius, top_k=args.top, scorer=args.scorer,
        sim_threshold=args.threshold,
        per_segment_top_n=args.per_segment_top,
        exclude=frozenset({args.video_id}),
    )
    result = _read_server(camera, index, records, args.shards,
                          obs).query_video(video_query)
    pois = (discover_pois(result.harvested, camera, cell_m=args.cell,
                          top_k=args.poi)
            if args.poi > 0 and result.harvested else [])
    if args.json:
        import json
        print(json.dumps({
            "query_video": args.video_id,
            "scorer": args.scorer,
            "segments": len(segs),
            "videos_considered": result.videos_considered,
            "segments_harvested": result.segments_harvested,
            "elapsed_s": result.elapsed_s,
            "ranked": [match._asdict() for match in result.ranked],
            "pois": [cell._asdict() for cell in pois],
        }, indent=2))
        return 0
    print(f"query video {args.video_id}: {len(segs)} segments; "
          f"{result.videos_considered} candidate videos "
          f"({result.segments_harvested} segments harvested), "
          f"answered in {result.elapsed_s * 1e3:.2f} ms")
    for rank, match in enumerate(result.ranked, start=1):
        print(f"#{rank}: {match.video_id} {args.scorer}={match.score:.3f} "
              f"(run {match.lcv}, {match.segments_matched} segments matched)")
    if not result.ranked:
        print("no stored video overlaps this trajectory")
    for cell in pois:
        print(f"poi ({cell.lat:.5f}, {cell.lng:.5f}): "
              f"{cell.observers} observers, utility {cell.utility:.3f}")
    if obs is not None and obs.span_tracer is not None:
        trace = obs.span_tracer.last_trace()
        if trace is not None:
            print("trace:")
            print(format_span_tree(trace))
    return 0


def _cmd_nearest(args) -> int:
    index, _ = _read_fovpack(args.snapshot)
    rows = index.nearest(GeoPoint(args.lat, args.lng), t=args.t, k=args.k,
                         time_weight_m_per_s=args.time_weight)
    for rank, (dist, rep) in enumerate(rows, start=1):
        print(f"#{rank}: {rep.video_id} seg {rep.segment_id} "
              f"[{rep.t_start:.1f}..{rep.t_end:.1f}]s {dist:.1f} m")
    if not rows:
        print("index is empty")
    return 0


def _cmd_coverage(args) -> int:
    from repro.eval.coverage_map import build_coverage_map
    from repro.geo.earth import LocalProjection
    _, records = _read_fovpack(args.snapshot)
    if not records:
        print("snapshot is empty")
        return 0
    camera = CameraModel(half_angle=args.half_angle, radius=args.radius)
    anchor = records[0].point
    proj = LocalProjection(anchor)
    xy = proj.to_local_arrays([r.lat for r in records],
                              [r.lng for r in records])
    pad = camera.radius
    extent = (float(xy[:, 0].min() - pad), float(xy[:, 1].min() - pad),
              float(xy[:, 0].max() + pad), float(xy[:, 1].max() + pad))
    cmap = build_coverage_map(records, proj, camera, extent,
                              cell_m=args.cell)
    covered = cmap.counts[cmap.counts > 0]
    print(f"area: {extent[2] - extent[0]:.0f} x {extent[3] - extent[1]:.0f} m, "
          f"cells: {cmap.counts.size} at {args.cell:.0f} m")
    print(f"covered: {cmap.covered_fraction():.1%} of cells "
          f"(mean depth {covered.mean():.1f} where covered)"
          if covered.size else "covered: 0%")
    for x, y, c in cmap.hotspots(3):
        p = proj.to_geo(x, y)
        print(f"  hotspot ({p.lat:.5f}, {p.lng:.5f}): {c} segments")
    return 0


def _batched_upload(dataset, channel, server, batch: int,
                    max_attempts: int) -> tuple[bool, int]:
    """At-least-once upload through the lossy channel in commit groups.

    Each round transmits every unacknowledged recording, feeds the
    surviving deliveries to ``ingest_batch`` in groups of ``batch``,
    and re-offers anything dropped, corrupted, or shed.  Returns
    ``(converged, re-offer count)``.
    """
    pending = list(range(len(dataset.recordings)))
    retries = 0
    for round_no in range(max_attempts):
        if not pending:
            break
        if round_no:
            retries += len(pending)
        deliveries: list[tuple[int | None, bytes, str | None]] = []
        for i in pending:
            rec = dataset.recordings[i]
            for d in channel.transmit(rec.bundle.payload):
                deliveries.append((i, d.payload, rec.device_id))
        for d in channel.flush():      # stragglers held by reordering
            deliveries.append((None, d.payload, None))
        acked: set[int] = set()
        for start in range(0, len(deliveries), batch):
            group = deliveries[start:start + batch]
            outcomes = server.ingest_batch(
                [payload for _, payload, _ in group],
                device_ids=[dev for _, _, dev in group])
            for (src, _, _), outcome in zip(group, outcomes):
                if src is not None and outcome.status.value in (
                        "accepted", "duplicate"):
                    acked.add(src)
        pending = [i for i in pending if i not in acked]
    return not pending, retries


def _cmd_ingest(args) -> int:
    """Fault-injected end-to-end ingest: upload every provider's bundle
    through a lossy channel with retries, then prove the converged
    index matches a lossless control run bit for bit."""
    from repro.core.server import CloudServer
    from repro.net.channel import FaultProfile, FaultyChannel, RetryPolicy
    from repro.obs import Observability, format_span_tree

    from repro.core.wal import WriteAheadLog

    dataset = CityDataset(n_providers=args.providers, seed=args.seed)
    control = CloudServer(dataset.camera)
    obs = Observability.tracing() if args.trace else None
    wal = WriteAheadLog(args.wal) if args.wal else None
    from repro.shard import ShardedCloudServer
    faulty = ShardedCloudServer(dataset.camera, n_shards=args.shards,
                                origin=dataset.origin, obs=obs, wal=wal,
                                admission_capacity=args.admission_capacity)
    profile = FaultProfile(drop_rate=args.drop, duplicate_rate=args.duplicate,
                           corrupt_rate=args.corrupt,
                           reorder_rate=args.reorder)
    channel = FaultyChannel(profile, seed=args.seed)
    uploader = faulty.make_uploader(
        channel, policy=RetryPolicy(max_attempts=args.max_attempts))

    for rec in dataset.recordings:
        control.receive_bundle(rec.bundle.payload, device_id=rec.device_id)
    if args.batch > 1:
        delivered, retries = _batched_upload(dataset, channel, faulty,
                                             args.batch, args.max_attempts)
        uploader.stats.retries = retries
    else:
        receipts = [uploader.upload(rec.bundle.payload)
                    for rec in dataset.recordings]
        for delivery in channel.flush():   # stragglers held by reordering
            faulty.ingest_bundle(delivery.payload)
        delivered = all(r.accepted for r in receipts)
    if wal is not None:
        wal.close()
    parity = sorted(f.key() for f in faulty.records()) == \
        sorted(f.key() for f in control.records())
    report = {
        "bundles": len(dataset.recordings),
        "records": control.indexed_count,
        "shards": args.shards,
        "attempts": (uploader.stats.attempts if args.batch == 1
                     else channel.stats.sent),
        "retries": uploader.stats.retries,
        "batch": args.batch,
        "channel": {"sent": channel.stats.sent,
                    "delivered": channel.stats.delivered,
                    "dropped": channel.stats.dropped,
                    "duplicated": channel.stats.duplicated,
                    "corrupted": channel.stats.corrupted,
                    "reordered": channel.stats.reordered},
        "server": {"accepted": faulty.stats.bundles_received,
                   "rejected": faulty.stats.bundles_rejected,
                   "deduplicated": faulty.stats.bundles_duplicated,
                   "retried": faulty.stats.bundles_retried,
                   "quarantined": faulty.quarantine.total_quarantined,
                   "records_live": faulty.stats.records_live},
        "all_bundles_delivered": delivered,
        "parity_with_lossless": parity,
    }
    if wal is not None:
        report["wal"] = {"path": wal.path,
                         "appends": faulty.stats.wal_appends,
                         "syncs": faulty.stats.wal_syncs,
                         "bytes": faulty.stats.wal_bytes}
    if args.admission_capacity is not None:
        report["shed"] = faulty.stats.bundles_shed
    if args.out:
        write_snapshot_file(args.out,
                            FoVIndex.bulk(faulty.records()).record_columns())
        report["snapshot"] = args.out
    if args.json:
        import json
        print(json.dumps(report, indent=2))
    else:
        ch, sv = report["channel"], report["server"]
        print(f"uploaded {report['bundles']} bundles "
              f"({report['records']} records) in {report['attempts']} "
              f"attempts ({report['retries']} retries)")
        print(f"channel: {ch['sent']} sent, {ch['delivered']} delivered, "
              f"{ch['dropped']} dropped, {ch['duplicated']} duplicated, "
              f"{ch['corrupted']} corrupted, {ch['reordered']} reordered")
        print(f"server: {sv['accepted']} accepted, {sv['deduplicated']} "
              f"deduplicated, {sv['rejected']} rejected "
              f"({sv['quarantined']} quarantined), {sv['records_live']} "
              f"records live")
        print(f"converged: {'yes' if delivered else 'NO'}; "
              f"parity with lossless run: {'OK' if parity else 'MISMATCH'}")
        if "wal" in report:
            w = report["wal"]
            print(f"wal: {w['appends']} appends, {w['syncs']} fsyncs, "
                  f"{w['bytes']} bytes at {w['path']}")
        if "shed" in report:
            print(f"back-pressure: {report['shed']} bundle(s) shed")
        if args.out:
            print(f"snapshot written to {args.out}")
    if obs is not None and obs.span_tracer is not None:
        trace = obs.span_tracer.last_trace()
        if trace is not None:
            print("trace (last bundle):")
            print(format_span_tree(trace))
    return 0 if (delivered and parity) else 1


def _cmd_metrics(args) -> int:
    """Answer a seeded query workload with full instrumentation on and
    print the resulting metrics snapshot.

    Each sampled query runs twice, so the cache families (hits, misses,
    evictions) and the packed-descent counters all populate; with
    ``--format prometheus`` the output is classic Prometheus text
    (round-trippable through ``repro.obs.parse_prometheus``), with
    ``--format json`` a JSON document keyed by dotted metric names.
    """
    import json as jsonlib

    from repro.core.server import CloudServer
    from repro.obs import Observability

    index, records = _read_fovpack(args.snapshot)
    obs = Observability.tracing()
    camera = CameraModel(half_angle=args.half_angle)
    server = CloudServer(camera, index=index, obs=obs)
    if records:
        rng = np.random.default_rng(args.seed)
        picks = rng.integers(0, len(records), size=max(0, args.queries))
        queries = [
            Query(t_start=records[i].t_start - 1.0,
                  t_end=records[i].t_end + 1.0,
                  center=GeoPoint(records[i].lat, records[i].lng),
                  radius=args.radius, top_n=10)
            for i in picks
        ]
        server.query_many(queries)      # cold pass: misses fill the cache
        server.query_many(queries)      # warm pass: hits populate too
    if args.format == "json":
        print(jsonlib.dumps(obs.registry.render_json(), indent=2))
    else:
        print(obs.registry.render_prometheus(), end="")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import run_lint
    return run_lint(args.paths, select=args.select,
                    output_format=args.lint_format)


_COMMANDS = {
    "generate": _cmd_generate,
    "inspect": _cmd_inspect,
    "query": _cmd_query,
    "video-query": _cmd_video_query,
    "nearest": _cmd_nearest,
    "coverage": _cmd_coverage,
    "ingest": _cmd_ingest,
    "metrics": _cmd_metrics,
    "lint": _cmd_lint,
}


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
