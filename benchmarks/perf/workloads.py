"""Seeded corpus and operation streams for the four perf workloads.

Everything here is a pure function of ``(name, seed, sizing)``: the
serving stack under test receives only the generated records, payloads
and queries, never the seed.  One shared city (a 4 km square at
``CITY_ORIGIN``, one hour of footage, 16 hotspots with Zipf(1.2)
popularity after Lu & Colmenares' POI model) feeds all four workloads,
so a number moving on one and not another is attributable to the
operation mix, not to different data.

Each workload is sized in *operations*, not seconds, so counts and
digests repeat exactly for a seed.  ``Sizing.for_run`` turns the
driver's ``--seconds`` into one uniform factor on ISSUE 11's operation
counts (0.75 at BENCHMARK.json's ``run_seconds``); ``scale`` additionally shrinks the corpus, for the smoke-sized
self-tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.fov import RepresentativeFoV
from repro.core.query import Query
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection
from repro.net.protocol import encode_bundle
from repro.shard.partition import GridPartitioner
from repro.sim.cityload import zipf_weights
from repro.traces.scenarios import CITY_ORIGIN
from repro.video.retrieval import VideoQuery

__all__ = ["WORKLOADS", "Sizing", "Op", "Workload", "build_workload",
           "N_SHARDS", "CACHE_SIZE"]

#: name -> why the workload exists, with its operation count at the
#: reference run length (mirrored into BENCHMARK.json).
WORKLOADS = {
    "city_read": "9000 distinct single queries, zero writes: routing, grid "
                 "search, orientation filter, rank and merge do all the "
                 "work; every cache lookup misses",
    "city_ingest": "225 WAL-durable commit groups of 8x50 records with "
                   "redeliveries and corrupt bundles, no queries, then "
                   "crash replay: decode, dedup, fsync, split and "
                   "insert_many do all the work",
    "city_mixed": "30 cycles of commit group, read-after-write, standby "
                  "sync, 50 cached Zipf reads; ends in a shard failover: "
                  "epoch bumps against cache, packed views and snapshots",
    "city_batch": "450 distinct 8-segment video queries with a query_many "
                  "sweep of 64 after every tenth: the only router batches "
                  "> 1 and the only LCV/DTW scoring",
}

# -- the deployment under test (fixed by ISSUE 11) --------------------------
N_SHARDS = 4
CACHE_SIZE = 64
EXTENT_M = 4000.0
HORIZON_S = 3600.0
N_HOTSPOTS = 16
ZIPF_EXPONENT = 1.2
CLUSTER_SIGMA_M = 60.0
CITY_LAYOUT_SEED = 2015     # the paper's year; fixes the hotspot map

# -- operation shapes --------------------------------------------------------
GROUP_BUNDLES = 8           # bundles per WAL commit group
BUNDLE_RECORDS = 50         # records per bundle
REDELIVERY_SHARE = 0.10     # byte-identical re-sends (expect DUPLICATE)
CORRUPT_SHARE = 0.01        # one flipped bit (expect REJECTED)
QUERY_RADII = (20.0, 50.0, 100.0)   # Section V-B presets, cycled
HOTSPOT_QUERY_SHARE = 0.70
QUERY_JITTER_M = 25.0
POOL_KEYS = 32              # city_mixed read pool; fits the cache
CYCLE_READS = 50            # pool reads per city_mixed cycle
SWEEP_QUERIES = 64          # queries per city_batch query_many sweep
VIDEOS_PER_SWEEP = 10
VIDEO_SEGMENTS = 8
VIDEO_RADIUS_M = 100.0
VIDEO_TOP_K = 5

#: Run length ISSUE 11 sized its operation counts for (15-25 s).
ISSUE_RUN_SECONDS = 20.0
#: BENCHMARK.json's ``run_seconds``, which the driver passes as
#: ``--seconds``: every count is scaled by ``seconds / ISSUE_RUN_SECONDS``.
RUN_SECONDS = 15.0


@dataclass(frozen=True)
class Sizing:
    """Record and operation counts of one run.

    The defaults are ISSUE 11's counts.  The driver measures
    ``for_run(15)``, all four scaled by 0.75 -- 9 000 / 225 / 30 / 450:
    a whole run (generation, set-up, measured stream, verification)
    then takes 11-21 s on the quiet reference box, and the driver's 92
    runs still fit its cap when the neighbours slow the box 2-fold
    (1.8-fold has been seen).
    """

    base_records: int = 100_000
    read_queries: int = 12_000      # city_read single queries
    ingest_groups: int = 300        # city_ingest commit groups
    mixed_cycles: int = 40          # city_mixed write/read cycles
    batch_videos: int = 600         # city_batch video queries

    @classmethod
    def for_run(cls, seconds: float, scale: float = 1.0) -> "Sizing":
        """Counts for a ``--seconds`` run at corpus ``scale``.

        ``seconds`` scales every operation count by the same factor,
        so no workload is dropped to fit a time cap; ``scale`` shrinks
        corpus and operations together (smoke-sized self-tests).
        """
        if seconds <= 0.0 or scale <= 0.0:
            raise ValueError("seconds and scale must be positive")
        ref = cls()
        ops = scale * seconds / ISSUE_RUN_SECONDS

        def n(count: int, factor: float, floor: int) -> int:
            return max(floor, int(round(count * factor)))

        return cls(
            base_records=n(ref.base_records, scale, 400),
            read_queries=n(ref.read_queries, ops, 100),
            ingest_groups=n(ref.ingest_groups, ops, 3),
            mixed_cycles=n(ref.mixed_cycles, ops, 2),
            batch_videos=n(ref.batch_videos, ops, VIDEOS_PER_SWEEP),
        )


@dataclass(frozen=True)
class Op:
    """One client call of the measured run.

    ``kind`` selects the call (``query`` | ``ingest`` | ``sync`` |
    ``video`` | ``sweep`` | ``failover`` | ``replay``); ``role`` names
    the latency bucket it reports into.  ``expect`` holds the
    generator's expectation for writes (one status name per payload).
    """

    kind: str
    role: str
    arg: Any = None
    expect: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one run plus what the run must observe."""

    name: str
    sizing: Sizing
    base: tuple[RepresentativeFoV, ...]
    warmup_group: tuple[bytes, ...]         # empty on read-only workloads
    ops: tuple[Op, ...]
    digest: str
    #: exact counts the traced run must reproduce (waterfall check)
    expected: dict[str, int] = field(default_factory=dict)

    @property
    def writes(self) -> bool:
        return bool(self.warmup_group)

    def op_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.role] = counts.get(op.role, 0) + 1
        return counts


class _City:
    """Geography shared by corpus and queries.

    Where the hotspots lie is part of the deployment, not of the
    traffic: the layout is drawn once from :data:`CITY_LAYOUT_SEED`,
    and the run's seed decides who films and who asks.  A layout
    re-drawn per seed would change how many hotspots share a shard
    cell -- a different workload, not another sample of this one --
    and ten seeds are meant to agree within the regression bounds.
    """

    def __init__(self, seed: int) -> None:
        self.proj = LocalProjection(CITY_ORIGIN)
        layout = np.random.default_rng(CITY_LAYOUT_SEED)
        self.centers = layout.uniform(-EXTENT_M / 2.0, EXTENT_M / 2.0,
                                      size=(N_HOTSPOTS, 2))
        self.weights = zipf_weights(N_HOTSPOTS, ZIPF_EXPONENT)
        self.corpus_rng = np.random.default_rng([seed, 0])

    def starts(self, rng: np.random.Generator, n: int,
               clustered: np.ndarray) -> np.ndarray:
        """``n`` start points: hotspot-clustered where the mask says so."""
        xy = rng.uniform(-EXTENT_M / 2.0, EXTENT_M / 2.0, size=(n, 2))
        picks = rng.choice(N_HOTSPOTS, size=n, p=self.weights)
        near = self.centers[picks] + rng.normal(0.0, CLUSTER_SIGMA_M,
                                                size=(n, 2))
        return np.where(clustered[:, None], near, xy)

    def videos(self, rng: np.random.Generator, seg_counts: np.ndarray,
               clustered: np.ndarray, tag: str
               ) -> list[list[RepresentativeFoV]]:
        """Multi-segment videos, each walking one heading.

        Segment ``s`` of a video sits ``s`` steps (20-60 m) along the
        heading from its start, looks along it, and follows segment
        ``s - 1`` in time -- so two videos that shared a street score a
        real similarity matrix, not a single cell.
        """
        n_vid = len(seg_counts)
        total = int(seg_counts.sum())
        start = self.starts(rng, n_vid, clustered)
        heading = rng.uniform(0.0, 360.0, size=n_vid)
        step = rng.uniform(20.0, 60.0, size=n_vid)
        t0 = rng.uniform(0.0, HORIZON_S * 0.9, size=n_vid)
        dur = rng.uniform(2.0, 30.0, size=total)

        vid_of = np.repeat(np.arange(n_vid), seg_counts)
        first = np.cumsum(seg_counts) - seg_counts
        seg = np.arange(total) - first[vid_of]
        along = step[vid_of] * seg
        rad = np.radians(heading[vid_of])
        xy = start[vid_of] + np.stack([np.sin(rad), np.cos(rad)],
                                      axis=-1) * along[:, None]
        elapsed = np.cumsum(dur) - dur
        t_start = t0[vid_of] + elapsed - elapsed[first][vid_of]
        # float32 on the wire: generate what survives a round trip.
        theta = heading[vid_of].astype(np.float32).astype(float)
        lat, lng = self.proj.to_geo_arrays(xy)

        out: list[list[RepresentativeFoV]] = [[] for _ in range(n_vid)]
        rows = zip(vid_of.tolist(), seg.tolist(), lat.tolist(), lng.tolist(),
                   theta.tolist(), t_start.tolist(),
                   (t_start + dur).tolist())
        for v, s, la, ln, th, ts, te in rows:
            out[v].append(RepresentativeFoV(
                lat=la, lng=ln, theta=th, t_start=ts, t_end=te,
                video_id=f"{tag}{v:06d}", segment_id=s))
        return out

    def point_queries(self, rng: np.random.Generator, n: int,
                      hotspot_share: float, top_n: int = 10
                      ) -> list[Query]:
        """``n`` distinct point queries, radii cycling the V-B presets.

        Each asks about the whole horizon, like every query of
        ``repro.sim.cityload``, the repo's one city traffic model.
        """
        at_hotspot = rng.uniform(size=n) < hotspot_share
        picks = rng.choice(N_HOTSPOTS, size=n, p=self.weights)
        xy = np.where(
            at_hotspot[:, None],
            self.centers[picks] + rng.normal(0.0, QUERY_JITTER_M,
                                             size=(n, 2)),
            rng.uniform(-EXTENT_M / 2.0, EXTENT_M / 2.0, size=(n, 2)))
        lat, lng = self.proj.to_geo_arrays(xy)
        return [
            Query(t_start=0.0, t_end=HORIZON_S,
                  center=GeoPoint(lat=float(lat[i]), lng=float(lng[i])),
                  radius=QUERY_RADII[i % len(QUERY_RADII)], top_n=top_n)
            for i in range(n)
        ]


def _base_corpus(city: _City, n_records: int) -> list[RepresentativeFoV]:
    """Half uniform, half hotspot-clustered records, in 4-12 segment videos."""
    rng = city.corpus_rng
    counts: list[int] = []
    total = 0
    while total < n_records:
        c = min(int(rng.integers(4, 13)), n_records - total)
        counts.append(c)
        total += c
    seg_counts = np.array(counts)
    clustered = np.cumsum(seg_counts) > n_records // 2
    videos = city.videos(rng, seg_counts, clustered, tag="v")
    return [rec for video in videos for rec in video]


def _bundles(city: _City, rng: np.random.Generator, n: int,
             tag: str) -> list[bytes]:
    """``n`` encoded upload bundles, one new video each."""
    seg_counts = np.full(n, BUNDLE_RECORDS)
    clustered = rng.uniform(size=n) < 0.5
    videos = city.videos(rng, seg_counts, clustered, tag=tag)
    return [encode_bundle(video[0].video_id, video) for video in videos]


def _flip_bit(payload: bytes, rng: np.random.Generator) -> bytes:
    pos = int(rng.integers(len(payload)))
    out = bytearray(payload)
    out[pos] ^= 1 << int(rng.integers(8))
    return bytes(out)


def _commit_groups(city: _City, rng: np.random.Generator, n_groups: int,
                   faults: bool, tag: str
                   ) -> list[tuple[tuple[bytes, ...], tuple[str, ...]]]:
    """Commit groups as ``(payloads, expected status per payload)``."""
    slots = n_groups * GROUP_BUNDLES
    fresh = iter(_bundles(city, rng, slots, tag))
    draws = rng.uniform(size=slots) if faults else np.ones(slots)
    accepted: list[bytes] = []
    groups = []
    for g in range(n_groups):
        payloads: list[bytes] = []
        expect: list[str] = []
        for u in draws[g * GROUP_BUNDLES:(g + 1) * GROUP_BUNDLES]:
            if u < CORRUPT_SHARE:
                payloads.append(_flip_bit(next(fresh), rng))
                expect.append("REJECTED")
            elif u < CORRUPT_SHARE + REDELIVERY_SHARE and accepted:
                payloads.append(accepted[int(rng.integers(len(accepted)))])
                expect.append("DUPLICATE")
            else:
                payload = next(fresh)
                accepted.append(payload)
                payloads.append(payload)
                expect.append("ACCEPTED")
        groups.append((tuple(payloads), tuple(expect)))
    return groups


def _video_queries(city: _City, rng: np.random.Generator,
                   n: int) -> list[VideoQuery]:
    """Distinct query trajectories starting near Zipf-chosen hotspots."""
    seg_counts = np.full(n, VIDEO_SEGMENTS)
    tracks = city.videos(rng, seg_counts, np.ones(n, dtype=bool), tag="q")
    return [
        VideoQuery(segments=tuple(track), t_start=0.0, t_end=HORIZON_S,
                   radius=VIDEO_RADIUS_M, top_k=VIDEO_TOP_K,
                   scorer="lcv" if i % 2 == 0 else "dtw")
        for i, track in enumerate(tracks)
    ]


def _hot_shard(city: _City) -> int:
    """The shard owning the most popular hotspot's grid cell."""
    part = GridPartitioner(n_shards=N_SHARDS, origin=CITY_ORIGIN)
    lat, lng = city.proj.to_geo_arrays(city.centers[:1])
    return part.shard_of_cell(*part.cell_of(float(lat[0]), float(lng[0])))


def _ops_read(city: _City, rng: np.random.Generator,
              sizing: Sizing) -> tuple[list[Op], dict[str, int]]:
    queries = city.point_queries(rng, sizing.read_queries,
                                 HOTSPOT_QUERY_SHARE)
    ops = [Op("query", "query", q) for q in queries]
    return ops, {"queries": len(queries), "cache_hits": 0,
                 "cache_misses": len(queries)}


def _ops_ingest(groups: list[tuple[tuple[bytes, ...], tuple[str, ...]]]
                ) -> tuple[list[Op], dict[str, int]]:
    ops = [Op("ingest", "ingest", payloads, expect=expect)
           for payloads, expect in groups]
    ops.append(Op("replay", "replay"))
    return ops, {}


def _ops_mixed(city: _City, rng: np.random.Generator,
               groups: list[tuple[tuple[bytes, ...], tuple[str, ...]]],
               hot_shard: int) -> tuple[list[Op], dict[str, int]]:
    n_cycles = len(groups)
    pool = city.point_queries(rng, POOL_KEYS, hotspot_share=1.0)
    fresh = city.point_queries(rng, n_cycles, HOTSPOT_QUERY_SHARE)
    pool_weights = zipf_weights(POOL_KEYS, ZIPF_EXPONENT)
    ops: list[Op] = []
    hits = misses = 0
    for c, (payloads, expect) in enumerate(groups):
        ops.append(Op("ingest", "ingest", payloads, expect=expect))
        # A key no one asked before, asked before the standbys sync:
        # it misses the cache by construction and is the first reader
        # of the bumped shards, so it pays their packed_view rebuild
        # (a sync first would pay it in capture_shard instead).
        ops.append(Op("query", "read_after_write", fresh[c]))
        misses += 1
        ops.append(Op("sync", "sync"))
        # The epoch vector moved, so each pool key misses once per
        # cycle and hits afterwards (32 keys cannot evict each other
        # from a 64-entry LRU within one cycle).
        draws = rng.choice(POOL_KEYS, size=CYCLE_READS, p=pool_weights)
        seen: set[int] = set()
        for k in draws.tolist():
            ops.append(Op("query", "query", pool[k]))
            if k in seen:
                hits += 1
            else:
                seen.add(k)
                misses += 1
    # Failover parity: every pool key before the kill and again after
    # the promotion must rank identically.
    for k, q in enumerate(pool):
        ops.append(Op("query", "pool_before", q))
        if k in seen:
            hits += 1
        else:
            misses += 1
    ops.append(Op("failover", "failover", hot_shard))
    ops.extend(Op("query", "pool_after", q) for q in pool)
    misses += POOL_KEYS         # kill and install both clear the cache
    n_queries = n_cycles * (1 + CYCLE_READS) + 2 * POOL_KEYS
    return ops, {"queries": n_queries, "cache_hits": hits,
                 "cache_misses": misses}


def _ops_batch(city: _City, rng: np.random.Generator,
               sizing: Sizing) -> tuple[list[Op], dict[str, int]]:
    videos = _video_queries(city, rng, sizing.batch_videos)
    n_sweeps = len(videos) // VIDEOS_PER_SWEEP
    swept = city.point_queries(rng, n_sweeps * SWEEP_QUERIES,
                               hotspot_share=1.0)
    ops: list[Op] = []
    for i, vq in enumerate(videos):
        ops.append(Op("video", "video", vq))
        if (i + 1) % VIDEOS_PER_SWEEP == 0:
            s = i // VIDEOS_PER_SWEEP
            ops.append(Op("sweep", "sweep",
                          swept[s * SWEEP_QUERIES:(s + 1) * SWEEP_QUERIES]))
    n_point = len(videos) * VIDEO_SEGMENTS + len(swept)
    # Every video query also misses the router's video-result cache.
    return ops, {"queries": n_point, "cache_hits": 0,
                 "cache_misses": n_point + len(videos)}


def _write_expectations(ops: list[Op]) -> dict[str, int]:
    statuses = [s for op in ops if op.kind == "ingest" for s in op.expect]
    accepted = statuses.count("ACCEPTED")
    return {
        "commit_groups": sum(1 for op in ops if op.kind == "ingest"),
        "wal_commits": sum(1 for op in ops if "ACCEPTED" in op.expect),
        "bundles": len(statuses),
        "accepted": accepted,
        "duplicates": statuses.count("DUPLICATE"),
        "rejected": statuses.count("REJECTED"),
        "records_inserted": accepted * BUNDLE_RECORDS,
    }


def _digest(base: list[RepresentativeFoV], warmup: tuple[bytes, ...],
            ops: list[Op]) -> str:
    """sha256 over corpus and operation stream (floats via ``repr``)."""
    h = hashlib.sha256()
    for r in base:
        h.update(repr((r.video_id, r.segment_id, r.lat, r.lng, r.theta,
                       r.t_start, r.t_end)).encode())
    for payload in warmup:
        h.update(hashlib.sha256(payload).digest())
    for op in ops:
        h.update(f"|{op.kind}|{op.role}|".encode())
        if op.kind == "ingest":
            for payload, status in zip(op.arg, op.expect):
                h.update(hashlib.sha256(payload).digest())
                h.update(status.encode())
        else:
            h.update(repr(op.arg).encode())
    return h.hexdigest()


def build_workload(name: str, seed: int, sizing: Sizing) -> Workload:
    """Generate corpus, warm-up and operation stream of one workload."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    city = _City(seed)
    base = _base_corpus(city, sizing.base_records)
    rng = np.random.default_rng([seed, 1 + sorted(WORKLOADS).index(name)])
    warmup: tuple[bytes, ...] = ()
    if name == "city_read":
        ops, expected = _ops_read(city, rng, sizing)
    elif name == "city_batch":
        ops, expected = _ops_batch(city, rng, sizing)
    else:
        warmup = tuple(_bundles(city, rng, GROUP_BUNDLES, tag="w"))
        if name == "city_ingest":
            groups = _commit_groups(city, rng, sizing.ingest_groups,
                                    faults=True, tag="u")
            ops, expected = _ops_ingest(groups)
        else:
            groups = _commit_groups(city, rng, sizing.mixed_cycles,
                                    faults=False, tag="u")
            ops, expected = _ops_mixed(city, rng, groups, _hot_shard(city))
        expected.update(_write_expectations(ops))
    return Workload(name=name, sizing=sizing, base=tuple(base),
                    warmup_group=warmup, ops=tuple(ops),
                    digest=_digest(base, warmup, ops), expected=expected)
