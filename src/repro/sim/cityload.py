"""City-scale workload harness: skewed load, tail latency, failover.

The paper's target deployment is a city under bursty, spatially skewed
load -- investigators querying around incidents, uploads clustering at
hotspots -- yet throughput benchmarks on uniform synthetic data say
nothing about tail latency or availability.  This module builds a
**seeded, deterministic, closed-loop workload** over the existing
``traces``/``shard`` layers and replays it against a
:class:`~repro.shard.server.ShardedCloudServer`, harvesting per-stage
latency from the span tracer into p50/p99/p999 summaries.

The workload is a flat, time-ordered stream of :class:`CityEvent`
records grouped into composable scenario phases:

``hotspot``
    Zipf-skewed point queries over ``n_hotspots`` POI centres (the
    exponent concentrates mass on the top cell, after Lu & Colmenares'
    POI model), with background bundle ingest and a few video-to-video
    trajectory queries mixed in.
``flash_crowd``
    A stadium-exit burst: ingest and correlated queries pinned to the
    single hottest cell.  The phase emits **exactly**
    ``flash_events`` events (a conservation property the Hypothesis
    suite pins).
``daynight``
    Arrival times thinned by a sinusoidal day/night intensity --
    queries bunch in the "day" half of the phase window.
``mixed_radii``
    The paper's Section V-B empirical radii interleaved: 20 m
    residential / 100 m highway (:data:`repro.core.query.AREA_RADII`).
``cache_adversarial``
    Distinct query keys cycling through a pool wider than the
    router's LRU result cache, so no key ever repeats within the
    eviction window -- every lookup misses.
``failover``
    A kill/promote pair around a mid-phase downtime window: the shard
    owning the hottest cell loses its primary, queries that need it
    are refused (counted as dropped), and the warm standby
    (:class:`~repro.shard.replica.ReplicaSet`) is promoted from its
    packed ``FOVPACK1`` snapshot.

Determinism: every phase draws from its own
``np.random.default_rng([seed, phase_index])`` stream and the whole
event stream is digested (sha256 over canonical event lines, floats
via ``repr`` so the digest is bit-exact).  Two builds with the same
config are bit-identical; latencies and measured downtime are the
only non-deterministic outputs and live outside the report's
``workload`` section.

Parity: :func:`run_city_scale` replays the same workload twice --
an unfailed **control** run and a **failover** run -- and checks that
every query answered by both returns bit-identical ranked rows, and
that the final fleet state (record keys + dedup digests) matches.
Ingest is never scheduled inside the downtime window because the
fleet is fail-stop while a primary is absent (writes are refused
fleet-wide, so the dedup set cannot diverge between the runs).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.query import AREA_RADII, Query
from repro.core.wal import WriteAheadLog
from repro.eval.statistics import percentile
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection
from repro.obs.runtime import Observability
from repro.net.protocol import encode_bundle
from repro.shard.partition import DEFAULT_CELL_M, GridPartitioner
from repro.shard.replica import ReplicaSet
from repro.shard.server import ShardedCloudServer, ShardUnavailableError
from repro.traces.scenarios import CITY_ORIGIN
from repro.video.retrieval import VideoQuery

__all__ = [
    "CityLoadConfig", "CityEvent", "CityWorkload", "ReplayReport",
    "CityScaleResult", "zipf_weights", "build_city_workload",
    "replay_workload", "run_city_scale", "PHASES",
]

#: Phase replay order; each phase owns one disjoint time window.
PHASES = ("hotspot", "flash_crowd", "daynight", "mixed_radii",
          "cache_adversarial", "failover")

#: Seconds per phase window (ordering only; wall time is unrelated).
_PHASE_WINDOW_S = 600.0

#: Root span name -> reported stage name.
_STAGE_OF_SPAN = {
    "shard.query_many": "query",
    "shard.ingest_batch": "ingest",
    "video.query": "video",
}

#: Sentinel row set for a query the failover run refused.
_DROPPED = ("<dropped>",)


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalised Zipf mass over ranks ``1..n``: ``w_k ∝ k**-exponent``.

    ``exponent=0`` is uniform; raising it monotonically concentrates
    mass on the top rank (the property test pins this).  ``n`` must be
    positive and ``exponent`` non-negative.
    """
    if n < 1:
        raise ValueError(f"need at least one rank, got {n}")
    if exponent < 0.0:
        raise ValueError(f"zipf exponent must be >= 0, got {exponent}")
    w = np.arange(1, n + 1, dtype=float) ** -float(exponent)
    return w / w.sum()


@dataclass(frozen=True)
class CityLoadConfig:
    """Knobs of one city-scale scenario (defaults: a fast smoke run)."""

    seed: int = 0
    n_shards: int = 4
    cell_m: float = DEFAULT_CELL_M
    cache_size: int = 64            # router LRU; adversarial pool exceeds it
    extent_m: float = 4000.0        # city square, metres
    horizon_s: float = 3600.0       # record-timestamp horizon
    n_hotspots: int = 16
    zipf_exponent: float = 1.2
    base_records: int = 240         # corpus indexed before replay starts
    records_per_bundle: int = 8
    ingest_group: int = 4           # bundles per WAL commit group
    hotspot_queries: int = 60
    hotspot_bundles: int = 12
    video_queries: int = 4
    video_segments: int = 4
    flash_events: int = 48          # exact event count of the flash phase
    flash_query_fraction: float = 0.5
    daynight_queries: int = 48
    mixed_queries: int = 40
    adversarial_queries: int = 80
    failover_queries: int = 30
    top_n: int = 10
    trace_capacity: int = 4096

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.n_hotspots < 1:
            raise ValueError("n_hotspots must be >= 1")
        if self.flash_events < 2:
            raise ValueError("flash_events must be >= 2 (one query, one "
                             "ingest at minimum)")
        if not 0.0 <= self.flash_query_fraction <= 1.0:
            raise ValueError("flash_query_fraction must be in [0, 1]")
        if self.records_per_bundle < 1 or self.ingest_group < 1:
            raise ValueError("bundle and commit-group sizes must be >= 1")


@dataclass(frozen=True)
class CityEvent:
    """One timed workload event; exactly one payload field is set."""

    time: float
    seq: int
    phase: str
    kind: str                       #: query | ingest | video_query | kill | promote
    query: Query | None = None
    video_query: VideoQuery | None = None
    payload: bytes | None = None
    device_id: str | None = None
    shard_id: int | None = None


def _event_line(ev: CityEvent) -> str:
    """Canonical digest line: floats via ``repr`` for bit-exactness."""
    head = f"{ev.kind}|{ev.phase}|{ev.time!r}|{ev.seq}"
    if ev.kind == "query":
        q = ev.query
        assert q is not None
        return (f"{head}|{q.t_start!r}|{q.t_end!r}|{q.center.lat!r}|"
                f"{q.center.lng!r}|{q.radius!r}|{q.top_n}")
    if ev.kind == "ingest":
        assert ev.payload is not None
        return (f"{head}|{ev.device_id}|"
                f"{hashlib.sha256(ev.payload).hexdigest()}")
    if ev.kind == "video_query":
        return f"{head}|{ev.video_query!r}"
    return f"{head}|{ev.shard_id}"          # kill / promote


@dataclass(frozen=True)
class CityWorkload:
    """The generated scenario: base corpus + time-ordered event stream."""

    config: CityLoadConfig
    base_records: tuple[RepresentativeFoV, ...]
    events: tuple[CityEvent, ...]
    hot_cell: tuple[int, int]       #: partitioner cell of the top hotspot
    failover_shard: int             #: shard the failover phase kills
    digest: str                     #: sha256 over canonical event lines

    def phase_counts(self) -> dict[str, int]:
        """Events per phase, in :data:`PHASES` order."""
        counts = {phase: 0 for phase in PHASES}
        for ev in self.events:
            counts[ev.phase] += 1
        return counts


def _phase_rng(seed: int, phase_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, phase_index])


def _cluster_records(rng: np.random.Generator, proj: LocalProjection,
                     centers_xy: np.ndarray, weights: np.ndarray,
                     n: int, horizon_s: float, tag: str, sigma_m: float = 60.0
                     ) -> list[RepresentativeFoV]:
    """Records clustered around weighted hotspot centres."""
    picks = rng.choice(len(centers_xy), size=n, p=weights)
    offsets = rng.normal(0.0, sigma_m, size=(n, 2))
    t0 = rng.uniform(0.0, horizon_s * 0.9, size=n)
    dur = rng.uniform(2.0, 30.0, size=n)
    theta = rng.uniform(0.0, 360.0, size=n)
    out: list[RepresentativeFoV] = []
    for i in range(n):
        x, y = centers_xy[picks[i]] + offsets[i]
        g = proj.to_geo(float(x), float(y))
        out.append(RepresentativeFoV(
            video_id=f"{tag}-{i:05d}", segment_id=0,
            t_start=float(t0[i]), t_end=float(t0[i] + dur[i]),
            lat=g.lat, lng=g.lng, theta=float(theta[i])))
    return out


def _uniform_records(rng: np.random.Generator, proj: LocalProjection,
                     extent_m: float, n: int, horizon_s: float,
                     tag: str) -> list[RepresentativeFoV]:
    xy = rng.uniform(-extent_m / 2.0, extent_m / 2.0, size=(n, 2))
    t0 = rng.uniform(0.0, horizon_s * 0.9, size=n)
    dur = rng.uniform(2.0, 30.0, size=n)
    theta = rng.uniform(0.0, 360.0, size=n)
    return [RepresentativeFoV(
        video_id=f"{tag}-{i:05d}", segment_id=0,
        t_start=float(t0[i]), t_end=float(t0[i] + dur[i]),
        lat=proj.to_geo(float(xy[i, 0]), float(xy[i, 1])).lat,
        lng=proj.to_geo(float(xy[i, 0]), float(xy[i, 1])).lng,
        theta=float(theta[i])) for i in range(n)]


def _bundle_events(rng: np.random.Generator, proj: LocalProjection,
                   centers_xy: np.ndarray, weights: np.ndarray,
                   cfg: CityLoadConfig, *, phase: str, n_bundles: int,
                   t_lo: float, t_hi: float, tag: str,
                   force_center: int | None = None) -> list[CityEvent]:
    """Timed ingest events, one encoded bundle each."""
    events: list[CityEvent] = []
    times = np.sort(rng.uniform(t_lo, t_hi, size=n_bundles))
    for b in range(n_bundles):
        if force_center is not None:
            w = np.zeros(len(centers_xy)); w[force_center] = 1.0
        else:
            w = weights
        recs = _cluster_records(rng, proj, centers_xy, w,
                                cfg.records_per_bundle, cfg.horizon_s,
                                tag=f"{tag}-b{b:03d}")
        payload = encode_bundle(f"{tag}-b{b:03d}", recs)
        events.append(CityEvent(
            time=float(times[b]), seq=-1, phase=phase, kind="ingest",
            payload=payload, device_id=f"dev-{tag}-{b % 7}"))
    return events


def _query_at(proj: LocalProjection, xy: np.ndarray, jitter: np.ndarray,
              radius: float, horizon_s: float, top_n: int,
              time: float, phase: str) -> CityEvent:
    g = proj.to_geo(float(xy[0] + jitter[0]), float(xy[1] + jitter[1]))
    q = Query(t_start=0.0, t_end=horizon_s, center=g,
              radius=radius, top_n=top_n)
    return CityEvent(time=time, seq=-1, phase=phase, kind="query", query=q)


def build_city_workload(config: CityLoadConfig | None = None) -> CityWorkload:
    """Generate the full deterministic scenario for one config."""
    cfg = config if config is not None else CityLoadConfig()
    proj = LocalProjection(CITY_ORIGIN)
    part = GridPartitioner(n_shards=cfg.n_shards, origin=CITY_ORIGIN,
                           cell_m=cfg.cell_m, seed=cfg.seed)

    # Geography: hotspot centres and their Zipf popularity.
    rng0 = _phase_rng(cfg.seed, 0)
    centers_xy = rng0.uniform(-cfg.extent_m / 2.0, cfg.extent_m / 2.0,
                              size=(cfg.n_hotspots, 2))
    weights = zipf_weights(cfg.n_hotspots, cfg.zipf_exponent)
    hot_xy = centers_xy[0]
    hot_geo = proj.to_geo(float(hot_xy[0]), float(hot_xy[1]))
    hot_cell = part.cell_of(hot_geo.lat, hot_geo.lng)
    failover_shard = part.shard_of_cell(*hot_cell)

    # Base corpus: half uniform city noise, half hotspot-clustered, so
    # every shard (and especially the hot cell's) has content.
    n_cluster = cfg.base_records // 2
    base = (_uniform_records(rng0, proj, cfg.extent_m,
                             cfg.base_records - n_cluster, cfg.horizon_s,
                             tag="base-u")
            + _cluster_records(rng0, proj, centers_xy, weights, n_cluster,
                               cfg.horizon_s, tag="base-c"))

    events: list[CityEvent] = []

    def window(phase: str) -> tuple[float, float]:
        i = PHASES.index(phase)
        return i * _PHASE_WINDOW_S, (i + 1) * _PHASE_WINDOW_S

    # -- phase 1: Zipf hotspot queries + background ingest + video mix --
    rng = _phase_rng(cfg.seed, 1)
    t_lo, t_hi = window("hotspot")
    picks = rng.choice(cfg.n_hotspots, size=cfg.hotspot_queries, p=weights)
    times = np.sort(rng.uniform(t_lo, t_hi, size=cfg.hotspot_queries))
    jitter = rng.normal(0.0, 25.0, size=(cfg.hotspot_queries, 2))
    for i in range(cfg.hotspot_queries):
        events.append(_query_at(proj, centers_xy[picks[i]], jitter[i],
                                AREA_RADII["urban"], cfg.horizon_s,
                                cfg.top_n, float(times[i]), "hotspot"))
    events.extend(_bundle_events(rng, proj, centers_xy, weights, cfg,
                                 phase="hotspot",
                                 n_bundles=cfg.hotspot_bundles,
                                 t_lo=t_lo, t_hi=t_hi, tag="hs"))
    vq_times = rng.uniform(t_lo, t_hi, size=cfg.video_queries)
    for v in range(cfg.video_queries):
        start = centers_xy[int(rng.integers(cfg.n_hotspots))]
        heading_deg = float(rng.uniform(0.0, 360.0))
        heading_rad = float(np.radians(heading_deg))
        step = rng.uniform(20.0, 60.0)
        segs = []
        for s in range(cfg.video_segments):
            x = float(start[0] + np.cos(heading_rad) * step * s)
            y = float(start[1] + np.sin(heading_rad) * step * s)
            g = proj.to_geo(x, y)
            segs.append(RepresentativeFoV(
                video_id=f"vq-{v:02d}", segment_id=s,
                t_start=float(10.0 * s), t_end=float(10.0 * s + 8.0),
                lat=g.lat, lng=g.lng, theta=heading_deg))
        vq = VideoQuery(segments=tuple(segs), t_start=0.0,
                        t_end=cfg.horizon_s, radius=100.0, top_k=5,
                        exclude=frozenset({f"vq-{v:02d}"}))
        events.append(CityEvent(time=float(vq_times[v]), seq=-1,
                                phase="hotspot", kind="video_query",
                                video_query=vq))

    # -- phase 2: flash crowd, exactly cfg.flash_events events ----------
    rng = _phase_rng(cfg.seed, 2)
    t_lo, t_hi = window("flash_crowd")
    n_queries = int(round(cfg.flash_events * cfg.flash_query_fraction))
    n_queries = min(max(n_queries, 1), cfg.flash_events - 1)
    n_bundles = cfg.flash_events - n_queries
    times = np.sort(rng.uniform(t_lo, t_hi, size=n_queries))
    jitter = rng.normal(0.0, 15.0, size=(n_queries, 2))
    for i in range(n_queries):
        events.append(_query_at(proj, hot_xy, jitter[i],
                                AREA_RADII["urban"], cfg.horizon_s,
                                cfg.top_n, float(times[i]), "flash_crowd"))
    events.extend(_bundle_events(rng, proj, centers_xy, weights, cfg,
                                 phase="flash_crowd", n_bundles=n_bundles,
                                 t_lo=t_lo, t_hi=t_hi, tag="fc",
                                 force_center=0))

    # -- phase 3: day/night sinusoidal thinning -------------------------
    rng = _phase_rng(cfg.seed, 3)
    t_lo, t_hi = window("daynight")
    kept: list[float] = []
    while len(kept) < cfg.daynight_queries:
        t = float(rng.uniform(t_lo, t_hi))
        u = float(rng.uniform())
        x = (t - t_lo) / (t_hi - t_lo)
        intensity = 0.5 * (1.0 + np.sin(2.0 * np.pi * x - np.pi / 2.0))
        if u <= intensity:
            kept.append(t)
    kept.sort()
    picks = rng.choice(cfg.n_hotspots, size=cfg.daynight_queries, p=weights)
    jitter = rng.normal(0.0, 25.0, size=(cfg.daynight_queries, 2))
    for i, t in enumerate(kept):
        events.append(_query_at(proj, centers_xy[picks[i]], jitter[i],
                                AREA_RADII["urban"], cfg.horizon_s,
                                cfg.top_n, t, "daynight"))

    # -- phase 4: mixed Section V-B radii --------------------------------
    rng = _phase_rng(cfg.seed, 4)
    t_lo, t_hi = window("mixed_radii")
    times = np.sort(rng.uniform(t_lo, t_hi, size=cfg.mixed_queries))
    picks = rng.choice(cfg.n_hotspots, size=cfg.mixed_queries, p=weights)
    jitter = rng.normal(0.0, 25.0, size=(cfg.mixed_queries, 2))
    for i in range(cfg.mixed_queries):
        area = "residential" if i % 2 == 0 else "highway"
        events.append(_query_at(proj, centers_xy[picks[i]], jitter[i],
                                AREA_RADII[area], cfg.horizon_s,
                                cfg.top_n, float(times[i]), "mixed_radii"))

    # -- phase 5: cache-adversarial stream -------------------------------
    # A pool wider than the router's LRU, visited round-robin: by the
    # time a key comes round again it has been evicted, so every
    # lookup is a miss.
    rng = _phase_rng(cfg.seed, 5)
    t_lo, t_hi = window("cache_adversarial")
    pool = cfg.cache_size + 8
    pool_xy = rng.uniform(-cfg.extent_m / 2.0, cfg.extent_m / 2.0,
                          size=(pool, 2))
    times = np.sort(rng.uniform(t_lo, t_hi, size=cfg.adversarial_queries))
    zero = np.zeros(2)
    for i in range(cfg.adversarial_queries):
        events.append(_query_at(proj, pool_xy[i % pool], zero,
                                AREA_RADII["urban"], cfg.horizon_s,
                                cfg.top_n, float(times[i]),
                                "cache_adversarial"))

    # -- phase 6: failover ------------------------------------------------
    # Kill the hot cell's shard, query through the downtime window
    # (hot-cell queries are refused and counted), promote the standby,
    # then keep querying.  No ingest is scheduled here: the fleet is
    # fail-stop while a primary is absent.
    rng = _phase_rng(cfg.seed, 6)
    t_lo, t_hi = window("failover")
    kill_t = t_lo + 0.2 * _PHASE_WINDOW_S
    promote_t = t_lo + 0.6 * _PHASE_WINDOW_S
    events.append(CityEvent(time=kill_t, seq=-1, phase="failover",
                            kind="kill", shard_id=failover_shard))
    events.append(CityEvent(time=promote_t, seq=-1, phase="failover",
                            kind="promote", shard_id=failover_shard))
    times = np.sort(rng.uniform(t_lo, t_hi, size=cfg.failover_queries))
    picks = rng.choice(cfg.n_hotspots, size=cfg.failover_queries, p=weights)
    jitter = rng.normal(0.0, 25.0, size=(cfg.failover_queries, 2))
    for i in range(cfg.failover_queries):
        # Half the downtime-window queries aim straight at the hot
        # cell so the run demonstrably drops some.
        xy = hot_xy if (kill_t < times[i] < promote_t and i % 2 == 0) \
            else centers_xy[picks[i]]
        events.append(_query_at(proj, xy, jitter[i], AREA_RADII["urban"],
                                cfg.horizon_s, cfg.top_n, float(times[i]),
                                "failover"))

    # Canonical order: time, then generation order for ties.
    events.sort(key=lambda ev: ev.time)
    numbered = tuple(
        CityEvent(time=ev.time, seq=i, phase=ev.phase, kind=ev.kind,
                  query=ev.query, video_query=ev.video_query,
                  payload=ev.payload, device_id=ev.device_id,
                  shard_id=ev.shard_id)
        for i, ev in enumerate(events))
    digest = hashlib.sha256(
        "\n".join(_event_line(ev) for ev in numbered).encode()).hexdigest()
    return CityWorkload(config=cfg, base_records=tuple(base),
                        events=numbered, hot_cell=hot_cell,
                        failover_shard=failover_shard, digest=digest)


# -- replay ----------------------------------------------------------------


@dataclass
class ReplayReport:
    """One replay of a workload against a live fleet."""

    failover_enabled: bool
    results: dict[int, tuple] = field(default_factory=dict)
    dropped: list[int] = field(default_factory=list)
    latencies: dict[tuple[str, str], list[float]] = field(default_factory=dict)
    queries_issued: int = 0
    queries_answered: int = 0
    ingest_groups: int = 0
    fleet_digest: str = ""
    downtime_s: float = 0.0
    kills: int = 0
    promotions: int = 0
    replica_syncs: int = 0

    def results_digest(self) -> str:
        """sha256 over every answered query's ranked rows (canonical)."""
        h = hashlib.sha256()
        for seq in sorted(self.results):
            rows = self.results[seq]
            if rows == _DROPPED:
                continue
            h.update(f"{seq}|{rows!r}\n".encode())
        return h.hexdigest()

    def stage_percentiles(self) -> dict[str, float]:
        """Flat ``<phase>_<stage>_p50/p99/p999`` keys, seconds."""
        out: dict[str, float] = {}
        for (phase, stage), samples in sorted(self.latencies.items()):
            out[f"{phase}_{stage}_p50"] = percentile(samples, 50.0)
            out[f"{phase}_{stage}_p99"] = percentile(samples, 99.0)
            out[f"{phase}_{stage}_p999"] = percentile(samples, 99.9)
        return out


def _fleet_digest(server: ShardedCloudServer) -> str:
    """Record keys + dedup digests: the fleet state parity compares."""
    keys = sorted(f"{r.video_id}:{r.segment_id}" for r in server.records())
    seen = sorted(server.seen_digests)
    h = hashlib.sha256()
    h.update("\n".join(keys).encode())
    h.update(b"|")
    h.update(",".join(seen).encode())
    return h.hexdigest()


def replay_workload(workload: CityWorkload, *, failover: bool,
                    wal_path: str | None = None,
                    clock: Callable[[], float] | None = None
                    ) -> ReplayReport:
    """Replay every event in time order against a fresh fleet.

    ``failover=False`` is the control run: ``kill``/``promote`` events
    are ignored and every query is answered.  ``failover=True`` builds
    a :class:`ReplicaSet`, re-syncs standbys after every commit group,
    executes the kill/promote pair, and counts queries refused during
    the downtime window as dropped.
    """
    cfg = workload.config
    obs = Observability.tracing(trace_capacity=cfg.trace_capacity)
    wal = WriteAheadLog(wal_path) if wal_path is not None else None
    server = ShardedCloudServer(
        CameraModel(), n_shards=cfg.n_shards, origin=CITY_ORIGIN,
        cell_m=cfg.cell_m, seed=cfg.seed, cache_size=cfg.cache_size,
        obs=obs, wal=wal)
    events_c = obs.registry.counter(
        "city.events", "workload events replayed, by phase",
        labelnames=("phase",))
    groups_c = obs.registry.counter(
        "city.ingest_groups", "ingest commit groups flushed")
    tracer = obs.span_tracer
    assert tracer is not None

    report = ReplayReport(failover_enabled=failover)
    server.ingest(list(workload.base_records))
    replicas = ReplicaSet(server, clock=clock) if failover else None
    if replicas is not None:
        report.replica_syncs += replicas.sync()

    pending: list[tuple[bytes, str | None]] = []

    def flush() -> None:
        if not pending:
            return
        server.ingest_batch([p for p, _ in pending],
                            [d for _, d in pending])
        groups_c.inc()
        report.ingest_groups += 1
        pending.clear()
        if replicas is not None:
            report.replica_syncs += replicas.sync()

    def harvest(phase: str) -> None:
        for span in tracer.traces():
            stage = _STAGE_OF_SPAN.get(span.name)
            if stage is not None:
                report.latencies.setdefault((phase, stage),
                                            []).append(span.duration_s)
        tracer.clear()

    tracer.clear()          # base-corpus load is setup, not workload
    current_phase = workload.events[0].phase if workload.events else PHASES[0]
    for ev in workload.events:
        if ev.phase != current_phase:
            flush()
            harvest(current_phase)
            current_phase = ev.phase
        events_c.labels(phase=ev.phase).inc()
        if ev.kind == "ingest":
            assert ev.payload is not None
            pending.append((ev.payload, ev.device_id))
            if len(pending) >= cfg.ingest_group:
                flush()
            continue
        flush()             # queries observe every prior ingest
        if ev.kind == "query":
            assert ev.query is not None
            report.queries_issued += 1
            try:
                res = server.query(ev.query)
            except ShardUnavailableError:
                if replicas is not None:
                    replicas.note_dropped_query()
                report.dropped.append(ev.seq)
                report.results[ev.seq] = _DROPPED
            else:
                report.queries_answered += 1
                report.results[ev.seq] = tuple(
                    (r.fov.key(), r.distance, r.covers, r.score)
                    for r in res.ranked)
        elif ev.kind == "video_query":
            assert ev.video_query is not None
            report.queries_issued += 1
            try:
                vres = server.query_video(ev.video_query)
            except ShardUnavailableError:
                if replicas is not None:
                    replicas.note_dropped_query()
                report.dropped.append(ev.seq)
                report.results[ev.seq] = _DROPPED
            else:
                report.queries_answered += 1
                report.results[ev.seq] = tuple(
                    (m.video_id, m.score) for m in vres.ranked)
        elif ev.kind == "kill":
            if replicas is not None:
                assert ev.shard_id is not None
                replicas.kill(ev.shard_id)
                report.kills += 1
        elif ev.kind == "promote":
            if replicas is not None:
                assert ev.shard_id is not None
                replicas.promote(ev.shard_id)
                report.promotions += 1
                report.downtime_s = max(report.downtime_s,
                                        replicas.downtime_s(ev.shard_id))
        else:       # pragma: no cover - generator emits only known kinds
            raise ValueError(f"unknown event kind {ev.kind!r}")
    flush()
    harvest(current_phase)
    report.fleet_digest = _fleet_digest(server)
    if wal is not None:
        wal.close()
    server.close()
    return report


# -- the end-to-end scenario ------------------------------------------------


@dataclass
class CityScaleResult:
    """Control + failover replays of one workload, parity-checked."""

    workload: CityWorkload
    control: ReplayReport
    failed: ReplayReport
    parity_ok: bool
    parity_mismatches: int

    def bench_payload(self) -> dict:
        """The ``BENCH_city_scale.json`` payload.

        Everything under ``"workload"`` is deterministic for a given
        config (two same-seed runs produce identical sections);
        latency percentiles and measured downtime sit at the top
        level and are excluded from the determinism contract.
        """
        payload: dict = dict(self.failed.stage_percentiles())
        payload["failover_downtime_s"] = self.failed.downtime_s
        payload["workload"] = {
            "seed": self.workload.config.seed,
            "n_shards": self.workload.config.n_shards,
            "digest": self.workload.digest,
            "phase_counts": self.workload.phase_counts(),
            "base_records": len(self.workload.base_records),
            "failover_shard": self.workload.failover_shard,
            "queries_issued": self.failed.queries_issued,
            "queries_answered": self.failed.queries_answered,
            "dropped_queries": len(self.failed.dropped),
            "kills": self.failed.kills,
            "promotions": self.failed.promotions,
            "ingest_groups": self.failed.ingest_groups,
            "parity_ok": self.parity_ok,
            "fleet_digest_match":
                self.control.fleet_digest == self.failed.fleet_digest,
            "results_digest": self.failed.results_digest(),
        }
        return payload


def run_city_scale(config: CityLoadConfig | None = None, *,
                   wal_dir: str | None = None,
                   clock: Callable[[], float] | None = None
                   ) -> CityScaleResult:
    """Build the workload, replay control + failover runs, check parity.

    Parity holds when every query answered by **both** runs returned
    bit-identical ranked rows (the failover run's dropped queries are
    excluded -- the control answered them, the failed run refused
    them by design) and the final fleet digests match.
    """
    workload = build_city_workload(config)
    wal_a = f"{wal_dir}/control.wal" if wal_dir is not None else None
    wal_b = f"{wal_dir}/failover.wal" if wal_dir is not None else None
    control = replay_workload(workload, failover=False, wal_path=wal_a,
                              clock=clock)
    failed = replay_workload(workload, failover=True, wal_path=wal_b,
                             clock=clock)
    mismatches = 0
    for seq, rows in failed.results.items():
        if rows == _DROPPED:
            continue
        if control.results.get(seq) != rows:
            mismatches += 1
    parity = (mismatches == 0
              and control.fleet_digest == failed.fleet_digest)
    return CityScaleResult(workload=workload, control=control,
                           failed=failed, parity_ok=parity,
                           parity_mismatches=mismatches)
