"""The harvest -> score -> rank pipeline for video-to-video retrieval.

Engine-agnostic: :func:`retrieve_videos` takes any ``query_many``
callable -- :meth:`repro.core.server.CloudServer.query_many` or the
sharded router's -- and the guarantee it needs from it is exactly the
one the engine-parity suite already pins for point queries: identical
ranked lists from the oracle, the packed engine and the router.  Harvest
grouping, similarity scoring and the canonical ``(-score, video_id)``
ranking are all deterministic functions of those lists, so the video
top-k inherits the bit-identical parity for free
(``docs/VIDEO_RETRIEVAL.md`` spells out the argument).

The harvest is ONE ``query_many`` call: every representative FoV of the
query trajectory becomes one point query.  On a
:class:`~repro.core.server.CloudServer` the whole batch goes through
the engine's vectorised ``execute_many`` funnel in a single pass (the
benchmark gates this at >= 5x the per-segment sequential loop); the
sharded router ranks every shard's hits of the batch in one such pass.

Scoring is ONE pass too, candidate-major: all harvested segments of all
candidate videos are projected and run through Eq. 10 in a single
:func:`~repro.core.similarity.cross_similarity` call, and the stacked
scorers of :mod:`repro.video.scoring` reduce every candidate at once --
one LCV call per query, plus one DTW call when that is the scorer,
however many videos the harvest surfaced.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from repro.core.cache import QueryResultCache, read_through
from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.query import Query, QueryResult
from repro.core.similarity import cross_similarity
from repro.geo.earth import LocalProjection
from repro.net.clock import default_timer
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, TracerLike
from repro.video.scoring import alignment_score, lcv_run_length

__all__ = [
    "SCORERS",
    "VideoQuery",
    "VideoMatch",
    "VideoQueryResult",
    "VideoQueryStats",
    "retrieve_videos",
    "serve_video_query",
]

#: Sequence scorers a :class:`VideoQuery` may name.
SCORERS = ("lcv", "dtw")


@dataclass(frozen=True)
class VideoQuery:
    """A query video's trajectory plus retrieval parameters.

    Hashable (all fields are), so the request itself is its cache key
    -- the epoch-tagged result caches store it exactly like a point
    query's key tuple.

    Parameters
    ----------
    segments : tuple of RepresentativeFoV
        The query trajectory, in segment order (at least one).
    t_start, t_end : float
        Time window every harvest query carries; stored segments
        outside it are invisible to the harvest.
    radius : float
        Harvest radius in metres around each query segment.
    top_k : int
        How many ranked videos to return.
    scorer : {"lcv", "dtw"}
        Sequence reduction: LCV run-fraction or the DTW-style
        alignment score (:mod:`repro.video.scoring`).
    sim_threshold : float
        Per-pair similarity threshold the LCV run must clear (also
        reported alongside DTW scores), in ``[0, 1]``.
    per_segment_top_n : int
        ``top_n`` of each harvest point query -- the candidate budget
        per query segment.
    exclude : frozenset of str
        Video ids invisible to the harvest (typically the query
        video's own id for leave-one-out retrieval).
    """

    segments: tuple[RepresentativeFoV, ...]
    t_start: float
    t_end: float
    radius: float = 100.0
    top_k: int = 10
    scorer: str = "lcv"
    sim_threshold: float = 0.25
    per_segment_top_n: int = 32
    exclude: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a video query needs at least one segment")
        # Same finiteness rule as Query: NaN and +-inf pass the ordered
        # comparisons below.
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError(
                f"query window must be finite, got "
                f"[{self.t_start}, {self.t_end}]")
        if not math.isfinite(self.radius):
            raise ValueError(f"radius must be finite, got {self.radius}")
        if self.t_end < self.t_start:
            raise ValueError(
                f"query window ends ({self.t_end}) before it starts "
                f"({self.t_start})")
        if self.radius <= 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.scorer not in SCORERS:
            raise ValueError(
                f"unknown scorer {self.scorer!r}; choose from {SCORERS}")
        if not 0.0 <= self.sim_threshold <= 1.0:
            raise ValueError(
                f"sim_threshold must be in [0, 1], got {self.sim_threshold}")
        if self.per_segment_top_n < 1:
            raise ValueError(
                f"per_segment_top_n must be >= 1, got {self.per_segment_top_n}")

    def harvest_queries(self) -> list[Query]:
        """One point query per trajectory segment (the batched harvest)."""
        return [
            Query(t_start=self.t_start, t_end=self.t_end, center=seg.point,
                  radius=self.radius, top_n=self.per_segment_top_n)
            for seg in self.segments
        ]


class VideoMatch(NamedTuple):
    """One ranked stored video with its scoring evidence.

    ``lcv`` is the largest-common-view run length in segment pairs
    (reported for both scorers); ``segments_matched`` how many of the
    video's stored segments the harvest surfaced.  Result lists are
    totally ordered by ``(-score, video_id)``.
    """

    video_id: str
    score: float
    lcv: int
    segments_matched: int


class VideoQueryResult(NamedTuple):
    """Ranked videos plus the funnel counters and harvested coverage.

    ``harvested`` is every distinct stored segment the harvest
    surfaced (canonically ordered by ``(video_id, segment_id)``) --
    the input to POI aggregation (:mod:`repro.video.poi`);
    ``videos_considered`` how many candidate videos were scored.
    """

    query: VideoQuery
    ranked: list[VideoMatch]
    harvested: list[RepresentativeFoV]
    videos_considered: int
    segments_harvested: int
    elapsed_s: float

    def keys(self) -> list[str]:
        """Ranked video ids, best first."""
        return [match.video_id for match in self.ranked]


class VideoQueryStats:
    """Read-through facade over the ``video.*`` metric families.

    One class registers the families (single registration site, RF013)
    and both the single server and the sharded router instantiate it
    on their own registries, exactly like
    :class:`~repro.core.server.ServerStats`.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._queries = reg.counter(
            "video.queries", "Video-to-video retrieval requests answered")
        self._cache_hits = reg.counter(
            "video.cache_hits", "Video queries answered from the result cache")
        self._cache_misses = reg.counter(
            "video.cache_misses", "Video queries that ran the full pipeline")
        self._segments_harvested = reg.counter(
            "video.segments_harvested",
            "Distinct stored segments surfaced by harvest batches")
        self._videos_ranked = reg.counter(
            "video.videos_ranked", "Candidate videos scored and ranked")

    @property
    def queries(self) -> int:
        """Video retrieval requests answered (cache hits included)."""
        return int(self._queries.value)

    @property
    def cache_hits(self) -> int:
        """Video queries answered from the result cache."""
        return int(self._cache_hits.value)

    @property
    def cache_misses(self) -> int:
        """Video queries that ran the full pipeline."""
        return int(self._cache_misses.value)

    @property
    def segments_harvested(self) -> int:
        """Distinct stored segments surfaced by harvest batches."""
        return int(self._segments_harvested.value)

    @property
    def videos_ranked(self) -> int:
        """Candidate videos scored and ranked (lifetime)."""
        return int(self._videos_ranked.value)


def _harvest(video_query: VideoQuery,
             query_many: Callable[[list[Query]], list[QueryResult]],
             ) -> list[RepresentativeFoV]:
    """Run the batched harvest: every distinct stored segment it
    surfaced, in canonical ``(video_id, segment_id)`` order.

    Deduplication is by ``(video_id, segment_id)``: a stored segment
    surfaced by several query segments counts once.  The order lays
    each video's segments out back to back for the stacked scorers.
    """
    answers = query_many(video_query.harvest_queries())
    by_key: dict[tuple[str, int], RepresentativeFoV] = {}
    for answer in answers:
        for row in answer.ranked:
            rep = row.fov
            if rep.video_id not in video_query.exclude:
                by_key[rep.video_id, rep.segment_id] = rep
    return [by_key[key] for key in sorted(by_key)]


def _score_videos(video_query: VideoQuery, lat: np.ndarray, lng: np.ndarray,
                  theta: np.ndarray, m_of: np.ndarray,
                  camera: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    """``(scores, lcv_runs)``, one entry per candidate video.

    ``lat``/``lng``/``theta`` hold every candidate's harvested segments
    back to back, ``m_of[v]`` of them for video ``v``.  Candidate-major:
    all of them are projected once, one :func:`cross_similarity` call
    fills the ``(n_q, sum(m_of))`` matrix of the query against the lot,
    and its columns are gathered into the ``(V, n_q, max(m_of))`` stack
    each scorer reduces in one pass (:mod:`repro.video.scoring`).
    Eq. 10 is elementwise per pair, so a video's block of the stack
    holds the same doubles a matrix of its own would.
    """
    query_segs = video_query.segments
    projection = LocalProjection(query_segs[0].point)
    xy_q = projection.to_local_arrays([s.lat for s in query_segs],
                                      [s.lng for s in query_segs])
    sim = cross_similarity(
        xy_q, np.array([s.theta for s in query_segs], dtype=float),
        projection.to_local_arrays(lat, lng), theta, camera)
    # Row-major over the real (video, column) slots is exactly the
    # back-to-back order of the segments, i.e. of ``sim``'s columns.
    slots = np.zeros((len(m_of), int(m_of.max()), len(query_segs)))
    slots[np.arange(slots.shape[1]) < m_of[:, None]] = sim.T
    stack = slots.transpose(0, 2, 1)
    runs = lcv_run_length(stack, video_query.sim_threshold, m_of)
    if video_query.scorer == "lcv":
        return runs / len(query_segs), runs
    return alignment_score(stack, m_of), runs


def _column(segs: list[RepresentativeFoV], name: str) -> np.ndarray:
    return np.fromiter(map(attrgetter(name), segs), float, len(segs))


def retrieve_videos(video_query: VideoQuery,
                    query_many: Callable[[list[Query]], list[QueryResult]],
                    camera: CameraModel,
                    clock: Callable[[], float] | None = None,
                    tracer: TracerLike = NULL_TRACER) -> VideoQueryResult:
    """Answer one video query against any engine's ``query_many``.

    Three spans cover the pipeline stages (``video.harvest``,
    ``video.score``, ``video.rank``); :func:`serve_video_query` wraps
    the whole call in ``video.query`` and owns caching and counters.
    Candidates stay columns through scoring and ranking: a
    :class:`VideoMatch` is built only for the ``top_k`` returned.
    """
    timer = clock if clock is not None else default_timer
    t0 = timer()
    with tracer.span("video.harvest", segments=len(video_query.segments)):
        harvested = _harvest(video_query, query_many)
        # ``harvested`` is sorted by video id, so the counter's keys
        # are the candidates in ascending order.
        counts = Counter(map(attrgetter("video_id"), harvested))
        video_ids = list(counts)
        m_of = np.fromiter(counts.values(), np.int64, len(counts))
    with tracer.span("video.score", videos=len(video_ids)):
        scores = runs = np.zeros(0)
        if harvested:
            scores, runs = _score_videos(
                video_query, _column(harvested, "lat"),
                _column(harvested, "lng"), _column(harvested, "theta"),
                m_of, camera)
    with tracer.span("video.rank", videos=len(video_ids)):
        # Ids ascend, so a stable sort on -score alone is the canonical
        # (-score, video_id) order.
        rows = np.argsort(-scores, kind="stable")[:video_query.top_k]
        top = [VideoMatch(video_ids[row], score, run, matched)
               for row, score, run, matched in zip(
                   rows.tolist(), scores[rows].tolist(),
                   runs[rows].tolist(), m_of[rows].tolist())]
    return VideoQueryResult(
        query=video_query,
        ranked=top,
        harvested=harvested,
        videos_considered=len(video_ids),
        segments_harvested=len(harvested),
        elapsed_s=timer() - t0,
    )


def serve_video_query(video_query: VideoQuery,
                      query_many: Callable[[list[Query]], list[QueryResult]],
                      camera: CameraModel, *,
                      cache: QueryResultCache | None,
                      epoch: Callable[[], object],
                      stats: VideoQueryStats,
                      clock: Callable[[], float] | None = None,
                      tracer: TracerLike = NULL_TRACER) -> VideoQueryResult:
    """:func:`retrieve_videos` as a server answers it: cached, counted.

    Both server facades call this.  The frozen :class:`VideoQuery` is
    its own cache key, tagged by whatever ``epoch`` returns (one index
    epoch, or the router's epoch vector) under the served-but-never-
    cached rule of :func:`repro.core.cache.read_through`.
    """
    def retrieve(_missed: list[int]) -> list[VideoQueryResult]:
        result = retrieve_videos(video_query, query_many, camera,
                                 clock=clock, tracer=tracer)
        stats._segments_harvested.inc(result.segments_harvested)
        stats._videos_ranked.inc(result.videos_considered)
        return [result]

    with tracer.span("video.query", segments=len(video_query.segments)):
        stats._queries.inc()
        return read_through(cache, [video_query], epoch, retrieve,
                            stats._cache_hits, stats._cache_misses)[0]
