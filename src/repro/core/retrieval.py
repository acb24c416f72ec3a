"""Rank-based retrieval with the Section V-B filtering mechanism.

The raw R-tree range search finds FoVs whose *camera positions* fall
near the query -- but inquirers do not care where the cameras were,
only whether a camera's viewing sector **covers** the queried spot.
The engine therefore:

1. runs the 3-D range search (query radius per the empirical area
   presets, Section V-B item 1);
2. under strict cover, keeps only the box hits
   whose viewing sector's lng/lat bounding box holds the query centre
   -- a superset of step 3's survivors, tested inside the grid descent
   (:mod:`repro.spatial.grid`); a query still counts every box hit as
   a candidate;
3. applies the orientation filter -- drop FoVs whose sector does not
   cover the query centre (items 2-3; "a video of Merkel on the
   grandstand is useless for a World Cup query");
4. ranks survivors by distance to the query centre, nearer first
   (closer FoVs are less likely to be occluded);
5. truncates to the inquirer's top-N (item 4).

One engine serves it, from the frozen structure-of-arrays snapshot
(``FoVIndex.packed_view``), gathering evidence by fancy-indexing its
columns -- the path for read-heavy, ingest-heavy and mixed traffic
alike (docs/PERFORMANCE.md §1).  After appends the snapshot is a base
grid plus one tail segment of the rows since; the funnel sees global
row ids from both, sorts by score, and breaks a score tie on the
record key and then the row only when a result window holds one, so it
ranks as over one full rebuild.  It has exactly one filter->rank
implementation, :func:`_batch_execute`: ``execute_many`` answers a
whole batch in shared passes over all (query, candidate) pairs,
``execute`` is its ``n = 1`` case on scalar operands, and the sharded
router runs it once per call over every shard's hits.  The reference
the parity suites compare it with is :func:`repro.core.oracle.answer`,
the paper's R-tree search and Python tie-run sort, which produces
identical rankings and funnel counters.

Latency accounting never reads a clock directly (fovlint RF005): the
engine takes an injectable ``clock`` callable, defaulting to
:func:`repro.net.clock.default_timer`.  Observability follows the same
discipline: the engine accepts an :class:`~repro.obs.runtime.Observability`
bundle and emits per-stage spans (grid descent, projection, orientation
filter, rank) through its tracer -- a no-op
:data:`~repro.obs.trace.NULL_TRACER` unless the owner opted into
tracing -- and turns each pass's descent tally (box hits, rows read)
into the ``packed.*`` counters.  Instruments observe the funnel;
they never select a different one.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from operator import gt
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.core.index import FoVIndex, PackedFoVIndex
from repro.core.query import Query, QueryResult, RankedFoV
from repro.core.ranking import DistanceRanker
from repro.geo.earth import _DEG_PER_RAD, pairwise_local_xy
from repro.net.clock import default_timer
from repro.obs.metrics import Counter, Gauge
from repro.obs.runtime import Observability
from repro.obs.trace import NULL_TRACER, TracerLike

__all__ = ["RetrievalEngine"]


def _sector_evidence(camera: CameraModel, strict_cover: bool,
                     x: np.ndarray, y: np.ndarray, thetas: np.ndarray,
                     radii: Any
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Orientation-filter evidence for candidate cameras.

    ``x``/``y`` hold camera positions in each query's local plane (query
    centre at the origin) and ``thetas`` their azimuths, all float64;
    ``radii`` is the query radius -- a scalar for
    a single query or a per-row array for a cross-query batch.  Every
    operation is elementwise, so batching queries together produces
    bit-identical per-row results to running them one at a time.

    Returns ``(dist, dtheta, covers_center, keep)``.
    """
    # x*x + y*y is exactly the two-element reduction ``np.linalg.norm``
    # performs, without its per-call dispatch overhead.
    dist = np.sqrt(x * x + y * y)                  # (n,)

    # Bearing from each camera to the query centre (the origin), and
    # Eq. 2's angular difference to the camera azimuth -- the
    # expression ``angular_difference`` evaluates, without its
    # scalar-or-array handling.
    # ``* _DEG_PER_RAD`` is ``np.degrees`` bit for bit, and ``np.mod``
    # by a positive divisor is never negative (``-0.0`` included).
    bearings = np.arctan2(-x, -y) * _DEG_PER_RAD
    d = np.mod(thetas - bearings, 360.0)
    dtheta = np.minimum(d, 360.0 - d)
    in_wedge = (dtheta <= camera.half_angle) | (dist == 0.0)
    covers_center = in_wedge & (dist <= camera.radius)

    if strict_cover:
        keep = covers_center
    else:
        # Sector-disc overlap, vectorised over the common cases:
        # centre covered, or apex within the query disc, or the
        # wedge pointing at the disc with the arc within reach.
        apex_in_disc = dist <= radii
        half_width = np.degrees(
            np.arcsin(np.clip(radii / np.maximum(dist, 1e-9), 0.0, 1.0))
        )
        wedge_touches = dtheta <= camera.half_angle + half_width
        near_enough = dist <= camera.radius + radii
        keep = covers_center | apex_in_disc | (wedge_touches & near_enough)
    return dist, dtheta, covers_center, keep


#: A funnel part: a view, its hits' query ids (read for batches) and rows.
Part = tuple[PackedFoVIndex, Any, np.ndarray]


def _batch_execute(parts: list[Part], queries: list[Query],
                   hits: Sequence[int], camera: CameraModel,
                   strict_cover: bool, ranker: Any,
                   clock: Callable[[], float], t0: float,
                   tracer: TracerLike = NULL_TRACER) -> list[QueryResult]:
    """Rank the descended hits of a query batch in shared passes.

    The one packed filter->rank funnel.  ``parts`` are the descent's
    box hits (:data:`Part`) -- an engine's one view, or the router's
    shards in shard order: one part per shard visit for a single query,
    one per shard for a batch, its visits concatenated in query order --
    and ``hits`` each query's candidate count.  A part's rows are
    numbered after every earlier part's, so each query's rows number in
    (shard, row) order.  Every stage is one array kernel over the
    ``(query, candidate)`` pairs of every part: the local projection,
    the orientation filter (under strict cover the descent handed on
    every row it can keep, :mod:`repro.spatial.grid`), one
    ``ranker.scores`` call over the survivors of every query (none when
    no row survives), and one ``np.argsort`` by descending score,
    followed for a batch by a stable radix pass on the query id (cast
    to ``np.min_scalar_type``) that makes each query's run contiguous.
    Only the winning ``top_n`` rows per query are materialised, each
    record the first time any result wins it (``view.records.take``).

    The canonical ranking is ``(-score, video_id, segment_id, row)``:
    duplicate keys rank by part, then by the row a tailed view numbers
    as a full rebuild would.  A query whose window of ``top_n + 1`` rows
    has strictly decreasing scores already holds it, whatever order
    equal scores sorted into -- no row after the window scores above
    its last row, so the first ``top_n`` are the highest scores and no
    two of them tie -- and the key columns are read only when a window
    holds a tie (or a NaN, which compares false with everything and
    sorts last): that query's survivor run is then put in row order and
    re-sorted under the full key, so the order it arrived in never
    matters.  The extra row makes a tie across the ``top_n`` cut count,
    since it decides which row is returned.

    A single query is the ``n = 1`` case of the same kernels, with its
    scalar origin and radius broadcast where a batch gathers per-pair
    ``[qids]`` columns; one part gathers from its view, and several
    take a ``(5, k)`` block each from their views' C-contiguous
    ``geom`` (``take`` would copy a strided one whole).  Every kernel is
    elementwise per pair, so the rows equal the batched ones bit for
    bit.  ``elapsed_s`` is the wall time since ``t0`` split evenly
    across the queries; each shared pass gets one span on ``tracer``.
    """
    n_q = len(queries)
    one = queries[0] if n_q == 1 else None
    starts = [0]                # each part's first row number
    if len(parts) == 1:
        view, qids, ids = parts[0]
    elif parts:
        starts = list(accumulate((len(v) for v, _, _ in parts[:-1]),
                                 initial=0))
        ids = np.concatenate([p_ids + start for (_, _, p_ids), start
                              in zip(parts, starts)])
        if one is None:
            qids = np.concatenate([p_qids for _, p_qids, _ in parts])
    if not parts or ids.size == 0:  # no query, record or row to filter
        share = (clock() - t0) / max(n_q, 1)
        return [QueryResult(query=q, ranked=[], candidates=n_cand,
                            after_filter=0, elapsed_s=share)
                for q, n_cand in zip(queries, hits)]

    with tracer.span("query.projection", pairs=int(ids.size)):
        if len(parts) == 1:
            lat, lng, theta = view.lat[ids], view.lng[ids], view.theta[ids]
        else:
            geom = np.concatenate([v.geom.take(p_ids, axis=1)
                                   for v, _, p_ids in parts], axis=1)
            lat, lng, theta = geom[0], geom[1], geom[2]
        if one is not None:
            origin_lat: Any = one.center.lat
            origin_lng: Any = one.center.lng
            radii: Any = one.radius
        else:
            origin_lat = np.fromiter((q.center.lat for q in queries),
                                     dtype=float, count=n_q)[qids]
            origin_lng = np.fromiter((q.center.lng for q in queries),
                                     dtype=float, count=n_q)[qids]
            radii = np.fromiter((q.radius for q in queries), dtype=float,
                                count=n_q)[qids]
        x, y = pairwise_local_xy(origin_lat, origin_lng, lat, lng)

    with tracer.span("query.orientation_filter"):
        dist, dtheta, covers_center, keep = _sector_evidence(
            camera, strict_cover, x, y, theta, radii)

    with tracer.span("query.rank"):
        kept = keep.nonzero()[0]
        kids = ids[kept]
        kdist = dist[kept]
        kdtheta = dtheta[kept]
        kcov = covers_center[kept]
        if len(parts) == 1:
            kts, kte = view.t_start[kids], view.t_end[kids]
        else:
            kts, kte = geom[3][kept], geom[4][kept]
        # ``qb``: each query's run of ``order``.  ``order``: descending
        # score, then for a batch a stable pass on the query id (keeps
        # runs contiguous), so each query's run of ``order`` is its
        # canonical ranking wherever no two scores tie.
        if one is not None:
            qb = [0, int(kept.size)]
            q_ts: Any = one.t_start
            q_te: Any = one.t_end
        else:
            kq = qids[kept]
            q_ts = np.fromiter((q.t_start for q in queries), dtype=float,
                               count=n_q)[kq]
            q_te = np.fromiter((q.t_end for q in queries), dtype=float,
                               count=n_q)[kq]
        # Mask-first: with no survivor the ranker is never called.
        scores = (np.asarray(ranker.scores(
            camera, q_ts, q_te, kdist, kdtheta, kts, kte), dtype=float)
            if kept.size else np.empty(0))
        order = np.argsort(-scores)
        if one is None:
            # A query id of at most 16 bits takes NumPy's radix sort.
            by_q = kq[order].astype(np.min_scalar_type(n_q - 1))
            order = order[by_q.argsort(kind="stable")]
            qb = np.searchsorted(kq, np.arange(n_q + 1),
                                 sorter=order).tolist()
        rows: list[tuple[Query, list[RankedFoV], int, int]] = []
        for qi, q in enumerate(queries):
            lo, hi = qb[qi], qb[qi + 1]
            top_n = q.top_n
            win = order[lo: min(hi, lo + top_n + 1)]
            top = scores[win].tolist()
            if not all(map(gt, top, top[1:])):
                # A tie (or a NaN) in the window: re-sort the run, in
                # row order, under the canonical key.
                run = order[lo:hi]
                run = run[np.argsort(kids[run])]
                rk = kids[run]
                win = run[np.lexsort((
                    rk, _gather(parts, starts, "segment_ids", rk),
                    _gather(parts, starts, "video_ids", rk), -scores[run]))]
                top = scores[win[:top_n]].tolist()
            win, top = win[:top_n], top[:top_n]
            ranked = [
                RankedFoV(fov=fov, distance=d, covers=c, score=s)
                for fov, d, c, s in zip(
                    _records(parts, starts, kids[win].tolist()),
                    kdist[win].tolist(), kcov[win].tolist(), top)]
            rows.append((q, ranked, hits[qi], hi - lo))

    share = (clock() - t0) / n_q
    return [
        QueryResult(query=q, ranked=ranked, candidates=n_cand,
                    after_filter=n_kept, elapsed_s=share)
        for q, ranked, n_cand, n_kept in rows
    ]


def _gather(parts: list[Part], starts: list[int], column: str,
            rows: np.ndarray) -> np.ndarray:
    """``column`` at ascending row numbers ``rows`` (_batch_execute)."""
    cut = [*rows.searchsorted(starts).tolist(), rows.size]
    return np.concatenate([getattr(view, column)[rows[a:b] - start]
                           for (view, _, _), start, a, b
                           in zip(parts, starts, cut, cut[1:])])


def _records(parts: list[Part], starts: list[int],
             numbers: list[int]) -> list[RepresentativeFoV]:
    """The records at row numbers ``numbers``, in that order."""
    if len(parts) == 1:
        return parts[0][0].records.take(numbers)
    by_part: dict[int, list[int]] = {}
    for j, number in enumerate(numbers):
        by_part.setdefault(bisect_right(starts, number) - 1, []).append(j)
    found: dict[int, RepresentativeFoV] = {}
    for p, js in by_part.items():
        found.update(zip(js, parts[p][0].records.take(
            [numbers[j] - starts[p] for j in js])))
    return [found[j] for j in range(len(numbers))]


class RetrievalEngine:
    """Executes queries against an :class:`FoVIndex`.

    Parameters
    ----------
    index : FoVIndex
        Backing spatio-temporal index.
    camera : CameraModel
        Camera constants used by the orientation filter (the sector
        half-angle; the sector radius defaults to the camera's ``R``).
    strict_cover : bool
        If True (default) a candidate survives only when its sector
        covers the query *centre*.  If False, intersecting the query
        *disc* suffices -- a more forgiving variant measured by the
        accuracy ablation.
    ranker : optional
        Scoring strategy (see :mod:`repro.core.ranking`); default is the
        paper's nearest-camera-first :class:`DistanceRanker`.
    clock : callable, optional
        Zero-argument monotonic timer used for ``elapsed_s``; defaults
        to :func:`repro.net.clock.default_timer`.  Injectable so the
        deterministic core never reads a clock itself.
    obs : Observability, optional
        Instrument bundle.  When given, every pipeline stage emits a
        span through ``obs.tracer`` (grid descent, projection,
        orientation filter, rank) and each pass (one
        ``execute``, or one ``execute_many`` batch) feeds the
        ``packed.*`` families from its descent tally.  When omitted the
        same code runs against the no-op tracer and counts nothing.
    """

    def __init__(self, index: FoVIndex, camera: CameraModel,
                 strict_cover: bool = True, ranker: Any = None,
                 clock: Callable[[], float] | None = None,
                 obs: Observability | None = None):
        self.index = index
        self.camera = camera
        self.strict_cover = strict_cover
        self.ranker = ranker if ranker is not None else DistanceRanker()
        self._clock = clock if clock is not None else default_timer
        self._tracer: TracerLike = obs.tracer if obs is not None else NULL_TRACER
        self._packed: tuple[Counter, Counter, Counter, Gauge] | None = None
        if obs is not None:
            reg = obs.registry
            self._packed = (
                reg.counter("packed.descents", "Packed funnel passes"),
                reg.counter("packed.entries_tested",
                            "Grid rows read by the box test"),
                reg.counter("packed.entries_matched",
                            "Box hits, before the sector-box test"),
                reg.gauge("packed.frontier_width_peak",
                          "Most grid rows read by one pass"))

    def execute(self, query: Query) -> QueryResult:
        """Run the full filter/rank pipeline; returns a timed result.

        The ``n = 1`` case of the batched funnel
        (:func:`_batch_execute`), instrumented or not.
        """
        with self._tracer.span("query.execute"):
            return self._execute_packed([query])[0]

    def execute_many(self, queries: Sequence[Query]) -> list[QueryResult]:
        """Answer a batch of queries.

        Semantically identical to ``[execute(q) for q in queries]`` --
        same rankings, same funnel counters -- but the whole batch is
        answered in one grid pass that shares the orientation-filter
        pass across queries.  Scaling out is the geo-partitioned
        router's job (:mod:`repro.shard`), not the engine's.

        The batched path reports ``elapsed_s`` as the batch wall time
        split evenly across its queries.
        """
        batch = list(queries)
        with self._tracer.span("query.execute_many", batch=len(batch)):
            return self._execute_packed(batch)

    def _execute_packed(self, queries: list[Query]) -> list[QueryResult]:
        view, t0 = self.index.packed_view(), self._clock()
        n_q = len(queries)
        cover = self.camera if self.strict_cover else None
        with self._tracer.span("query.tree_descent", queries=n_q):
            if n_q == 1:
                found = [0, 0]          # box hits, rows read
                qids, ids = None, view.range_search_ids(queries[0], cover,
                                                        found)
                hits, read = found[:1], found[1]
            else:
                counts = np.zeros((2, n_q), dtype=np.int64)
                qids, ids = view.search_many_ids(queries, cover, counts)
                hits, read = counts[0].tolist(), int(counts[1].sum())
        results = _batch_execute([(view, qids, ids)], queries, hits,
                                 self.camera, self.strict_cover, self.ranker,
                                 self._clock, t0, self._tracer)
        if self._packed is not None and queries:
            descents, tested, matched, peak = self._packed
            descents.inc()
            tested.inc(read)
            matched.inc(sum(hits))
            if read > peak.value:
                peak.set(read)
        return results
