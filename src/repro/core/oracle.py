"""The reference answer to a ranked query: Section V, one query at a time.

:func:`answer` runs the paper's pipeline in its plainest form: the
index's ``range_search`` (the Section V-A R-tree view of a column
store, or the linear baseline's scan), the orientation filter over the
candidate records (Section V-B), and a distance rank whose exact score
ties are re-sorted on the record key in Python.  It shares only the
elementwise sector evidence with the packed funnel
(:func:`repro.core.retrieval._batch_execute`), so the parity suites and
the perf ledger check the serving path against it; a ``CloudServer``
over the linear baseline, which holds no columns to pack, is answered
by it.  It takes an index, not a record list, so a reference over a
large record set finds its candidates without a Python pass over all
of them.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.camera import CameraModel
from repro.core.index import FoVIndex
from repro.core.query import Query, QueryResult, RankedFoV
from repro.core.ranking import DistanceRanker
from repro.core.retrieval import _sector_evidence
from repro.geo.earth import pairwise_local_xy
from repro.net.clock import default_timer

__all__ = ["answer"]


def answer(index: FoVIndex, query: Query, camera: CameraModel,
           strict_cover: bool = True, ranker: Any = None) -> QueryResult:
    """Answer ``query`` over ``index``: range search, filter, rank.

    ``strict_cover`` and ``ranker`` mean what they mean to
    :class:`~repro.core.retrieval.RetrievalEngine`.  The mask is applied
    first, so the ranker and the sort see only survivors.  The order is
    canonical: descending score, exact ties broken by the record key
    ``(video_id, segment_id)``, so it depends on record content, not
    on index layout, and equals the packed engine's bit for bit, funnel
    counters included.  A plain stable argsort ranks the common
    all-distinct case; only tie runs are re-sorted at Python level.
    """
    ranker = ranker if ranker is not None else DistanceRanker()
    t0 = default_timer()
    found = index.range_search(query)
    # camera positions, query centre at the origin
    x, y = pairwise_local_xy(query.center.lat, query.center.lng,
                             np.array([f.lat for f in found], dtype=float),
                             np.array([f.lng for f in found], dtype=float))
    dist, dtheta, covers_center, keep = _sector_evidence(
        camera, strict_cover, x, y,
        np.array([f.theta for f in found], dtype=float), query.radius)
    kept = keep.nonzero()[0]
    ranked: list[RankedFoV] = []
    if kept.size:
        t_start = np.array([f.t_start for f in found])
        t_end = np.array([f.t_end for f in found])
        scores = np.asarray(ranker.scores(
            camera, query.t_start, query.t_end, dist[kept], dtheta[kept],
            t_start[kept], t_end[kept]), dtype=float)
        perm = np.argsort(-scores, kind="stable")
        ss = scores[perm]
        if ss.size > 1 and bool(np.any(ss[:-1] == ss[1:])):
            ordered: list[int] = []
            flat = [int(p) for p in perm]
            i = 0
            while i < len(flat):
                j = i + 1
                while j < len(flat) and ss[j] == ss[i]:
                    j += 1
                if j - i > 1:
                    ordered.extend(sorted(
                        flat[i:j], key=lambda p: found[kept[p]].key()))
                else:
                    ordered.append(flat[i])
                i = j
            perm = np.asarray(ordered, dtype=np.intp)
        ranked = [RankedFoV(fov=found[kept[p]], distance=float(dist[kept[p]]),
                            covers=bool(covers_center[kept[p]]),
                            score=float(scores[p]))
                  for p in perm]
    return QueryResult(query=query, ranked=ranked[: query.top_n],
                       candidates=len(found), after_filter=len(ranked),
                       elapsed_s=default_timer() - t0)
