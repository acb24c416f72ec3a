"""Video-to-video retrieval: trajectory similarity and POI discovery.

The point-query system answers ``Q = (p, r, [t_s, t_e])``; this package
composes those answers into a *sequence-level* workload: given a query
video's trajectory of representative FoVs, find the stored videos
sharing the largest common view (Ding, Yang & Nam's LCV measure) or
the best monotonic alignment (a DTW-style score), and aggregate what
the harvested crowd actually observed into top-k points of interest
(Lu & Colmenares).

Pipeline (``docs/VIDEO_RETRIEVAL.md``):

1. **harvest** -- the query trajectory's FoVs go out as ONE batched
   ``query_many`` call against the (packed, optionally sharded)
   engine; hits are grouped per stored ``video_id``;
2. **score** -- each candidate video's harvested segments form an
   asymmetric Eq. 10 similarity matrix against the query trajectory
   (``cross_similarity``), reduced by :func:`lcv_run_length` /
   :func:`alignment_score`;
3. **rank** -- candidates order under the canonical
   ``(-score, video_id)`` total order, bit-identical between the
   oracle, the packed engine and the sharded router;
4. **POI** -- harvested coverage rasterises into most-observed cells,
   weighted by the Section VII submodular utility
   (:mod:`repro.video.poi`, imported where it is used: it reaches the
   evaluation and utility code, which the serving path never loads).
"""

from repro.video.retrieval import (
    SCORERS,
    VideoMatch,
    VideoQuery,
    VideoQueryResult,
    VideoQueryStats,
    retrieve_videos,
)
from repro.video.scoring import (
    alignment_score,
    alignment_score_ref,
    lcv_run_length,
    lcv_run_length_ref,
    lcv_score,
)

__all__ = [
    "SCORERS",
    "VideoMatch",
    "VideoQuery",
    "VideoQueryResult",
    "VideoQueryStats",
    "retrieve_videos",
    "alignment_score",
    "alignment_score_ref",
    "lcv_run_length",
    "lcv_run_length_ref",
    "lcv_score",
]
