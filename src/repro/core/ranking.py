"""Pluggable result rankers (Section V-B and extensions).

The paper ranks surviving FoVs purely by distance to the query centre
("closer FoVs will have a higher probability to cover the query area").
That ignores two signals the index already has: how *long* a segment
overlaps the queried interval, and how *centrally* the query point sits
in the camera's wedge (a spot at the wedge edge drifts out of frame
with any motion).  The composite ranker folds all three in; the
evaluation's ranker ablation measures what each buys.

A ranker has one method, ``scores(camera, q_t_start, q_t_end, dist,
dtheta, t_start, t_end)``, mapping per-candidate evidence arrays to
scores (higher = better), and is injected into
:class:`repro.core.retrieval.RetrievalEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from repro.core.camera import CameraModel

if TYPE_CHECKING:
    from repro.core.fov import FoV

__all__ = ["DistanceRanker", "CompositeRanker", "diversify_results"]


@dataclass(frozen=True)
class DistanceRanker:
    """The paper's ranking: nearest camera first."""

    def scores(self, camera: CameraModel,
               q_t_start: np.ndarray | float,
               q_t_end: np.ndarray | float,
               dist: np.ndarray, dtheta: np.ndarray,
               t_start: np.ndarray, t_end: np.ndarray) -> np.ndarray:
        """Higher-is-better scores: negated distance to the query centre.

        Rows may belong to different queries; ``q_t_start``/``q_t_end``
        carry each row's query window (a single query passes its two
        scalars, which broadcast).  Every operation is elementwise, so
        a row scores the same in any batch -- the batched engine relies
        on that for parity with the single-query path.  ``dist`` is the
        engines' float64 array, negated as is.
        """
        return -dist


@dataclass(frozen=True)
class CompositeRanker:
    """Distance + temporal overlap + angular centrality.

    Each component is normalised to ``[0, 1]``:

    * proximity: ``1 - dist / R`` (clamped) -- the paper's signal;
    * temporal: overlap of ``[t_s, t_e]`` with the query window as a
      fraction of the window (capped at 1);
    * centrality: ``1 - dtheta / alpha`` -- 1 when the camera points
      straight at the spot, 0 at the wedge edge.

    Weights must be non-negative and not all zero; they are normalised
    internally so only their ratios matter.
    """

    w_distance: float = 1.0
    w_temporal: float = 0.5
    w_centrality: float = 0.5

    def __post_init__(self) -> None:
        ws = (self.w_distance, self.w_temporal, self.w_centrality)
        if any(w < 0 for w in ws):
            raise ValueError("weights must be non-negative")
        if sum(ws) == 0:
            raise ValueError("at least one weight must be positive")

    def scores(self, camera: CameraModel,
               q_t_start: np.ndarray | float,
               q_t_end: np.ndarray | float,
               dist: np.ndarray, dtheta: np.ndarray,
               t_start: np.ndarray, t_end: np.ndarray) -> np.ndarray:
        """Weighted sum of the three normalised components, in [0, 1].

        ``q_t_start``/``q_t_end`` carry each row's query window; a
        single query passes its two scalars, which broadcast.  Every
        operation is elementwise, so batched scores match the
        single-query ones bit for bit.
        """
        dist = np.asarray(dist, dtype=float)
        dtheta = np.asarray(dtheta, dtype=float)
        t_start = np.asarray(t_start, dtype=float)
        t_end = np.asarray(t_end, dtype=float)
        q_t_start = np.asarray(q_t_start, dtype=float)
        q_t_end = np.asarray(q_t_end, dtype=float)

        proximity = np.clip(1.0 - dist / camera.radius, 0.0, 1.0)
        window = np.maximum(q_t_end - q_t_start, 1e-9)
        overlap = (np.minimum(t_end, q_t_end)
                   - np.maximum(t_start, q_t_start))
        temporal = np.clip(overlap / window, 0.0, 1.0)
        centrality = np.clip(1.0 - dtheta / camera.half_angle, 0.0, 1.0)

        total = self.w_distance + self.w_temporal + self.w_centrality
        return (self.w_distance * proximity
                + self.w_temporal * temporal
                + self.w_centrality * centrality) / total


def diversify_results(ranked, camera: CameraModel, top_n: int,
                      redundancy_weight: float = 0.5):
    """MMR-style diversification of a ranked result list.

    The top-N of a crowd is often N near-identical viewpoints of the
    same camera cluster; an investigator usually wants *different*
    angles.  Greedy maximal-marginal-relevance re-selection: pick, at
    each step, the result maximising ``rank_score - redundancy_weight *
    max FoV-similarity to the already-picked set`` (Eq. 10 similarity of
    the representative FoVs).

    Parameters
    ----------
    ranked : list of RankedFoV
        The engine's output rows, best first (their order encodes the
        rank score; scores are recovered as ``1 - i / len``).
    camera : CameraModel
    top_n : int
        How many diversified rows to return.
    redundancy_weight : float in [0, 1]
        0 returns the input order; 1 maximises diversity only.
    """
    from repro.core.similarity import similarity  # local: avoids cycle

    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    if not 0.0 <= redundancy_weight <= 1.0:
        raise ValueError("redundancy_weight must be in [0, 1]")
    pool = list(ranked)
    if not pool or redundancy_weight == 0.0:
        return pool[:top_n]
    n = len(pool)
    base = {id(row): 1.0 - i / n for i, row in enumerate(pool)}

    def as_fov(row: RankedFoV) -> "FoV":
        rep = row.fov
        from repro.core.fov import FoV
        return FoV(t=rep.t_start, lat=rep.lat, lng=rep.lng, theta=rep.theta)

    picked = []
    while pool and len(picked) < top_n:
        best_i, best_score = 0, -np.inf
        for i, row in enumerate(pool):
            redundancy = max(
                (similarity(as_fov(row), as_fov(p), camera) for p in picked),
                default=0.0)
            score = ((1.0 - redundancy_weight) * base[id(row)]
                     - redundancy_weight * redundancy)
            if score > best_score:
                best_i, best_score = i, score
        picked.append(pool.pop(best_i))
    return picked
