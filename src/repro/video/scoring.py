"""Sequence-level scorers over a per-segment similarity matrix.

Input is the asymmetric Eq. 10 matrix ``sim[i, j] = Sim(q_i, s_j)``
between a query trajectory's ``n`` representative FoVs and a stored
video's ``m`` segments (:func:`repro.core.similarity.cross_similarity`).
Two reductions turn it into one score per stored video:

* **LCV** (largest common view, after Ding, Yang & Nam): the longest
  *consecutive* run of segment pairs whose similarity clears a
  threshold -- the longest all-True diagonal run of the thresholded
  matrix.  Two videos that tracked the same street for ``k`` segments
  in lockstep score ``k`` regardless of what happened before or after.
* **Alignment** (DTW-style): the best monotonic warping path from
  ``(0, 0)`` to ``(n-1, m-1)`` accumulating similarity, normalised by
  the maximum path length ``n + m - 1`` so the score lands in
  ``[0, 1]``.  Unlike LCV it tolerates speed differences (one segment
  of A aligning to several of B) but requires whole-sequence
  alignment.

Each reduction ships twice: a vectorised NumPy kernel (the serving
path, RF015-clean) and a plain-Python scalar reference.  The kernels
perform the identical float operations in the identical order, so the
property suite pins them **bit-identical**, not merely close.

The kernels are *stacked*: given a ``(V, n, m_max)`` stack of ``V``
candidate videos' matrices plus ``lengths`` (``lengths[v]`` is video
``v``'s real column count ``m_v``; columns past it are padding whose
values never reach a result) they reduce every video in one pass and
return one score per video.  A single ``(n, m)`` matrix is the stack of
one and yields a scalar -- there is no second kernel.  Every operation
stays elementwise per cell, so a video's score is the same double
whether it was reduced alone or beside 150 others; what changes is
that a video query costs a fixed number of NumPy dispatches instead of
one set per candidate (:func:`repro.video.retrieval.retrieve_videos`).
"""

from __future__ import annotations

import numpy as np

from repro._types import ArrayLike

__all__ = [
    "lcv_run_length",
    "lcv_run_length_ref",
    "lcv_score",
    "alignment_score",
    "alignment_score_ref",
]


def _as_matrix(sim: ArrayLike) -> np.ndarray:
    out = np.asarray(sim, dtype=float)
    if out.ndim != 2:
        raise ValueError(f"sim must be a 2-D matrix, got shape {out.shape}")
    return out


def _as_stack(sim: ArrayLike, lengths: ArrayLike | None
              ) -> tuple[np.ndarray, np.ndarray, bool]:
    """``(stack, lengths, stacked)``: a lone matrix is the stack of one."""
    out = np.asarray(sim, dtype=float)
    if out.ndim == 2 and lengths is None:
        return out[None], np.array([out.shape[1]]), False
    if out.ndim != 3 or lengths is None:
        raise ValueError("sim must be a 2-D matrix, or a 3-D stack with "
                         f"lengths; got shape {out.shape}")
    m_of = np.asarray(lengths, dtype=np.int64)
    if m_of.shape != out.shape[:1] or (m_of < 1).any() \
            or (m_of > out.shape[2]).any():
        raise ValueError(
            "lengths must give every matrix of the stack a column count in "
            f"[1, {out.shape[2]}], got {m_of.tolist()}")
    return out, m_of, True


def lcv_run_length(sim: ArrayLike, threshold: float,
                   lengths: ArrayLike | None = None) -> int | np.ndarray:
    """Length of the largest common view, in segment pairs.

    The longest run ``sim[i, j], sim[i+1, j+1], ...`` with every entry
    ``>= threshold`` -- i.e. the longest all-True run down any diagonal
    of the thresholded matrix.  Vectorised as the row DP of
    :func:`lcv_run_length_ref`: ``run[i][j] = (run[i-1][j-1] + 1) *
    mask[i][j]`` over an ``(n+1, m+1)`` integer buffer whose zero first
    row and column start every diagonal, one NumPy step per query row;
    the answer is the buffer's maximum.  The counts are integers, so
    the result is exact.

    With a ``(V, n, m_max)`` stack and ``lengths`` each row step covers
    every matrix at once and the call returns a ``(V,)`` integer array;
    columns ``>= lengths[v]`` are masked to False, so padding can
    neither start nor extend a run.
    """
    stack, m_of, stacked = _as_stack(sim, lengths)
    n_videos, n, m = stack.shape
    mask = (stack >= threshold) & (np.arange(m) < m_of[:, None, None])
    runs = np.zeros((n_videos, n + 1, m + 1), dtype=np.int64)
    for i in range(n):
        np.multiply(runs[:, i, :-1] + 1, mask[:, i], out=runs[:, i + 1, 1:])
    best = runs.max(axis=(1, 2))
    return best if stacked else int(best[0])


def lcv_run_length_ref(sim: ArrayLike, threshold: float) -> int:
    """Scalar reference for :func:`lcv_run_length` (classic DP).

    ``run[i][j] = run[i-1][j-1] + 1`` where the pair clears the
    threshold, else 0; the answer is the maximum cell.  Kept for the
    bit-parity property suite; never on the serving path.
    """
    matrix = _as_matrix(sim).tolist()
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    best = 0
    prev = [0] * (m + 1)
    for i in range(n):
        cur = [0] * (m + 1)
        for j in range(m):
            if matrix[i][j] >= threshold:
                cur[j + 1] = prev[j] + 1
                if cur[j + 1] > best:
                    best = cur[j + 1]
        prev = cur
    return best


def lcv_score(sim: ArrayLike, threshold: float) -> float:
    """LCV normalised by the query length: fraction of the query
    trajectory covered by the largest common view, in ``[0, 1]``.

    Row count (the query) is the normaliser so the score answers "how
    much of *my* video did this stored video share?" -- a long stored
    video earns nothing for its extra segments.
    """
    matrix = _as_matrix(sim)
    n = matrix.shape[0]
    if n == 0:
        return 0.0
    return lcv_run_length(matrix, threshold) / n


def alignment_score(sim: ArrayLike,
                    lengths: ArrayLike | None = None) -> float | np.ndarray:
    """Best monotonic alignment of the two sequences, in ``[0, 1]``.

    DTW-style accumulation ``acc[i, j] = sim[i, j] + max(acc[i-1, j],
    acc[i, j-1], acc[i-1, j-1])`` with ``acc[0, 0] = sim[0, 0]``,
    normalised by the maximum path length ``n + m - 1``.  Evaluated by
    anti-diagonal wavefront: every cell of diagonal ``d = i + j``
    depends only on diagonals ``d-1`` and ``d-2``, so each diagonal is
    one vectorised gather-max-add.  The padded accumulator carries
    ``-inf`` sentinels for out-of-range predecessors, which ``max``
    ignores exactly as the scalar reference's bounds checks do.

    With a ``(V, n, m_max)`` stack and ``lengths`` one wavefront sweeps
    every matrix and returns a ``(V,)`` float array, video ``v`` read
    at its own corner ``(n-1, lengths[v]-1)``.  A cell's predecessors
    all have lower-or-equal column indices, so whatever the sweep
    computes in the padding never flows back into a real column.
    """
    stack, m_of, stacked = _as_stack(sim, lengths)
    n_videos, n, m = stack.shape
    if n == 0 or m == 0:
        scores = np.zeros(n_videos)
    else:
        padded = np.full((n_videos, n + 1, m + 1), -np.inf)
        padded[:, 1, 1] = stack[:, 0, 0]
        for d in range(1, n + m - 1):
            lo = max(0, d - m + 1)
            hi = min(n - 1, d)
            i = np.arange(lo, hi + 1)
            j = d - i
            up, left = padded[:, i, j + 1], padded[:, i + 1, j]
            pred = np.maximum(np.maximum(up, left), padded[:, i, j])
            padded[:, i + 1, j + 1] = stack[:, i, j] + pred
        scores = padded[np.arange(n_videos), n, m_of] / (n + m_of - 1)
    return scores if stacked else float(scores[0])


def alignment_score_ref(sim: ArrayLike) -> float:
    """Scalar reference for :func:`alignment_score` (row-major DP).

    Performs the same float add and three-way max per cell, so the
    result is bit-identical to the wavefront kernel (``max`` is exact
    and evaluation order within a cell does not change its value).
    """
    matrix = _as_matrix(sim).tolist()
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    if n == 0 or m == 0:
        return 0.0
    ninf = float("-inf")
    prev = [ninf] * (m + 1)
    # Row 0: only the leftward predecessor exists.
    prev[1] = matrix[0][0]
    for j in range(1, m):
        prev[j + 1] = matrix[0][j] + prev[j]
    for i in range(1, n):
        acc = [ninf] * (m + 1)
        for j in range(m):
            pred = max(prev[j + 1], acc[j], prev[j])
            acc[j + 1] = matrix[i][j] + pred
        prev = acc
    return float(prev[m]) / (n + m - 1)
