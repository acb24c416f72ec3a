"""Axis-aligned boxes (N-dimensional) -- the algebra under the R-tree.

A box is the pair of corner arrays ``(mins, maxs)``; the R-tree stores
FoV records as degenerate 3-D boxes ``[lng, lat, t_s] .. [lng, lat, t_e]``
(paper Section V-A).  Besides the scalar :class:`Box` type used at the
API surface, this module provides array kernels over *stacked* boxes
(shape ``(n, d)`` min/max matrices), which is how R-tree nodes hold their
entries so that chooseleaf/split/search run vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Box",
    "box_area",
    "box_intersects",
    "box_contains",
    "box_union",
    "boxes_union_all",
    "boxes_intersect_matrix",
    "enlargement",
    "stacked_area",
    "stacked_margin",
    "stacked_union",
]


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box in ``d`` dimensions.

    ``mins`` and ``maxs`` are equal-length float tuples with
    ``mins[i] <= maxs[i]``; degenerate (zero-extent) dimensions are
    allowed -- FoV records are degenerate in longitude and latitude.
    """

    mins: tuple[float, ...]
    maxs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.mins) != len(self.maxs):
            raise ValueError("mins and maxs must have equal length")
        if len(self.mins) == 0:
            raise ValueError("box must have at least one dimension")
        for lo, hi in zip(self.mins, self.maxs):
            if lo > hi:
                raise ValueError(f"box min {lo} exceeds max {hi}")

    @staticmethod
    def from_arrays(mins, maxs) -> "Box":
        return Box(tuple(float(v) for v in mins), tuple(float(v) for v in maxs))

    @staticmethod
    def from_point(point) -> "Box":
        p = tuple(float(v) for v in point)
        return Box(p, p)

    @property
    def ndim(self) -> int:
        return len(self.mins)

    @property
    def center(self) -> tuple[float, ...]:
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.mins, self.maxs))

    def extents(self) -> tuple[float, ...]:
        """Per-dimension edge lengths."""
        return tuple(hi - lo for lo, hi in zip(self.mins, self.maxs))


def box_area(box: Box) -> float:
    """Hyper-volume of the box (0 for degenerate boxes)."""
    return float(np.prod([hi - lo for lo, hi in zip(box.mins, box.maxs)]))


def box_intersects(a: Box, b: Box) -> bool:
    """Closed-interval overlap test (touching boxes intersect)."""
    if a.ndim != b.ndim:
        raise ValueError("dimension mismatch")
    return all(alo <= bhi and blo <= ahi
               for alo, ahi, blo, bhi in zip(a.mins, a.maxs, b.mins, b.maxs))


def box_contains(outer: Box, inner: Box) -> bool:
    """True if ``outer`` fully contains ``inner`` (boundaries count)."""
    if outer.ndim != inner.ndim:
        raise ValueError("dimension mismatch")
    return all(olo <= ilo and ihi <= ohi
               for olo, ohi, ilo, ihi in zip(outer.mins, outer.maxs, inner.mins, inner.maxs))


def box_union(a: Box, b: Box) -> Box:
    """Minimum bounding box of two boxes."""
    if a.ndim != b.ndim:
        raise ValueError("dimension mismatch")
    return Box(
        tuple(min(x, y) for x, y in zip(a.mins, b.mins)),
        tuple(max(x, y) for x, y in zip(a.maxs, b.maxs)),
    )


def boxes_union_all(boxes) -> Box:
    """Minimum bounding box of a non-empty iterable of boxes."""
    boxes = list(boxes)
    if not boxes:
        raise ValueError("cannot take the union of zero boxes")
    mins = np.min([b.mins for b in boxes], axis=0)
    maxs = np.max([b.maxs for b in boxes], axis=0)
    return Box.from_arrays(mins, maxs)


def enlargement(mbr: Box, box: Box) -> float:
    """Area increase of ``mbr`` needed to also cover ``box`` (Guttman's metric)."""
    return box_area(box_union(mbr, box)) - box_area(mbr)


# --- stacked-box kernels -------------------------------------------------
# A stack is a pair (mins, maxs) of float arrays of shape (n, d).  These
# kernels are the hot path of the R-tree: one call evaluates a predicate
# against every entry of a node at once.


def stacked_area(mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    """Volumes of ``n`` stacked boxes, shape ``(n,)``."""
    return np.prod(maxs - mins, axis=-1)


def stacked_margin(mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    """Sum of edge lengths (the R*-tree 'margin') per stacked box."""
    return np.sum(maxs - mins, axis=-1)


def stacked_union(mins: np.ndarray, maxs: np.ndarray,
                  box_min: np.ndarray, box_max: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union of every stacked box with a single box; returns new stacks."""
    return np.minimum(mins, box_min), np.maximum(maxs, box_max)


def boxes_intersect_matrix(
    a_mins: np.ndarray, a_maxs: np.ndarray,
    b_mins: np.ndarray, b_maxs: np.ndarray,
) -> np.ndarray:
    """Pairwise closed-interval intersection of two box stacks.

    Parameters
    ----------
    a_mins, a_maxs : ndarray, shape (n, d)
    b_mins, b_maxs : ndarray, shape (m, d)

    Returns
    -------
    ndarray of bool, shape (n, m)
    """
    a_mins = np.asarray(a_mins, dtype=float)
    a_maxs = np.asarray(a_maxs, dtype=float)
    b_mins = np.asarray(b_mins, dtype=float)
    b_maxs = np.asarray(b_maxs, dtype=float)
    lo_ok = a_mins[:, None, :] <= b_maxs[None, :, :]
    hi_ok = b_mins[None, :, :] <= a_maxs[:, None, :]
    return np.all(lo_ok & hi_ok, axis=-1)
