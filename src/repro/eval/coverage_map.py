"""Spatial coverage maps: how well does the crowd see the city?

For operators of a crowd-sourced retrieval service the dual of a query
is a coverage question: *which places could be answered right now?*
The coverage map rasterises the area into cells and counts, per cell,
how many uploaded segments' viewing sectors cover the cell centre
during a time window -- computed exactly with the vectorised sector
predicate.  It powers the surveillance example and the coverage
ablation, and doubles as a sanity oracle: a query at a zero-coverage
cell must return nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.camera import CameraModel
from repro.core.fov import RepresentativeFoV
from repro.geo.earth import LocalProjection
from repro.geometry.sector import sector_contains_points

__all__ = ["CoverageMap", "build_coverage_map"]


@dataclass(frozen=True)
class CoverageMap:
    """Grid of per-cell segment-coverage counts.

    ``counts[i, j]`` is the number of segments covering the centre of
    the cell at ``(x_edges[i]..x_edges[i+1], y_edges[j]..y_edges[j+1])``
    (local metres).
    """

    x_edges: np.ndarray
    y_edges: np.ndarray
    counts: np.ndarray

    def covered_fraction(self, min_count: int = 1) -> float:
        """Fraction of cells covered by at least ``min_count`` segments."""
        if min_count < 1:
            raise ValueError("min_count must be >= 1")
        return float(np.mean(self.counts >= min_count))

    def count_at(self, x: float, y: float) -> int:
        """Coverage count of the cell containing local point ``(x, y)``."""
        i = int(np.searchsorted(self.x_edges, x, side="right")) - 1
        j = int(np.searchsorted(self.y_edges, y, side="right")) - 1
        if not (0 <= i < self.counts.shape[0] and 0 <= j < self.counts.shape[1]):
            raise ValueError(f"point ({x}, {y}) outside the mapped area")
        return int(self.counts[i, j])

    def hotspots(self, k: int = 5) -> list[tuple[float, float, int]]:
        """The ``k`` best-covered cell centres as ``(x, y, count)``."""
        cx = (self.x_edges[:-1] + self.x_edges[1:]) / 2.0
        cy = (self.y_edges[:-1] + self.y_edges[1:]) / 2.0
        flat = self.counts.ravel()
        order = np.argsort(-flat, kind="stable")[:k]
        ncols = self.counts.shape[1]
        return [(float(cx[i // ncols]), float(cy[i % ncols]),
                 int(flat[i])) for i in order]


def build_coverage_map(fovs: list[RepresentativeFoV],
                       projection: LocalProjection,
                       camera: CameraModel,
                       extent: tuple[float, float, float, float],
                       cell_m: float = 25.0,
                       t_window: tuple[float, float] | None = None
                       ) -> CoverageMap:
    """Rasterise segment coverage over ``extent = (x0, y0, x1, y1)``.

    Segments outside ``t_window`` (when given) are ignored.  The
    per-cell test asks whether the *representative* FoV's sector covers
    the cell centre -- the same approximation the retrieval engine
    makes, so the map shows what the system can answer, not raw
    geometric truth.
    """
    x0, y0, x1, y1 = extent
    if x1 <= x0 or y1 <= y0 or cell_m <= 0:
        raise ValueError("invalid extent or cell size")
    x_edges = np.arange(x0, x1 + cell_m, cell_m)
    y_edges = np.arange(y0, y1 + cell_m, cell_m)
    cx = (x_edges[:-1] + x_edges[1:]) / 2.0
    cy = (y_edges[:-1] + y_edges[1:]) / 2.0
    counts = np.zeros((cx.size, cy.size), dtype=np.int32)

    active = [f for f in fovs
              if t_window is None
              or (f.t_end >= t_window[0] and f.t_start <= t_window[1])]
    if not active:
        return CoverageMap(x_edges=x_edges, y_edges=y_edges, counts=counts)

    apexes = projection.to_local_arrays(
        [f.lat for f in active], [f.lng for f in active])
    azimuths = np.array([f.theta for f in active])
    centers = np.stack(np.meshgrid(cx, cy, indexing="ij"),
                       axis=-1).reshape(-1, 2)
    # (n_fovs, n_cells) boolean, evaluated in row blocks to bound memory.
    block = max(1, int(4e6 // max(1, centers.shape[0])))
    for s in range(0, apexes.shape[0], block):
        covered = sector_contains_points(
            apexes[s: s + block], azimuths[s: s + block],
            camera.half_angle, camera.radius, centers)
        counts += covered.sum(axis=0).reshape(cx.size, cy.size)
    return CoverageMap(x_edges=x_edges, y_edges=y_edges, counts=counts)
