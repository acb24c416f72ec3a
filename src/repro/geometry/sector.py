"""The camera viewing sector: the conical area an FoV actually covers.

An FoV ``f = (p, theta)`` together with the camera constants -- half
viewing angle ``alpha`` and radius of view ``R`` -- covers a circular
sector with apex ``p``, bisector azimuth ``theta``, angular half-width
``alpha`` and radius ``R`` (paper Section II-B).  The retrieval filter
(Section V-B) needs two predicates on this shape:

* does the sector *cover* a query point?  (orientation filter)
* does the sector intersect a query circle?  (coverage-based relevance)

Both have vectorised forms used by the ground-truth generator, which
evaluates them for every (frame, query) pair of a city-scale dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.angles import angular_difference, normalize_angle
from repro.geometry.vec import Vec2, bearing_of, heading_to_unit

__all__ = [
    "Sector",
    "sector_contains_point",
    "sector_contains_points",
    "sector_circle_intersects",
    "sectors_overlap_angle",
]


@dataclass(frozen=True, slots=True)
class Sector:
    """Circular sector (apex, bisector azimuth, half-angle, radius).

    Parameters
    ----------
    apex : Vec2
        Camera position in local metres.
    azimuth : float
        Bisector compass azimuth, degrees.
    half_angle : float
        Angular half-width ``alpha`` in degrees, ``0 < half_angle <= 180``.
    radius : float
        Radius of view ``R`` in metres, ``> 0``.
    """

    apex: Vec2
    azimuth: float
    half_angle: float
    radius: float

    def __post_init__(self) -> None:
        if not 0.0 < self.half_angle <= 180.0:
            raise ValueError(f"half_angle must be in (0, 180], got {self.half_angle}")
        if self.radius <= 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    @property
    def angle_range(self) -> tuple[float, float]:
        """``Theta = (theta - alpha, theta + alpha)`` as wrapped azimuths."""
        return (
            float(normalize_angle(self.azimuth - self.half_angle)),
            float(normalize_angle(self.azimuth + self.half_angle)),
        )

    def area(self) -> float:
        """Sector area ``alpha/180 * pi * R^2`` in square metres."""
        return float(self.half_angle / 180.0 * np.pi * self.radius**2)

    def arc_endpoints(self) -> tuple[Vec2, Vec2]:
        """The two far corners of the sector (left and right arc ends)."""
        lo, hi = self.azimuth - self.half_angle, self.azimuth + self.half_angle
        ul = heading_to_unit(lo)
        ur = heading_to_unit(hi)
        left = self.apex + Vec2(float(ul[0]), float(ul[1])) * self.radius
        right = self.apex + Vec2(float(ur[0]), float(ur[1])) * self.radius
        return left, right

    def contains(self, point: Vec2) -> bool:
        """Point-coverage predicate (see :func:`sector_contains_point`)."""
        return sector_contains_point(self, point)


def sector_contains_point(sector: Sector, point: Vec2) -> bool:
    """True if ``point`` lies inside the sector (apex counts as inside)."""
    d = (point - sector.apex).norm()
    if d > sector.radius:
        return False
    if d == 0.0:
        return True
    bearing = bearing_of(sector.apex, point)
    return angular_difference(bearing, sector.azimuth) <= sector.half_angle


def sector_contains_points(
    apexes: np.ndarray,
    azimuths: np.ndarray,
    half_angle: float,
    radius: float,
    points: np.ndarray,
) -> np.ndarray:
    """Vectorised coverage test: which FoVs cover which points.

    Parameters
    ----------
    apexes : ndarray, shape (n, 2)
        Camera positions (local metres).
    azimuths : ndarray, shape (n,)
        Bisector azimuths, degrees.
    half_angle, radius : float
        Shared camera constants.
    points : ndarray, shape (m, 2)
        Query points.

    Returns
    -------
    ndarray of bool, shape (n, m)
        ``out[i, j]`` is True iff sector ``i`` covers point ``j``.
    """
    apexes = np.asarray(apexes, dtype=float)
    azimuths = np.asarray(azimuths, dtype=float)
    points = np.asarray(points, dtype=float)
    diff = points[None, :, :] - apexes[:, None, :]  # (n, m, 2)
    dist = np.linalg.norm(diff, axis=-1)  # (n, m)
    bearings = np.degrees(np.arctan2(diff[..., 0], diff[..., 1]))
    dtheta = angular_difference(bearings, azimuths[:, None])
    inside = (dist <= radius) & ((dtheta <= half_angle) | (dist == 0.0))
    return inside


def _segment_point_distance(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> float:
    """Distance from point ``p`` to the segment ``ab`` (all shape-(2,) arrays)."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    proj = a + t * ab
    return float(np.linalg.norm(p - proj))


def sector_circle_intersects(sector: Sector, center: Vec2, radius: float) -> bool:
    """True if the sector and the disc ``(center, radius)`` overlap.

    Exact for ``half_angle <= 90``; for wider apertures the straight-edge
    decomposition below still covers every case because the sector is
    treated as (arc region) + two edge segments + apex.

    The test decomposes into:

    1. circle centre inside the sector, or
    2. sector apex inside the circle, or
    3. either straight edge of the sector within ``radius`` of the centre, or
    4. the arc within ``radius`` of the centre (centre inside the angular
       wedge, at distance between ``R - radius`` and ``R + radius``).
    """
    if radius < 0.0:
        raise ValueError("circle radius must be non-negative")
    if sector_contains_point(sector, center):
        return True
    c = center.as_array()
    apex = sector.apex.as_array()
    d_apex = float(np.linalg.norm(c - apex))
    if d_apex <= radius:
        return True
    left, right = sector.arc_endpoints()
    if _segment_point_distance(apex, left.as_array(), c) <= radius:
        return True
    if _segment_point_distance(apex, right.as_array(), c) <= radius:
        return True
    # Arc proximity: centre must look into the wedge and sit near radius R.
    bearing = bearing_of(sector.apex, center)
    if angular_difference(bearing, sector.azimuth) <= sector.half_angle:
        if abs(d_apex - sector.radius) <= radius:
            return True
    return False


def sectors_overlap_angle(theta1: float, theta2: float, half_angle: float) -> float:
    """Angular overlap ``|Theta1 cap Theta2|`` of two co-located sectors, degrees.

    This is the numerator of Eq. 4: two sectors sharing an apex with
    bisectors ``theta1`` and ``theta2`` and common half-angle ``alpha``
    overlap over ``max(0, 2 alpha - delta_theta)`` degrees (for
    ``2 alpha <= 360``; saturates at the full span otherwise).
    """
    span = 2.0 * half_angle
    d = angular_difference(theta1, theta2)
    overlap = max(0.0, span - d)
    # Two arcs each of width `span` on a 360-circle overlap at least
    # 2*span - 360 degrees regardless of separation.
    overlap = max(overlap, 2.0 * span - 360.0)
    return float(min(overlap, span))
