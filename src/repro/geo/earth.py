"""Spherical-Earth transforms (paper Section VI-A, Eq. 12).

The paper converts a pair of GPS fixes into a local translation vector
``(delta_x, delta_y)`` in metres by treating the Earth as a regular
sphere of radius 6 378 140 m and scaling degree differences by the local
circumference.  Equation 12 as printed scales longitude by
``cos((Lng2 - Lng1)/2)``; the dimensionally consistent equirectangular
projection uses the cosine of the *mean latitude* instead.  Both forms
are provided -- the corrected one is the default, the literal one is
selectable with ``paper_formula=True`` for fidelity experiments (the
difference is negligible for the sub-kilometre displacements mobile
video produces, which is why the paper's prototype worked regardless).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geo.coords import GeoPoint

__all__ = [
    "EARTH_RADIUS_M",
    "metres_per_degree",
    "displacement",
    "haversine_distance",
    "radius_to_degrees",
    "pairwise_local_xy",
    "LocalProjection",
]

#: Paper's Earth radius (Section VI-A), metres.
EARTH_RADIUS_M = 6_378_140.0

#: Metres per degree along a great circle: 2*pi*Re / 360.
_M_PER_DEG = 2.0 * np.pi * EARTH_RADIUS_M / 360.0

#: ``x * _RAD_PER_DEG`` is ``np.radians(x)`` and ``x * _DEG_PER_RAD`` is
#: ``np.degrees(x)``, bit for bit: NumPy's ufuncs multiply by the same
#: rounded constants.  The read path uses the multiplies, which cost
#: no NumPy call.
_RAD_PER_DEG = math.pi / 180.0
_DEG_PER_RAD = 180.0 / math.pi


def metres_per_degree(lat_deg: float) -> tuple[float, float]:
    """Local scale factors ``(m per deg longitude, m per deg latitude)``.

    Longitude circles shrink with latitude by ``cos(lat)``; latitude
    spacing is uniform on a sphere.
    """
    # math instead of NumPy: scalar helper on the per-query latency path
    # (query-box construction); libm cos/radians produce the same doubles
    # as the NumPy scalar ufuncs, so derived query boxes are unchanged.
    return (_M_PER_DEG * math.cos(math.radians(float(lat_deg))), _M_PER_DEG)


def displacement(p1: GeoPoint, p2: GeoPoint,
                 paper_formula: bool = False) -> tuple[float, float]:
    """Local East/North displacement from ``p1`` to ``p2`` in metres (Eq. 12).

    Parameters
    ----------
    p1, p2 : GeoPoint
        Start and end fixes; assumed within a few kilometres of each
        other (flat-Earth locally, per the paper's assumption).
    paper_formula : bool
        If True, scale longitude by ``cos((Lng2 - Lng1)/2)`` exactly as
        Eq. 12 prints it; otherwise use ``cos(mean latitude)``.

    Returns
    -------
    (dx, dy) : tuple of float
        Eastward and northward displacement in metres.
    """
    # math instead of NumPy: this sits on the per-frame O(1) hot path of
    # the streaming segmenter, where NumPy scalar overhead dominates.
    dlng = p2.lng - p1.lng
    dlat = p2.lat - p1.lat
    if paper_formula:
        scale = math.cos(math.radians(dlng / 2.0))
    else:
        scale = math.cos(math.radians((p1.lat + p2.lat) / 2.0))
    return (_M_PER_DEG * scale * dlng, _M_PER_DEG * dlat)


def haversine_distance(p1: GeoPoint, p2: GeoPoint) -> float:
    """Great-circle distance in metres on the paper's sphere.

    Reference implementation used to validate the flat projection in
    tests (agreement to <0.1 % over city scales).
    """
    lat1, lat2 = np.radians(p1.lat), np.radians(p2.lat)
    dlat = lat2 - lat1
    dlng = np.radians(p2.lng - p1.lng)
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlng / 2.0) ** 2
    return float(2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(a)))


def radius_to_degrees(radius_m: float, lat_deg: float) -> tuple[float, float]:
    """Convert a metric query radius to (lng, lat) degree half-extents.

    Section V-B: the server converts the query radius ``r`` to longitude
    and latitude scales around ``p`` before building the R-tree query
    rectangle.
    """
    if radius_m < 0.0:
        raise ValueError("radius must be non-negative")
    m_per_deg_lng, m_per_deg_lat = metres_per_degree(lat_deg)
    if m_per_deg_lng < 1e-6 * m_per_deg_lat:
        raise ValueError("query latitude too close to a pole for a lng scale")
    return (radius_m / m_per_deg_lng, radius_m / m_per_deg_lat)


def pairwise_local_xy(origin_lats: np.ndarray | float,
                      origin_lngs: np.ndarray | float,
                      lats: np.ndarray, lngs: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Project point ``i`` into the local plane anchored at origin ``i``.

    One call projects a whole batch of (query origin, candidate) pairs;
    a scalar origin broadcasts, which is how
    :meth:`LocalProjection.to_local_arrays` projects every point into
    one plane.  Every operation is elementwise, so row ``i`` is the same
    doubles whichever way its origin arrived.

    Operands are float64 arrays or plain floats (no conversion is done
    here).  Returns local ``(x=East, y=North)`` metres as two arrays,
    the form the orientation filter and the partitioner consume.
    """
    mid_lat_rad = (origin_lats + lats) / 2.0 * _RAD_PER_DEG
    scale = np.cos(mid_lat_rad)
    return (_M_PER_DEG * scale * (lngs - origin_lngs),
            _M_PER_DEG * (lats - origin_lats))


@dataclass(frozen=True)
class LocalProjection:
    """Equirectangular projection anchored at an origin fix.

    Maps GPS points to local ``(x=East, y=North)`` metres and back.
    One projection instance is shared by a whole trace/dataset so that
    every FoV lands in a consistent plane.
    """

    origin: GeoPoint

    def to_local(self, p: GeoPoint) -> tuple[float, float]:
        """Project one fix to local metres relative to the origin."""
        return displacement(self.origin, p)

    def to_local_arrays(self, lats, lngs) -> np.ndarray:
        """Vectorised projection of arrays of fixes -> (n, 2) metres."""
        return np.stack(pairwise_local_xy(
            self.origin.lat, self.origin.lng,
            np.asarray(lats, dtype=float), np.asarray(lngs, dtype=float)),
            axis=-1)

    def to_geo(self, x: float, y: float) -> GeoPoint:
        """Inverse projection: local metres back to a GPS fix."""
        lat = self.origin.lat + y / _M_PER_DEG
        scale = float(np.cos(np.radians((self.origin.lat + lat) / 2.0)))
        lng = self.origin.lng + x / (_M_PER_DEG * scale)
        return GeoPoint(lat=lat, lng=lng)

    def to_geo_arrays(self, xy) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised inverse projection: (n, 2) metres -> (lats, lngs).

        Exact inverse of :meth:`to_local_arrays` (round-trips to fp
        precision); used by the trace and dataset generators so city-
        scale generation does not pay a Python call per point.
        """
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        lats = self.origin.lat + xy[:, 1] / _M_PER_DEG
        scale = np.cos(np.radians((self.origin.lat + lats) / 2.0))
        lngs = self.origin.lng + xy[:, 0] / (_M_PER_DEG * scale)
        return lats, lngs
