"""Query and result types (paper Sections II-C and V-B).

An inquirer asks ``Q = (t_s, t_e, p, r)``: all videos covering the
circular area centred at ``p`` with radius ``r`` during ``[t_s, t_e]``.
The server answers with a relevance-ranked list of representative FoVs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple

from repro.core.fov import RepresentativeFoV
from repro.geo.coords import GeoPoint

__all__ = ["Query", "RankedFoV", "QueryResult", "AREA_RADII"]

#: Empirical radii of view per environment (Section V-B item 1), metres.
AREA_RADII = {
    "residential": 20.0,
    "urban": 50.0,
    "highway": 100.0,
}


@dataclass(frozen=True, slots=True)
class Query:
    """Spatio-temporal range request ``Q = (t_s, t_e, p, r)``.

    Parameters
    ----------
    t_start, t_end : float
        Requested time interval, seconds; ``t_start <= t_end``.
    center : GeoPoint
        Centre ``p`` of the circular query area.
    radius : float
        Radius ``r`` in metres, ``> 0``.  :data:`AREA_RADII` holds the
        paper's empirical presets.
    top_n : int
        Maximum number of results to return (Section V-B item 4).
    """

    t_start: float
    t_end: float
    center: GeoPoint
    radius: float
    top_n: int = 10

    def __post_init__(self) -> None:
        # NaN and +-inf pass every ordered comparison below, then break
        # the engines differently (overflow on binning, or a silently
        # empty sharded answer), so they are refused here.
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError(
                f"query interval must be finite, got "
                f"[{self.t_start}, {self.t_end}]")
        if not math.isfinite(self.radius):
            raise ValueError(f"query radius must be finite, got {self.radius}")
        if self.t_end < self.t_start:
            raise ValueError(
                f"query interval ends ({self.t_end}) before it starts ({self.t_start})"
            )
        if self.radius <= 0.0:
            raise ValueError(f"query radius must be positive, got {self.radius}")
        if self.top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {self.top_n}")

    @classmethod
    def for_area(cls, t_start: float, t_end: float, center: GeoPoint,
                 area: str = "urban", top_n: int = 10) -> "Query":
        """Build a query with the paper's empirical radius for an area type."""
        try:
            radius = AREA_RADII[area]
        except KeyError:
            raise ValueError(
                f"unknown area type {area!r}; choose from {sorted(AREA_RADII)}"
            ) from None
        return cls(t_start=t_start, t_end=t_end, center=center,
                   radius=radius, top_n=top_n)


class RankedFoV(NamedTuple):
    """One result row: a representative FoV with its ranking evidence.

    ``distance`` is the metre distance from the FoV position to the
    query centre (the ranking key, Section V-B items 2-3); ``covers``
    records whether the FoV's viewing sector actually covers the query
    centre (the orientation filter's predicate).  ``score`` is the
    ranker's higher-is-better value for this row -- result lists are
    ordered by ``(-score, fov.key())``, which is what lets the sharded
    router's one sort over every shard's rows reproduce exactly the
    single-server ranking (docs/SHARDING.md).

    A ``NamedTuple`` rather than a frozen dataclass: the packed funnel
    materialises one of these per returned row, inside the
    single-query latency budget when the batch is one query, and tuple
    construction skips the per-field ``object.__setattr__`` a frozen
    dataclass pays.
    """

    fov: RepresentativeFoV
    distance: float
    covers: bool
    score: float = 0.0


class _QueryResultFields(NamedTuple):
    query: Query
    ranked: list[RankedFoV] = []
    candidates: int = 0
    after_filter: int = 0
    elapsed_s: float = 0.0


class QueryResult(_QueryResultFields):
    """Ranked answer plus the funnel counters the evaluation reports.

    ``candidates`` is how many index entries the range search returned;
    ``after_filter`` how many survived the orientation filter;
    ``elapsed_s`` the server-side wall time of the whole lookup.
    (``NamedTuple`` fields for the same construction-cost reason as
    :class:`RankedFoV` -- one is built per query on the latency path.)

    ``len(result)`` is the number of ranked rows, not of fields.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.ranked)

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "QueryResult":
        # The generated _make (which _replace goes through) checks
        # len(result) against the field count; with __len__ meaning
        # ranked rows that raises "Expected 5 arguments, got 0".
        return cls(*iterable)

    def fovs(self) -> list[RepresentativeFoV]:
        """The ranked records, best first."""
        return [r.fov for r in self.ranked]

    def keys(self) -> list[tuple[str, int]]:
        """Ranked ``(video_id, segment_id)`` keys, best first."""
        return [r.fov.key() for r in self.ranked]
