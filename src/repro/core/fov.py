"""FoV descriptor types: frames, traces, segments, representatives.

The descriptor itself is the 2-tuple ``f = (p, theta)`` of Eq. 1; the
client pipeline tags each with the frame timestamp, producing the
``(t_i, p_i, theta_i)`` records of Section II-C.  :class:`FoVTrace` is
the columnar (structure-of-arrays) form all vectorised kernels consume;
:class:`RepresentativeFoV` is the record actually uploaded and indexed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro._types import ArrayLike
from repro.geo.coords import GeoPoint
from repro.geo.earth import LocalProjection

__all__ = ["FoV", "FoVTrace", "VideoSegment", "RepresentativeFoV",
           "RecordColumns"]


@dataclass(frozen=True, slots=True)
class FoV:
    """One per-frame record ``(t, p, theta)``.

    Parameters
    ----------
    t : float
        Frame timestamp, seconds (global clock, Section VI-A).
    lat, lng : float
        GPS fix in decimal degrees.
    theta : float
        Compass azimuth of the camera, degrees in ``[0, 360)``.
    """

    t: float
    lat: float
    lng: float
    theta: float

    @property
    def point(self) -> GeoPoint:
        return GeoPoint(lat=self.lat, lng=self.lng)


class FoVTrace:
    """Columnar sequence of FoV records for one continuous recording.

    Stores parallel float64 arrays ``t``, ``lat``, ``lng``, ``theta``
    (azimuth normalised to ``[0, 360)``); timestamps must be strictly
    increasing.  The trace owns a :class:`LocalProjection` anchored at
    its first fix so the similarity/segmentation kernels can work in a
    consistent local plane via :meth:`local_xy`.
    """

    __slots__ = ("t", "lat", "lng", "theta", "_projection", "_xy")

    def __init__(self, t: ArrayLike, lat: ArrayLike, lng: ArrayLike,
                 theta: ArrayLike,
                 projection: LocalProjection | None = None) -> None:
        self.t = np.ascontiguousarray(t, dtype=float)
        self.lat = np.ascontiguousarray(lat, dtype=float)
        self.lng = np.ascontiguousarray(lng, dtype=float)
        self.theta = np.mod(np.ascontiguousarray(theta, dtype=float), 360.0)
        n = self.t.shape[0]
        for name, arr in (("lat", self.lat), ("lng", self.lng), ("theta", self.theta)):
            if arr.shape != (n,):
                raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")
        if n == 0:
            raise ValueError("an FoV trace must contain at least one record")
        if n > 1 and not np.all(np.diff(self.t) > 0):
            raise ValueError("timestamps must be strictly increasing")
        for name, arr in (("t", self.t), ("lat", self.lat),
                          ("lng", self.lng), ("theta", self.theta)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(
                    f"{name} contains non-finite values -- a NaN sensor "
                    f"reading must be dropped before it reaches the trace"
                )
        if projection is None:
            projection = LocalProjection(GeoPoint(lat=float(self.lat[0]),
                                                  lng=float(self.lng[0])))
        self._projection = projection
        self._xy: np.ndarray | None = None

    # -- construction ------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[FoV],
                     projection: LocalProjection | None = None) -> "FoVTrace":
        recs = list(records)
        if not recs:
            raise ValueError("an FoV trace must contain at least one record")
        return cls(
            t=[r.t for r in recs],
            lat=[r.lat for r in recs],
            lng=[r.lng for r in recs],
            theta=[r.theta for r in recs],
            projection=projection,
        )

    @classmethod
    def from_local(cls, t, xy, theta, projection: LocalProjection) -> "FoVTrace":
        """Build a trace from local-metre positions (used by simulators)."""
        lats, lngs = projection.to_geo_arrays(np.asarray(xy, dtype=float))
        return cls(t=t, lat=lats, lng=lngs, theta=theta,
                   projection=projection)

    # -- container protocol -------------------------------------------

    def __len__(self) -> int:
        return int(self.t.shape[0])

    def __getitem__(self, i: int) -> FoV:
        return FoV(t=float(self.t[i]), lat=float(self.lat[i]),
                   lng=float(self.lng[i]), theta=float(self.theta[i]))

    def __iter__(self) -> Iterator[FoV]:
        for i in range(len(self)):
            yield self[i]

    def slice(self, start: int, stop: int) -> "FoVTrace":
        """Contiguous sub-trace ``[start, stop)`` sharing the projection."""
        if not 0 <= start < stop <= len(self):
            raise IndexError(f"invalid slice [{start}, {stop}) of {len(self)} records")
        return FoVTrace(self.t[start:stop], self.lat[start:stop],
                        self.lng[start:stop], self.theta[start:stop],
                        projection=self._projection)

    # -- geometry ------------------------------------------------------

    @property
    def projection(self) -> LocalProjection:
        return self._projection

    def local_xy(self) -> np.ndarray:
        """Positions projected to local metres, shape ``(n, 2)`` (cached)."""
        if self._xy is None:
            self._xy = self._projection.to_local_arrays(self.lat, self.lng)
        return self._xy

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])


@dataclass(frozen=True)
class VideoSegment:
    """One output unit of Algorithm 1: a contiguous run of similar FoVs.

    ``start``/``stop`` index the parent trace (half-open); ``t_start`` /
    ``t_end`` are the wall-clock bounds the paper calls ``t_s`` / ``t_e``.
    """

    trace: FoVTrace
    start: int
    stop: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop <= len(self.trace):
            raise ValueError(
                f"segment [{self.start}, {self.stop}) out of bounds for "
                f"trace of length {len(self.trace)}"
            )

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def t_start(self) -> float:
        return float(self.trace.t[self.start])

    @property
    def t_end(self) -> float:
        return float(self.trace.t[self.stop - 1])

    def fovs(self) -> FoVTrace:
        """The segment's records as a sub-trace."""
        return self.trace.slice(self.start, self.stop)


@dataclass(frozen=True, slots=True)
class RepresentativeFoV:
    """The uploaded/indexed record: ``(p_bar, theta_bar, t_s, t_e)`` plus ids.

    ``video_id`` identifies the source recording on the contributing
    device; ``segment_id`` is its ordinal within that recording.  The
    pair lets the server ask exactly one client for exactly one segment
    (the traffic-saving point of Section IV).
    """

    lat: float
    lng: float
    theta: float
    t_start: float
    t_end: float
    video_id: str = ""
    segment_id: int = 0

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise ValueError(
                f"segment ends ({self.t_end}) before it starts ({self.t_start})"
            )

    @property
    def point(self) -> GeoPoint:
        return GeoPoint(lat=self.lat, lng=self.lng)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def key(self) -> tuple[str, int]:
        """Stable identity ``(video_id, segment_id)`` used system-wide."""
        return (self.video_id, self.segment_id)


#: The columns of a :class:`RecordColumns`, in ``RepresentativeFoV``
#: field order (so a row's values are that record's positional args).
_COLUMNS = ("lat", "lng", "theta", "t_start", "t_end", "video_ids",
            "segment_ids")


class RecordColumns(Sequence[RepresentativeFoV]):
    """A frozen run of records as seven parallel columns plus an epoch.

    The one form records take from the wire to the index: a commit
    group, a shard's slice of it, the column store's rows, a snapshot
    (slices of the store, or ``np.frombuffer`` views of a ``FOVPACK1``
    buffer).  As a sequence it builds a :class:`RepresentativeFoV` per
    row only when one is read.  The attributes cannot be rebound.
    """

    __slots__ = _COLUMNS + ("epoch",)
    lat: np.ndarray
    lng: np.ndarray
    theta: np.ndarray
    t_start: np.ndarray
    t_end: np.ndarray
    video_ids: np.ndarray
    segment_ids: np.ndarray
    epoch: int

    def __init__(self, *, lat: np.ndarray, lng: np.ndarray,
                 theta: np.ndarray, t_start: np.ndarray, t_end: np.ndarray,
                 video_ids: np.ndarray, segment_ids: np.ndarray,
                 epoch: int = 0) -> None:
        for name, value in zip(RecordColumns.__slots__,
                               (lat, lng, theta, t_start, t_end, video_ids,
                                segment_ids, epoch)):
            object.__setattr__(self, name, value)

    @staticmethod
    def of(fovs: RecordColumns | Iterable[RepresentativeFoV]
           ) -> RecordColumns:
        """``fovs`` as columns: itself, or one pass over the objects,
        which are kept as the rows' records (:class:`_MemoRows`).

        Refuses a video id containing NUL (``ValueError``): a unicode
        column drops trailing NULs, so the id would not survive.
        """
        if isinstance(fovs, RecordColumns):
            return fovs
        recs = list(fovs)
        ids = [f.video_id for f in recs]
        if "\x00" in "".join(set(ids)):
            raise ValueError("a video id contains NUL; nothing from this "
                             "batch was indexed")
        n = len(recs)
        geom = np.empty((5, n))
        for row, name in enumerate(_COLUMNS[:5]):
            geom[row] = np.fromiter(map(attrgetter(name), recs), float, n)
        return _MemoRows(recs, lat=geom[0], lng=geom[1], theta=geom[2],
                         t_start=geom[3], t_end=geom[4],
                         video_ids=np.array(ids, dtype=str),
                         segment_ids=np.fromiter(
                             map(attrgetter("segment_id"), recs), np.int64, n))

    @staticmethod
    def concat(parts: Sequence[RecordColumns]) -> RecordColumns:
        """The rows of ``parts`` (at least one) end to end."""
        return RecordColumns(**{name: np.concatenate([getattr(p, name)
                                                      for p in parts])
                                for name in _COLUMNS})

    def select(self, which: slice | np.ndarray) -> RecordColumns:
        """The rows ``which`` picks: a slice, or an array of row numbers."""
        return RecordColumns(**self._picked(which), epoch=self.epoch)

    def _picked(self, which: slice | np.ndarray) -> dict[str, np.ndarray]:
        return {name: getattr(self, name)[which] for name in _COLUMNS}

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"RecordColumns is frozen: cannot set {name!r}")

    def __len__(self) -> int:
        return int(self.lat.shape[0])

    def __getitem__(self, i):
        rows = range(len(self))[i]
        if isinstance(rows, range):
            return self.take(rows)
        return self.take((rows,))[0]

    def __iter__(self) -> Iterator[RepresentativeFoV]:
        return iter(self.take(range(len(self))))

    def take(self, at: Sequence[int]) -> list[RepresentativeFoV]:
        """The records at rows ``at`` (non-negative), one gather per
        column."""
        idx = np.asarray(at, dtype=np.intp)
        return [RepresentativeFoV(*row) for row in zip(
            *(getattr(self, name)[idx].tolist() for name in _COLUMNS))]


class _MemoRows(RecordColumns):
    """Columns plus the record objects already built for their rows.

    ``memo[i]`` is row ``i``'s :class:`RepresentativeFoV`, or ``None``
    until a result asks for it; it is then built once and kept.  The
    memo is the caller's objects (:meth:`RecordColumns.of`) or the
    column store's list, which only grows (a removal gives the store a
    new one), so it may run past the columns and needs no lock to fill.
    """

    __slots__ = ("_memo",)

    def __init__(self, memo: list[RepresentativeFoV | None],
                 **columns: Any) -> None:
        super().__init__(**columns)
        object.__setattr__(self, "_memo", memo)

    def select(self, which: slice | np.ndarray) -> RecordColumns:
        memo = (self._memo[which] if isinstance(which, slice)
                else [self._memo[i] for i in which.tolist()])
        return _MemoRows(memo, **self._picked(which), epoch=self.epoch)

    def take(self, at: Sequence[int]) -> list[RepresentativeFoV]:
        memo = self._memo
        out = [memo[i] for i in at]
        miss = [j for j, fov in enumerate(out) if fov is None]
        if miss:
            build = [at[j] for j in miss]
            for j, i, fov in zip(miss, build, super().take(build)):
                out[j] = memo[i] = fov
        return out
