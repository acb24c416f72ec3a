"""The spatio-temporal FoV index (paper Section V-A).

Each representative FoV ``(p_bar, theta_bar, t_s, t_e)`` is stored as a
*degenerate* 3-D rectangle -- ``min = [lng, lat, t_s]``, ``max = [lng,
lat, t_e]`` -- a vertical segment in (longitude, latitude, time) space.
A query ``Q = (t_s, t_e, p, r)`` becomes a full 3-D box after the
metre radius is converted to local degree scales (Section V-B /
:func:`repro.geo.earth.radius_to_degrees`).

Records live in an append-only column store; the cell grid the servers
answer from and the Section V-A R-tree are views derived from it on
demand.  Neither holds a rank column: the retrieval layer breaks score
ties on the record key only when a result holds one.  The tree family
(:mod:`repro.spatial.rtree` and friends) is imported only inside
:meth:`FoVIndex.rtree`, :meth:`FoVIndex.nearest` and
:meth:`FoVIndex.nearest_bruteforce`, so a process that serves packed
never loads it.  ``backend="linear"`` swaps the store for the
linear-scan baseline of the Fig. 6(c) comparison.
"""

from __future__ import annotations

import hashlib
from itertools import compress
from typing import (TYPE_CHECKING, Iterable, Literal, MutableSequence,
                    NamedTuple, overload)

import numpy as np

from repro.core.camera import CameraModel
from repro.core.fov import (_COLUMNS, RecordColumns, RepresentativeFoV,
                            _MemoRows)
from repro.core.query import Query
from repro.geo.coords import GeoPoint
from repro.geo.earth import metres_per_degree, radius_to_degrees
from repro.spatial.grid import PackedPointGrid
from repro.spatial.linear import LinearScanIndex

if TYPE_CHECKING:
    from repro.spatial.rtree import RTree, RTreeConfig

__all__ = ["Bounds", "ContentMark", "FoVIndex", "PackedFoVIndex",
           "fov_box", "must_fold", "query_box", "query_box_floats"]


def fov_box(fov: RepresentativeFoV) -> tuple[np.ndarray, np.ndarray]:
    """Degenerate 3-D rectangle of one representative FoV (Section V-A)."""
    return (
        np.array([fov.lng, fov.lat, fov.t_start], dtype=float),
        np.array([fov.lng, fov.lat, fov.t_end], dtype=float),
    )


def query_box(query: Query) -> tuple[np.ndarray, np.ndarray]:
    """3-D query rectangle of ``Q = (t_s, t_e, p, r)`` (Section V-B)."""
    bmin0, bmin1, bmin2, bmax0, bmax1, bmax2 = query_box_floats(query)
    return (
        np.array([bmin0, bmin1, bmin2], dtype=float),
        np.array([bmax0, bmax1, bmax2], dtype=float),
    )


def query_box_floats(
        query: Query) -> tuple[float, float, float, float, float, float]:
    """:func:`query_box` corners as six plain floats.

    ``(min_lng, min_lat, min_t, max_lng, max_lat, max_t)`` -- the same
    arithmetic as :func:`query_box` (both derive from this function), so
    every engine tests candidates against bit-identical box corners.
    The packed descents take this form: a single query
    (:meth:`PackedFoVIndex.range_search_ids`) hands the grid plain
    floats and builds no ndarray, and a batch
    (:meth:`PackedFoVIndex.search_many_ids`) stacks one row per query.
    """
    r_lng, r_lat = radius_to_degrees(query.radius, query.center.lat)
    return (query.center.lng - r_lng, query.center.lat - r_lat,
            query.t_start,
            query.center.lng + r_lng, query.center.lat + r_lat,
            query.t_end)


class PackedFoVIndex:
    """Frozen columnar (SoA) snapshot of a :class:`FoVIndex`.

    The read-optimised serving form: parallel ``lat``/``lng``/``theta``/
    ``t_start``/``t_end``/``video_ids``/``segment_ids`` arrays in
    payload order, a :class:`~repro.spatial.grid.PackedPointGrid` CSR
    cell grid answering range queries over the (degenerate) record
    boxes, and ``records``, the same rows as a :class:`RecordColumns`,
    which builds a row's :class:`RepresentativeFoV` only when a result
    asks for it.  The retrieval engine consumes candidates by
    fancy-indexing these columns instead of touching Python attributes
    per candidate, and breaks score ties on ``video_ids`` /
    ``segment_ids`` only when a result window holds one.

    No column is copied: they are ``records``' own, slices of the
    index's column store (:meth:`FoVIndex.packed_view`), the rows of
    ``geom``, its whole C-contiguous ``(5, capacity)`` buffer, cut to
    ``n``.  ``grid`` is built when omitted.

    A view may carry one ``tail``: the columns and ``records`` then span
    every row, while ``grid`` is a base's and covers rows
    ``[:len(grid)]`` only, and ``tail`` is a frozen segment over the
    rows after them -- its own columns and grid.  The searches visit
    both grids and return global row ids, which order tail rows after
    base rows exactly as a full rebuild numbers them.

    ``epoch`` -- ``records.epoch`` -- records the backing index's
    mutation counter at snapshot time; ``FoVIndex.packed_view`` hands
    out a new view when they diverge -- the base plus a tail of the
    rows appended since, or a full rebuild when the fold rule
    (:func:`must_fold`) says so.
    """

    __slots__ = ("records", "lat", "lng", "theta",
                 "t_start", "t_end", "video_ids", "segment_ids",
                 "grid", "epoch", "tail", "geom")

    def __init__(self, records: RecordColumns, *,
                 grid: PackedPointGrid | None = None,
                 tail: PackedFoVIndex | None = None,
                 geom: np.ndarray | None = None) -> None:
        self.records = records
        self.epoch = records.epoch
        self.lat = records.lat
        self.lng = records.lng
        self.theta = records.theta
        self.t_start = records.t_start
        self.t_end = records.t_end
        self.video_ids = records.video_ids
        self.segment_ids = records.segment_ids
        self.grid = (grid if grid is not None
                     else PackedPointGrid.build(self.lng, self.lat,
                                                self.t_start, self.t_end,
                                                self.theta))
        self.tail = tail
        self.geom = geom

    def __len__(self) -> int:
        return len(self.records)

    def range_search_ids(self, query: Query,
                         camera: CameraModel | None = None,
                         tally: MutableSequence[int] | None = None
                         ) -> np.ndarray:
        """Payload ids of records intersecting the query's 3-D box.

        With a ``camera``, only the box hits whose viewing sector for
        that camera can hold the query centre (its sector box does,
        :mod:`repro.spatial.grid`): a superset of the Section V-B
        strict-cover survivors.  ``tally``, when given, is a two-slot
        accumulator to which the box hits and the rows read of both
        grids are added.
        """
        b = query_box_floats(query)
        cover = (None if camera is None else
                 (camera.half_angle, camera.radius,
                  query.center.lng, query.center.lat))
        ids = self.grid.search_ids(b[:3], b[3:], cover, tally)
        if self.tail is None:
            return ids
        more = self.tail.grid.search_ids(b[:3], b[3:], cover, tally)
        if more.size == 0:
            return ids
        return np.concatenate((ids, more + self.grid.n))

    def search_many_ids(self, queries: list[Query],
                        camera: CameraModel | None = None,
                        tally: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Batched range search: ``(query_ids, payload_ids)`` pairs.

        ``query_ids`` comes back sorted, so each query's hits are a
        contiguous run recoverable with ``np.searchsorted``.  ``camera``
        and ``tally`` (a ``(2, len(queries))`` int64 array, one column
        per query) are :meth:`range_search_ids`' per query.
        """
        if not queries:
            return (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
        boxes = np.array([query_box_floats(q) for q in queries], dtype=float)
        cover = None
        if camera is not None:
            centres = np.array([(q.center.lng, q.center.lat)
                                for q in queries], dtype=float)
            cover = (camera.half_angle, camera.radius,
                     centres[:, 0], centres[:, 1])
        qids, ids = self.grid.search_many(boxes[:, :3], boxes[:, 3:],
                                          cover, tally)
        if self.tail is None:
            return qids, ids
        tq, more = self.tail.grid.search_many(boxes[:, :3], boxes[:, 3:],
                                              cover, tally)
        if more.size == 0:
            return qids, ids
        qids = np.concatenate((qids, tq))
        order = np.argsort(qids, kind="stable")
        return qids[order], np.concatenate((ids, more + self.grid.n))[order]


def _checked_geometry(columns: RecordColumns) -> None:
    """Refuse a batch unless every row is indexable.

    Every geometry column must be finite, latitude in ``[-90, 90]``,
    longitude in ``[-180, 180]`` -- what :class:`GeoPoint` accepts, so
    a batch the sharded router cannot place is refused by a single
    server too -- and no segment may end before it starts (what
    :class:`RepresentativeFoV` refuses, so no stored row fails to
    materialise).  Both facades run this before anything lands, which
    is what keeps a batch all-or-nothing; the first offending record is
    named.
    """
    lat, lng = columns.lat, columns.lng
    finite = (np.isfinite(lat) & np.isfinite(lng)
              & np.isfinite(columns.theta) & np.isfinite(columns.t_start)
              & np.isfinite(columns.t_end))
    placed = finite & (np.abs(lat) <= 90.0) & (np.abs(lng) <= 180.0)
    ok = placed & (columns.t_end >= columns.t_start)
    if not bool(ok.all()):
        i = int(np.argmin(ok))
        what = ("non-finite geometry" if not finite[i]
                else "latitude/longitude out of range" if not placed[i]
                else "segment ends before it starts")
        key = (str(columns.video_ids[i]), int(columns.segment_ids[i]))
        raise ValueError(f"{what} in record {key!r}; "
                         f"nothing from this batch was indexed")


class _ColumnStore:
    """Append-only growable parallel columns, plus a record memo.

    The rtree backend's single source of truth: the seven
    :data:`_COLUMNS` the serving path reads, in insertion order, the
    five geometry ones as the rows of one ``(5, capacity)`` matrix.  An
    append copies a batch's columns in, O(batch) amortised (capacity
    doubling); a removal compresses every column with one mask.
    ``_memo`` holds one slot per row: the object a caller handed in,
    else ``None`` until a result asks for it (:class:`_MemoRows`).

    Rows ``[:n]`` of a buffer are never rewritten -- appends fill spare
    capacity or move to a larger buffer, removals compress into fresh
    arrays -- so a :class:`PackedFoVIndex` over ``[:n]`` slices stays
    frozen without copying a column.
    """

    __slots__ = ("token", "_n", "_geom", "_video_ids", "_segment_ids",
                 "_memo")

    def __init__(self, capacity: int = 64) -> None:
        #: Minted here and by every :meth:`compress`, compared with
        #: ``is``: under one token the rows are append-only, so
        #: ``(token, len)`` names a content no other store can share.
        self.token = object()
        self._n = 0
        self._geom = np.empty((5, capacity), dtype=float)
        self._video_ids = np.zeros(capacity, dtype="<U1")
        self._segment_ids = np.empty(capacity, dtype=np.int64)
        self._memo: list[RepresentativeFoV | None] = []

    def __len__(self) -> int:
        return self._n

    def _columns(self, start: int) -> dict[str, np.ndarray]:
        n = self._n
        return dict(zip(_COLUMNS[:5], self._geom[:, start:n]),
                    video_ids=self._video_ids[start:n],
                    segment_ids=self._segment_ids[start:n])

    def rows(self, start: int = 0, epoch: int = 0) -> RecordColumns:
        """Rows ``start:`` as frozen column slices."""
        return RecordColumns(**self._columns(start), epoch=epoch)

    def served(self, epoch: int) -> _MemoRows:
        """Every row, building each record at most once (the memo)."""
        return _MemoRows(self._memo, **self._columns(0), epoch=epoch)

    def boxes(self, start: int) -> tuple[np.ndarray, np.ndarray]:
        """``(mins, maxs)`` of the degenerate 3-D boxes of rows ``start:``."""
        lat, lng, _, t_start, t_end = self._geom[:, start:self._n]
        return (np.column_stack((lng, lat, t_start)),
                np.column_stack((lng, lat, t_end)))

    def append(self, columns: RecordColumns) -> None:
        """Copy ``columns``' rows in after the last row."""
        n, m = self._n, len(columns)
        capacity = self._segment_ids.shape[0]
        vid_dtype = max(columns.video_ids.dtype, self._video_ids.dtype,
                        key=lambda dt: dt.itemsize)
        if n + m > capacity or vid_dtype != self._video_ids.dtype:
            if n + m > capacity:
                capacity = max(2 * capacity, n + m)
            geom_buf = np.empty((5, capacity), dtype=float)
            geom_buf[:, :n] = self._geom[:, :n]
            vid_buf = np.zeros(capacity, dtype=vid_dtype)
            vid_buf[:n] = self._video_ids[:n]
            sid_buf = np.empty(capacity, dtype=np.int64)
            sid_buf[:n] = self._segment_ids[:n]
            self._geom, self._video_ids, self._segment_ids = (
                geom_buf, vid_buf, sid_buf)
        for row, name in enumerate(_COLUMNS[:5]):
            self._geom[row, n:n + m] = getattr(columns, name)
        self._video_ids[n:n + m] = columns.video_ids
        self._segment_ids[n:n + m] = columns.segment_ids
        self._memo += (columns._memo[:m] if isinstance(columns, _MemoRows)
                       else [None] * m)
        self._n = n + m

    def compress(self, keep: np.ndarray) -> None:
        """Drop every row whose ``keep`` flag is false."""
        n = self._n
        self._geom = self._geom[:, :n].compress(keep, axis=1)
        self._video_ids = self._video_ids[:n][keep]
        self._segment_ids = self._segment_ids[:n][keep]
        self._memo = list(compress(self._memo, keep.tolist()))
        self._n = len(self._memo)
        self.token = object()

    def find(self, fov: RepresentativeFoV) -> int:
        """Row of the first record equal to ``fov`` (``-1`` if absent)."""
        c = self.rows()
        rows = np.flatnonzero((c.segment_ids == fov.segment_id)
                              & (c.lat == fov.lat) & (c.lng == fov.lng)
                              & (c.theta == fov.theta)
                              & (c.t_start == fov.t_start)
                              & (c.t_end == fov.t_end)
                              & (c.video_ids == fov.video_id))
        return int(rows[0]) if rows.size else -1


class _TreeView(NamedTuple):
    """A materialised R-tree and the store state it reflects."""

    tree: RTree
    count: int          # records indexed, a prefix of the column store
    token: object       # the store's removal token at build time


class ContentMark(NamedTuple):
    """Which rows an index held: its removal token and row count.

    Within one token rows ``[:count]`` are never rewritten, so a later
    mark with the same token holds them plus an appended tail
    (:meth:`FoVIndex.record_columns`).  The token is a fresh object per
    column store and per removal, compared with ``is``: a mark never
    matches another index, nor the same index after a removal.
    """

    token: object
    count: int


def must_fold(base: ContentMark, mark: ContentMark) -> bool:
    """The fold rule for a base plus one tail of appended rows.

    ``True`` when ``mark`` no longer extends ``base`` -- a removal
    minted a new token -- or when the rows appended since ``base`` have
    reached its row count (so an empty base always folds).  A base is
    then more than half of what it serves, the whole at most doubles
    between folds, and the rebuild work per appended row is O(1)
    amortised.  The serving view (:meth:`FoVIndex.packed_view`) and the
    warm standby (``repro.shard.replica.ReplicaSet.sync_shard``) both
    fold by this one predicate.
    """
    return (mark.token is not base.token
            or mark.count - base.count >= base.count)


class _ServingBase(NamedTuple):
    """The full rebuild that :meth:`FoVIndex.packed_view` extends."""

    mark: ContentMark
    grid: PackedPointGrid


#: Tree catch-up: at this many pending appends the derived R-tree is
#: STR bulk-rebuilt instead of descended per record (a per-record
#: insert costs ~100x a bulk-loaded one) ...
_TREE_REBUILD_MIN = 512
#: ... unless the tree is more than this many times larger than the
#: pending run (rebuilding 1M records to append 1k would be a loss).
_TREE_REBUILD_MAX_RATIO = 64

#: ``(lng_lo, lng_hi, lat_lo, lat_hi, t_lo, t_hi)`` -- axis order matches
#: the 3-D boxes.
Bounds = tuple[float, float, float, float, float, float]


class FoVIndex:
    """Dynamic index of representative FoVs with 3-D range lookup.

    Parameters
    ----------
    backend : {"rtree", "linear"}
        ``"rtree"`` (default) is the paper's design; ``"linear"`` swaps
        in the brute-force baseline with an identical interface.
    rtree_config : RTreeConfig, optional
        Structural parameters for the R-tree backend.

    The rtree backend *stores* records in a column store (growable
    parallel columns, no record objects): a write is an O(batch) copy
    of the batch's columns, and both read-optimised forms are views derived
    from it lazily -- :meth:`packed_view` (columns + cell grid, what
    ``engine="packed"`` serves from) and :meth:`rtree` (the Section V-A
    R-tree, what :meth:`range_search`, :meth:`count_in_range` and
    :meth:`nearest` descend).  A deployment that only serves packed
    never builds a tree.

    Every mutation bumps :attr:`epoch`, which invalidates derived
    read-optimised state (the packed snapshot, server-side result
    caches) without those consumers scanning the index.
    """

    def __init__(self, backend: Literal["rtree", "linear"] = "rtree",
                 rtree_config: RTreeConfig | None = None):
        self.backend = backend
        self._rtree_config = rtree_config
        self._store: _ColumnStore | LinearScanIndex
        if backend == "rtree":
            self._store = _ColumnStore()
        elif backend == "linear":
            if rtree_config is not None:
                raise ValueError("rtree_config only applies to the rtree backend")
            self._store = LinearScanIndex(3)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self._epoch = 0
        self._bounds: Bounds | None = None
        self._packed: PackedFoVIndex | None = None
        self._base: _ServingBase | None = None
        self._tree: _TreeView | None = None

    def __len__(self) -> int:
        return len(self._store)

    @property
    def epoch(self) -> int:
        """Mutation counter; changes whenever indexed content changes."""
        return self._epoch

    def _columns(self, caller: str) -> _ColumnStore:
        if not isinstance(self._store, _ColumnStore):
            raise TypeError(f"{caller} requires the rtree backend")
        return self._store

    def packed_view(self) -> PackedFoVIndex:
        """The current columnar snapshot, a new frozen view per epoch.

        Requires the R-tree backend (the linear baseline keeps no
        columns).  Successive calls between mutations return the same
        object, so a query burst pays for it once.  The view shares the
        column store's arrays; what it derives depends on what changed
        since the last full rebuild, its *base*:

        * only appends, fewer rows than the base holds
          (:func:`must_fold`): the base's grid plus a ``tail`` over the
          rows since, whose own grid is built in O(rows since the
          base) -- no column of the base is copied;
        * a removal, or a tail grown to the base's size: the cell grid
          over every row, which becomes the new base.
        """
        store = self._columns("packed_view()")
        view = self._packed
        if view is not None and view.epoch == self._epoch:
            return view
        mark, base = self.mark, self._base
        rows, geom = store.served(self._epoch), store._geom
        if base is None or must_fold(base.mark, mark):
            view = PackedFoVIndex(rows, geom=geom)
            self._base = _ServingBase(mark, view.grid)
        else:
            view = PackedFoVIndex(
                rows, grid=base.grid, geom=geom,
                tail=PackedFoVIndex(store.rows(base.mark.count, self._epoch)))
        self._packed = view
        return view

    @property
    def mark(self) -> ContentMark:
        """The current :class:`ContentMark` (R-tree backend only)."""
        store = self._columns("mark")
        return ContentMark(store.token, len(store))

    @overload
    def record_columns(self, since: None = None) -> RecordColumns: ...

    @overload
    def record_columns(self, since: ContentMark) -> RecordColumns | None: ...

    def record_columns(self, since: ContentMark | None = None
                       ) -> RecordColumns | None:
        """The rows appended after ``since`` (every row for ``None``).

        ``None`` unless ``since`` carries this store's current token (a
        removal, or a mark taken from another index, leaves nothing to
        extend).  O(1): the columns are frozen slices of the column
        store -- no grid, no record object -- and
        ``epoch`` is the current one.
        """
        store = self._columns("record_columns()")
        start = 0
        if since is not None:
            if since.token is not store.token:
                return None
            start = since.count
        return store.rows(start, self._epoch)

    def rtree(self) -> RTree:
        """The Section V-A R-tree over the current records.

        A derived view like :meth:`packed_view`: materialised on first
        use (one STR bulk load), caught up when only appends happened
        since -- per record, or by a bulk rebuild when the pending run
        is a non-trivial share of the index -- and bulk-rebuilt after a
        removal.  Its payloads are the records, so a tree builds every
        row's object (once: the serving rows' memo keeps it).  Requires
        the R-tree backend.
        """
        store = self._columns("rtree()")
        view, n = self._tree, len(store)
        if view is not None and view.token is not store.token:
            view = None                 # a removal: nothing to catch up from
        if view is not None and view.count == n:
            return view.tree
        from repro.spatial.bulk import str_bulk_load
        pending = n if view is None else n - view.count
        if view is None or (pending >= _TREE_REBUILD_MIN
                            and view.count <= pending * _TREE_REBUILD_MAX_RATIO):
            tree = str_bulk_load(*store.boxes(0),
                                 store.served(self._epoch).take(range(n)),
                                 dim=3, config=self._rtree_config)
        else:
            tree = view.tree
            mins, maxs = store.boxes(view.count)
            fovs = store.served(self._epoch).take(range(view.count, n))
            for i, fov in enumerate(fovs):
                tree.insert(mins[i], maxs[i], fov)
        self._tree = _TreeView(tree, n, store.token)
        return tree

    def _searchable(self) -> RTree | LinearScanIndex:
        if isinstance(self._store, LinearScanIndex):
            return self._store
        return self.rtree()

    def insert(self, fov: RepresentativeFoV) -> None:
        """Index one uploaded representative FoV."""
        self.insert_many((fov,))

    def insert_many(self, fovs: RecordColumns | Iterable[RepresentativeFoV]
                    ) -> int:
        """Index a batch of records atomically; returns the count.

        ``fovs`` is a :class:`RecordColumns` or record objects
        (:meth:`RecordColumns.of`).  The columns are checked *before*
        anything is stored, so a bad record rejects the whole batch
        with the index untouched (no partial bundles), and the epoch
        bumps once for the batch instead of once per record -- one
        cache/packed-view invalidation per commit group, however many
        bundles it merged.

        On the R-tree backend the columns are then copied into the
        column store: O(batch), no tree descent, no record object.
        Derived views catch up when next asked for (:meth:`packed_view`,
        :meth:`rtree`).
        """
        columns = RecordColumns.of(fovs)
        if not len(columns):
            return 0
        _checked_geometry(columns)
        if isinstance(self._store, _ColumnStore):
            self._store.append(columns)
        else:
            mins = np.column_stack((columns.lng, columns.lat,
                                    columns.t_start))
            maxs = np.column_stack((columns.lng, columns.lat, columns.t_end))
            for i, fov in enumerate(columns):
                self._store.insert(mins[i], maxs[i], fov)
        box = (float(columns.lng.min()), float(columns.lng.max()),
               float(columns.lat.min()), float(columns.lat.max()),
               float(columns.t_start.min()), float(columns.t_end.max()))
        old = self._bounds
        self._bounds = box if old is None else (
            min(old[0], box[0]), max(old[1], box[1]),
            min(old[2], box[2]), max(old[3], box[3]),
            min(old[4], box[4]), max(old[5], box[5]))
        self._epoch += 1
        return len(columns)

    def bounds(self) -> Bounds | None:
        """Conservative content box, ``None`` before the first insert.

        ``(lng_lo, lng_hi, lat_lo, lat_hi, t_lo, t_hi)`` over every
        record ever indexed, widened from each batch's columns;
        removals leave it as-is (a stale, wider box still prunes
        safely).
        """
        return self._bounds

    def records(self) -> list[RepresentativeFoV]:
        """Every indexed record (index order; audits and parity checks),
        built afresh from the columns on the R-tree backend."""
        if isinstance(self._store, _ColumnStore):
            return list(self.record_columns())
        return [fov for _, _, fov in self._store.items()]

    def content_digest(self) -> str:
        """Order-independent SHA-256 over the canonical record tuples.

        Two indexes hold bit-identical content iff their digests match,
        regardless of insertion order or backend (coordinates hash as
        the float64 values the column store holds, so a record built
        with ``lat=40`` and one with ``lat=40.0`` agree) -- the convergence
        check for fault-injection and WAL crash-replay runs
        (``repr`` round-trips floats exactly, so equal digests mean
        equal bits, not merely close values).
        """
        canon = sorted(
            (f.video_id, f.segment_id, float(f.lat), float(f.lng),
             float(f.theta), float(f.t_start), float(f.t_end))
            for f in self.records()
        )
        h = hashlib.sha256()
        h.update(repr(canon).encode("utf-8"))
        return h.hexdigest()

    def delete(self, fov: RepresentativeFoV) -> bool:
        """Remove one record (e.g. a provider revoking a contribution)."""
        if isinstance(self._store, _ColumnStore):
            row = self._store.find(fov)
            deleted = row >= 0
            if deleted:
                keep = np.ones(len(self._store), dtype=bool)
                keep[row] = False
                self._store.compress(keep)
        else:
            deleted = self._store.delete(*fov_box(fov), fov)
        if deleted:
            self._epoch += 1
        return deleted

    def evict_older_than(self, cutoff_t: float) -> int:
        """Drop every segment that *ended* before ``cutoff_t``.

        Retention enforcement: a deployment keeps descriptors for a
        bounded window (storage, policy, or provider consent expiry).
        Returns the number of records evicted.
        """
        if isinstance(self._store, _ColumnStore):
            keep = ~(self._store.rows().t_end < cutoff_t)
            evicted = int(keep.size - np.count_nonzero(keep))
            if evicted:
                self._store.compress(keep)
        else:
            victims = [entry for entry in self._store.items()
                       if entry[2].t_end < cutoff_t]
            for bmin, bmax, fov in victims:
                self._store.delete(bmin, bmax, fov)
            evicted = len(victims)
        if evicted:
            self._epoch += 1
        return evicted

    def range_search(self, query: Query) -> list[RepresentativeFoV]:
        """All records whose 3-D rectangles intersect the query box.

        This is the raw R-tree stage; the orientation filter and
        ranking live in :mod:`repro.core.retrieval`.
        """
        bmin, bmax = query_box(query)
        return self._searchable().search(bmin, bmax)

    def count_in_range(self, query: Query) -> int:
        """Number of records the query box intersects."""
        bmin, bmax = query_box(query)
        return self._searchable().count_intersecting(bmin, bmax)

    def nearest(self, center: GeoPoint, t: float, k: int = 10,
                time_weight_m_per_s: float = 0.0
                ) -> list[tuple[float, RepresentativeFoV]]:
        """The k records nearest to ``(center, t)`` -- no radius needed.

        Section V-B notes that picking the query radius trades accuracy
        against efficiency; a k-NN lookup sidesteps the choice.  The
        distance is Euclidean in local metres, optionally plus a
        temporal term: ``time_weight_m_per_s`` converts each second of
        temporal gap (outside the record's ``[t_s, t_e]`` interval) into
        that many metres.  The default 0 ranks purely spatially among
        records regardless of time; pass e.g. ``1.0`` to treat a minute
        of staleness like 60 m of distance.

        Returns ``(distance_m, record)`` pairs sorted ascending.  Only
        available on the R-tree backend (the linear baseline answers
        the same question via :meth:`range_search` sweeps).
        """
        from repro.spatial.knn import knn_search
        m_lng, m_lat = metres_per_degree(center.lat)
        weights = np.array([m_lng, m_lat, time_weight_m_per_s])
        point = np.array([center.lng, center.lat, t])
        return knn_search(self.rtree(), point, k, weights=weights)

    def nearest_bruteforce(self, center: GeoPoint, t: float, k: int = 10,
                           time_weight_m_per_s: float = 0.0
                           ) -> list[tuple[float, RepresentativeFoV]]:
        """Reference O(n) implementation of :meth:`nearest` (tests)."""
        from repro.spatial.knn import mindist
        m_lng, m_lat = metres_per_degree(center.lat)
        weights = np.array([m_lng, m_lat, time_weight_m_per_s])
        point = np.array([center.lng, center.lat, t])
        rows = []
        for item in self.records():
            bmin, bmax = fov_box(item)
            d = float(mindist(point, bmin[None, :], bmax[None, :], weights)[0])
            rows.append((d, item))
        rows.sort(key=lambda r: r[0])
        return rows[:k]

    @classmethod
    def bulk(cls, fovs: RecordColumns | list[RepresentativeFoV],
             rtree_config: RTreeConfig | None = None) -> "FoVIndex":
        """Index a collected dataset in one batch.

        The first :meth:`rtree` use STR bulk-loads the tree over it
        (O(n log n)); a packed deployment never pays for that.
        """
        idx = cls(backend="rtree", rtree_config=rtree_config)
        idx.insert_many(fovs)
        return idx
