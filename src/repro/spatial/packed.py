"""Frozen structure-of-arrays (SoA) snapshot of an R-tree.

The dynamic :class:`~repro.spatial.rtree.RTree` is built for inserts:
every node owns its own little NumPy stacks and search descends through
Python objects node by node.  That is the right shape for ingest, but a
serving path answering heavy read traffic wants the opposite trade:
freeze the tree once, pack every level into contiguous arrays, and let
each query -- or a whole *batch* of queries -- be answered by a handful
of vectorised passes, one per tree level, with no per-node Python
dispatch at all.

Layout
------
Nodes are packed level by level (root first).  Level ``l`` stores the
*entries* of all its nodes concatenated in node order:

* ``mins``/``maxs`` -- ``(E_l, d)`` entry bounding boxes;
* ``offsets`` -- ``(N_l + 1,)`` so node ``j`` owns rows
  ``offsets[j]:offsets[j+1]``.

Because level ``l + 1``'s nodes are packed in the entry order of level
``l``, the child *node* index of entry row ``e`` is simply ``e`` -- no
pointer arrays are needed.  At the leaf level, entry row ``e`` is the
payload id: ``items[e]`` is the stored object, and callers keep any
columnar side tables of their own aligned to the same row order.  (The
serving path no longer packs a tree: ``repro.core.index.PackedFoVIndex``
is built straight from the index's columns and searches a
:class:`~repro.spatial.grid.PackedPointGrid`.)

Search therefore never recurses: a frontier of candidate rows is
refined level by level, and :meth:`PackedRTree.search_many` carries a
``(query_id, row)`` frontier for an entire batch through each level in
one comparison per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, Sequence

import numpy as np

from repro.spatial.rtree import RTree

__all__ = ["PackedLevel", "PackedRTree", "SearchObserver"]


class SearchObserver(Protocol):
    """Descent statistics sink for packed searches.

    The spatial layer stays dependency-free: it only *calls* this
    protocol when a caller passes an observer into a search, and the
    observability subsystem provides the registry-backed implementation
    (``repro.obs.runtime.PackedSearchRecorder``).  Recording must not
    mutate search state; observers see, per level, how many entry
    boxes entered the overlap test (the frontier width) and how many
    survived.  No clock is involved, so observed searches replay
    bit-identically (RF005).
    """

    def on_descent(self, queries: int) -> None:
        """One search started, covering ``queries`` query boxes."""
        ...

    def on_level(self, level: int, tested: int, matched: int) -> None:
        """One level pass tested ``tested`` entries; ``matched`` survived."""
        ...


@dataclass(frozen=True)
class PackedLevel:
    """One tree level: all node entries concatenated, node-major.

    ``mins``/``maxs`` are ``(E, d)`` entry boxes; ``offsets`` is
    ``(N + 1,)`` with node ``j`` owning entry rows
    ``offsets[j]:offsets[j+1]``.
    """

    mins: np.ndarray
    maxs: np.ndarray
    offsets: np.ndarray

    @property
    def n_entries(self) -> int:
        return int(self.mins.shape[0])

    @property
    def n_nodes(self) -> int:
        return int(self.offsets.shape[0]) - 1


def _expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s + c) for s, c in zip(starts, counts)]``
    without a Python loop (the gather step of each level pass)."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    exclusive = np.cumsum(counts) - counts
    return np.repeat(starts - exclusive, counts) + np.arange(total)


class PackedRTree:
    """Read-only, fully vectorised snapshot of an :class:`RTree`.

    Build one with :meth:`from_rtree` after ingest (or after a batch of
    updates -- the snapshot is cheap relative to answering a query
    burst) and route reads through :meth:`search_ids` /
    :meth:`search_many`.  The snapshot does not observe later tree
    mutations; owners tag snapshots with an epoch and rebuild when the
    backing tree changes.
    """

    __slots__ = ("dim", "levels", "items", "_fused")

    def __init__(self, dim: int, levels: Sequence[PackedLevel],
                 items: Sequence[Any]) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if not levels:
            raise ValueError("a packed tree needs at least one level")
        self.dim = dim
        self.levels = tuple(levels)
        self.items = list(items)
        if self.levels[-1].n_entries != len(self.items):
            raise ValueError(
                f"{len(self.items)} items for "
                f"{self.levels[-1].n_entries} leaf entries"
            )
        # Fused per-level bounds ``[mins, -maxs]``: an entry overlaps a
        # query box iff ``mins <= bmax`` and ``maxs >= bmin``, i.e. iff
        # ``[mins, -maxs] <= [bmax, -bmin]`` elementwise (float negation
        # is exact).  Each level pass is then ONE compare + ONE
        # reduction over the frontier instead of two passes per
        # dimension with compression in between.
        self._fused = tuple(
            np.ascontiguousarray(np.concatenate([lvl.mins, -lvl.maxs],
                                                axis=1))
            for lvl in self.levels)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def height(self) -> int:
        """Number of levels (1 = a single leaf root)."""
        return len(self.levels)

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_rtree(cls, tree: RTree) -> "PackedRTree":
        """Pack a dynamic tree into the level-order SoA layout.

        Runs one breadth-first pass; children are appended in entry-row
        order so the implicit ``child(e) = e`` mapping holds.
        """
        dim = tree.dim
        levels: list[PackedLevel] = []
        items: list[Any] = []
        nodes = [tree.root]
        while True:
            offsets = np.empty(len(nodes) + 1, dtype=np.intp)
            offsets[0] = 0
            mins_parts: list[np.ndarray] = []
            maxs_parts: list[np.ndarray] = []
            next_nodes: list[Any] = []
            leaf = nodes[0].leaf
            for j, node in enumerate(nodes):
                m = node.n
                offsets[j + 1] = offsets[j] + m
                mins_parts.append(node.mins[:m])
                maxs_parts.append(node.maxs[:m])
                if leaf:
                    items.extend(node.children[:m])
                else:
                    next_nodes.extend(node.children[:m])
            if mins_parts:
                mins = np.ascontiguousarray(np.concatenate(mins_parts))
                maxs = np.ascontiguousarray(np.concatenate(maxs_parts))
            else:   # pragma: no cover - the root always exists
                mins = np.empty((0, dim), dtype=float)
                maxs = np.empty((0, dim), dtype=float)
            levels.append(PackedLevel(mins=mins, maxs=maxs, offsets=offsets))
            if leaf:
                break
            nodes = next_nodes
        return cls(dim, levels, items)

    # ------------------------------------------------------------------
    # search

    def _check_box(self, box_min: Any, box_max: Any
                   ) -> tuple[np.ndarray, np.ndarray]:
        bmin = np.asarray(box_min, dtype=float).reshape(-1)
        bmax = np.asarray(box_max, dtype=float).reshape(-1)
        if bmin.shape != (self.dim,) or bmax.shape != (self.dim,):
            raise ValueError(f"box must have dimension {self.dim}")
        if np.any(bmin > bmax):
            raise ValueError("box min exceeds max")
        return bmin, bmax

    def search_ids(self, box_min: Any, box_max: Any,
                   observer: SearchObserver | None = None) -> np.ndarray:
        """Payload row ids intersecting the (closed) query box.

        One vectorised overlap test per level; returns leaf entry rows
        (``items`` indices) in level-order position.  ``observer``
        (optional) receives per-level frontier statistics.
        """
        bmin, bmax = self._check_box(box_min, box_max)
        qf = np.concatenate([bmax, -bmin])
        lvl0 = self.levels[0]
        rows = np.flatnonzero((self._fused[0] <= qf).all(axis=-1))
        if observer is not None:
            observer.on_descent(1)
            observer.on_level(0, lvl0.n_entries, int(rows.size))
        for li, lvl in enumerate(self.levels[1:], start=1):
            if rows.size == 0:
                return rows.astype(np.intp)
            starts = lvl.offsets[rows]
            counts = lvl.offsets[rows + 1] - starts
            cand = _expand_ranges(starts, counts)
            frontier = int(cand.size)
            # Whole-frontier fused box test: one gather, one compare,
            # one reduction (see the ``_fused`` layout note above).
            rows = cand[(self._fused[li][cand] <= qf).all(axis=1)]
            if observer is not None:
                observer.on_level(li, frontier, int(rows.size))
        return rows.astype(np.intp)

    def search(self, box_min: Any, box_max: Any) -> list[Any]:
        """All stored items intersecting the query box (cf. RTree.search)."""
        return [self.items[i] for i in self.search_ids(box_min, box_max)]

    def search_many(self, boxes_min: Any, boxes_max: Any,
                    observer: SearchObserver | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Answer a whole batch of range queries per tree level.

        Parameters
        ----------
        boxes_min, boxes_max : array-like, shape (Q, d)
            The batch's query boxes.
        observer : SearchObserver, optional
            Receives per-level frontier statistics over the combined
            ``(query, entry)`` frontier.

        Returns
        -------
        (query_ids, payload_ids) : tuple of ndarray
            Parallel arrays of hits.  ``query_ids`` is sorted
            ascending, so query ``q``'s hits are the contiguous run
            ``np.searchsorted(query_ids, [q, q + 1])`` -- per-query
            result sets identical to :meth:`search_ids`.

        The whole batch advances through the tree together: each level
        costs one gather plus one vectorised box-overlap pass over the
        combined ``(query, node)`` frontier, so Python overhead is
        O(height), not O(queries x nodes).
        """
        bmins = np.atleast_2d(np.asarray(boxes_min, dtype=float))
        bmaxs = np.atleast_2d(np.asarray(boxes_max, dtype=float))
        if bmins.shape != bmaxs.shape or bmins.shape[1] != self.dim:
            raise ValueError(f"query boxes must have shape (Q, {self.dim})")
        if np.any(bmins > bmaxs):
            raise ValueError("box min exceeds max")
        qf = np.concatenate([bmaxs, -bmins], axis=1)
        hit0 = (self._fused[0][None, :, :] <= qf[:, None, :]).all(axis=-1)
        qids, rows = np.nonzero(hit0)
        if observer is not None:
            observer.on_descent(int(bmins.shape[0]))
            observer.on_level(0, int(hit0.size), int(rows.size))
        for li, lvl in enumerate(self.levels[1:], start=1):
            if rows.size == 0:
                break
            starts = lvl.offsets[rows]
            counts = lvl.offsets[rows + 1] - starts
            cand = _expand_ranges(starts, counts)
            cqid = np.repeat(qids, counts)
            frontier = int(cand.size)
            # Whole-frontier fused test per level; `nonzero` of the
            # row-major root mask keeps ``cqid`` sorted, and boolean
            # masking preserves that.
            keep = (self._fused[li][cand] <= qf[cqid]).all(axis=1)
            qids, rows = cqid[keep], cand[keep]
            if observer is not None:
                observer.on_level(li, frontier, int(rows.size))
        return qids.astype(np.intp), rows.astype(np.intp)

    def count_intersecting(self, box_min: Any, box_max: Any) -> int:
        """Number of items intersecting the query box."""
        return int(self.search_ids(box_min, box_max).size)
