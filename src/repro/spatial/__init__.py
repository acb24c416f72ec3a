"""Spatial indexing substrate: the serving grid and the Section V trees.

The serving path answers from :mod:`repro.spatial.grid` (a flat CSR
cell grid over the degenerate record boxes), with
:mod:`repro.spatial.linear` as the brute-force oracle and the paper's
Fig. 6(c) baseline.  Everything else is the paper's Section V family,
reached only through ``FoVIndex.rtree()`` / ``nearest()`` and the
Fig./ablation benchmarks: :mod:`repro.spatial.rtree` is a from-scratch
Guttman R-tree (ref. [11]) over NumPy-stacked bounding boxes,
:mod:`repro.spatial.bulk` adds Sort-Tile-Recursive bulk loading, and
:mod:`repro.spatial.knn`, :mod:`repro.spatial.metrics`,
:mod:`repro.spatial.hybrid` and :mod:`repro.spatial.intervaltree`
build on it.  Import the submodule you need; this package re-exports
nothing, so importing the grid does not load the trees.
"""
