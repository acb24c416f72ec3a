"""The NumPy calls one packed single query makes, pinned.

Every ledger read is the packed funnel's ``n = 1`` case, run once per
shard visit, and at a few hundred box hits per visit its cost is the
number of NumPy calls, not the arithmetic they do.  This test counts
those calls for one fixed query on one fixed packed shard and pins the
count, so an array operation added to the read path fails here and a
removed one lowers the pin (docs/PERFORMANCE.md §11 and §12 record the
counts).

What counts as a call, made from the modules the funnel runs in
(:data:`FUNNEL_MODULES`):

* a NumPy function or ufunc reached through the module's ``np`` name:
  a counting stand-in for ``numpy`` is patched in for the count;
* a C method call on an ndarray (``.all``, ``.nonzero``, ``.tolist``,
  ``.item`` ...), from ``sys.setprofile``'s ``c_call`` events whose
  calling frame belongs to one of those modules.

Operators and subscripts (``x * y``, ``a[ids]``) are not calls and
are not counted, nor is anything NumPy's own Python code calls, so the
pin does not move with the NumPy version.

A sharded router query is pinned the same way, on a fixed two-shard
fleet whose query gets rows from both shards: its descent runs once
per shard, and everything after it once per call
(:data:`ROUTER_MODULES` adds the router and its partitioner).  A
``CloudServer`` query, a fleet of one, counts over the same modules and
must make exactly the engine's calls.  A router batch of eight queries
on the same fleet is pinned too: its descent runs once per visit, its
funnel parts are built once per shard, and its rank once per call.
"""

from __future__ import annotations

import importlib
import sys
import types
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator

import numpy as np
import pytest

from repro.core.camera import CameraModel
from repro.core.index import FoVIndex
from repro.core.query import Query
from repro.core.retrieval import RetrievalEngine
from repro.core.server import CloudServer
from repro.shard import ShardedCloudServer
from repro.traces.dataset import random_representative_fovs

#: Where the packed ``n = 1`` funnel runs: the engine, the view and its
#: record columns, the ranker, the projection, the angle helpers and
#: the grid.
FUNNEL_MODULES = ("repro.core.retrieval", "repro.core.index",
                  "repro.core.fov", "repro.core.ranking", "repro.geo.earth",
                  "repro.geometry.angles", "repro.spatial.grid")

#: NumPy calls of one ``execute`` on the fixed shard below.  Lower it
#: when a change removes calls; never raise it to let one in.
PINNED_CALLS = 25

#: Where a router query runs: the funnel's modules, the router and its
#: partitioner.
ROUTER_MODULES = FUNNEL_MODULES + ("repro.shard.server",
                                   "repro.shard.partition")

#: NumPy calls of one router ``query`` on the fixed two-shard fleet
#: below; the same rule as :data:`PINNED_CALLS`.
PINNED_ROUTER_CALLS = 38

#: NumPy calls of one router ``query_many`` of the fixed batch of eight
#: on the same fleet; the same rule as :data:`PINNED_CALLS`.
PINNED_BATCH_CALLS = 264


class _CountingNumpy(types.ModuleType):
    """``numpy`` with every function and ufunc call counted by name."""

    def __init__(self, counts: Counter[str]) -> None:
        super().__init__("numpy")
        self._counts = counts

    def __getattr__(self, name: str):
        attr = getattr(np, name)
        if isinstance(attr, type) or not callable(attr):
            return attr                 # dtypes, classes, constants

        def counted(*args, **kwargs):
            self._counts[f"np.{name}"] += 1
            return attr(*args, **kwargs)
        return counted


@contextmanager
def counting_numpy_calls(where: tuple[str, ...] = FUNNEL_MODULES
                         ) -> Iterator[Counter[str]]:
    """Count the NumPy calls of the modules ``where`` inside the block."""
    counts: Counter[str] = Counter()
    proxy = _CountingNumpy(counts)
    modules = [importlib.import_module(m) for m in where]
    names = set(where)

    def profile(frame, event, arg):
        if (event == "c_call" and isinstance(getattr(arg, "__self__", None),
                                             np.ndarray)
                and frame.f_globals.get("__name__") in names):
            counts[f"ndarray.{arg.__name__}"] += 1

    saved = [m.np for m in modules]
    for m in modules:
        m.np = proxy
    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(None)
        for m, orig in zip(modules, saved):
            m.np = orig


def fixed_engine() -> tuple[RetrievalEngine, Query]:
    """A packed shard of 4 000 seeded records and a whole-horizon query
    on one of them, the shape of a ledger visit (a few hundred box hits,
    a few dozen survivors)."""
    reps = random_representative_fovs(4000, np.random.default_rng(7),
                                      extent_m=500.0)
    engine = RetrievalEngine(FoVIndex.bulk(reps), CameraModel())
    query = Query(t_start=0.0, t_end=86400.0, center=reps[0].point,
                  radius=100.0, top_n=10)
    return engine, query


def count_execute_calls() -> Counter[str]:
    """NumPy calls of one warm ``execute`` of the fixed query."""
    engine, query = fixed_engine()
    engine.execute(query)   # build the view and memo the winning records
    with counting_numpy_calls() as counts:
        engine.execute(query)
    return counts


def test_the_fixed_query_is_a_ledger_sized_visit():
    engine, query = fixed_engine()
    result = engine.execute(query)
    assert 100 <= result.candidates <= 2000
    assert 0 < result.after_filter < result.candidates
    assert len(result.ranked) == query.top_n


def test_single_query_numpy_calls_are_pinned():
    counts = count_execute_calls()
    assert sum(counts.values()) == PINNED_CALLS, sorted(counts.items())


def test_the_counter_sees_an_added_array_call(monkeypatch):
    """Mutation check: one more ufunc in the orientation filter is
    one more counted call."""
    retrieval = sys.modules["repro.core.retrieval"]
    real = retrieval._sector_evidence

    def one_more(camera, strict_cover, x, y, thetas, radii):
        dist, dtheta, covers, keep = real(camera, strict_cover, x, y,
                                          thetas, radii)
        return retrieval.np.abs(dist), dtheta, covers, keep

    monkeypatch.setattr(retrieval, "_sector_evidence", one_more)
    assert sum(count_execute_calls().values()) == PINNED_CALLS + 1


def test_single_server_query_numpy_calls_are_pinned():
    """A ``CloudServer`` is a fleet of one whose read path is the
    engine's ``execute``: its facade adds no NumPy call to it."""
    engine, query = fixed_engine()
    server = CloudServer(CameraModel(), index=engine.index, cache_size=0)
    server.query(query)     # build the view and memo the winning records
    with counting_numpy_calls(ROUTER_MODULES) as counts:
        server.query(query)
    assert sum(counts.values()) == PINNED_CALLS, sorted(counts.items())


def fixed_fleet() -> tuple[ShardedCloudServer, Query]:
    """The fixed shard's records on two shards of 100 m cells, and the
    fixed query: both shards answer it rows."""
    engine, query = fixed_engine()
    server = ShardedCloudServer(CameraModel(), n_shards=2,
                                origin=query.center, cell_m=100.0, seed=1,
                                cache_size=0)
    server.ingest(engine.index.records())
    return server, query


def count_router_calls() -> Counter[str]:
    """NumPy calls of one warm router ``query`` of the fixed query."""
    server, query = fixed_fleet()
    server.query(query)     # build the views and memo the winning records
    with counting_numpy_calls(ROUTER_MODULES) as counts:
        server.query(query)
    return counts


def test_the_fixed_router_query_visits_two_shards_with_rows():
    server, query = fixed_fleet()
    engine, _ = fixed_engine()
    for shard in server.shards:
        part = RetrievalEngine(shard, server.camera).execute(query)
        assert part.candidates > 0 and part.after_filter > 0
    got, want = server.query(query), engine.execute(query)
    assert got[:4] == want[:4]      # all but elapsed_s


def test_two_shard_router_numpy_calls_are_pinned():
    counts = count_router_calls()
    assert sum(counts.values()) == PINNED_ROUTER_CALLS, sorted(counts.items())


def fixed_batch() -> tuple[ShardedCloudServer, list[Query]]:
    """The fixed fleet, and eight queries shaped like the fixed query,
    centred on the first eight of its records."""
    server, query = fixed_fleet()
    engine, _ = fixed_engine()
    return server, [replace(query, center=fov.point)
                    for fov in engine.index.records()[:8]]


def test_the_fixed_batch_visits_both_shards_and_fills_every_answer():
    server, batch = fixed_batch()
    visited = server._fanout.sum
    results = server.query_many(batch)
    assert server._fanout.sum - visited == 2 * len(batch)
    assert all(len(r.ranked) == r.query.top_n for r in results)


def test_router_batch_numpy_calls_are_pinned():
    server, batch = fixed_batch()
    server.query_many(batch)    # build the views and memo the winners
    with counting_numpy_calls(ROUTER_MODULES) as counts:
        server.query_many(batch)
    assert sum(counts.values()) == PINNED_BATCH_CALLS, sorted(counts.items())


@pytest.mark.parametrize("module", ROUTER_MODULES)
def test_every_funnel_module_is_patchable(module):
    """The count is only as good as its patch list: each module must
    still reach NumPy through a module-level ``np``."""
    assert importlib.import_module(module).np is np
