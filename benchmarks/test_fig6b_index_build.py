"""Fig. 6(b) -- index construction time vs number of records.

The paper inserts up to 20,000 randomly simulated citywide
representative FoVs and reports <= 20 s total, i.e. about a millisecond
per incoming record on a laptop.  The reproduction sweeps the same
sizes on the from-scratch R-tree, and also reports STR bulk loading for
contrast.

``FoVIndex`` stores records in columns and derives the R-tree lazily,
so both timings force the tree through ``FoVIndex.rtree()``: with a
materialised tree every ``insert`` is caught up by one descent, which
is the paper's per-record build.
"""

import numpy as np
import pytest

from repro.core.index import FoVIndex
from repro.eval.harness import Table, time_call
from repro.traces.dataset import random_representative_fovs

SIZES = [2_000, 5_000, 10_000, 20_000]


def _insert_into_tree(idx: FoVIndex, fov) -> None:
    """One append plus the materialised tree's one-record catch-up."""
    idx.insert(fov)
    idx.rtree()


def _build_incrementally(subset) -> FoVIndex:
    idx = FoVIndex()
    idx.rtree()
    for fov in subset:
        _insert_into_tree(idx, fov)
    return idx


def test_fig6b_incremental_build(benchmark, show):
    rng = np.random.default_rng(2015)
    reps = random_representative_fovs(SIZES[-1], rng)

    table = Table("Fig. 6(b) -- index setup time",
                  ["records", "insert total (s)", "per record (ms)",
                   "bulk load (s)"])
    per_record_ms = []
    for n in SIZES:
        subset = reps[:n]
        t_inc, idx = time_call(lambda: _build_incrementally(subset))
        t_blk, _ = time_call(lambda: FoVIndex.bulk(subset).rtree())
        per_record_ms.append(t_inc / n * 1e3)
        table.add(n, round(t_inc, 3), round(t_inc / n * 1e3, 4),
                  round(t_blk, 3))
        assert len(idx.rtree()) == n
    show(table)

    # Paper claims: 20k inserts in <= 20 s => <= 1 ms per record.  Our
    # vectorised tree is comfortably inside that envelope.
    assert per_record_ms[-1] < 1.0, \
        f"insert cost {per_record_ms[-1]:.3f} ms exceeds the paper's 1 ms"

    # Amortised insert cost: one record into a 20k-record tree.
    big = FoVIndex.bulk(reps)
    big.rtree()
    extra = random_representative_fovs(512, np.random.default_rng(77))
    it = iter(extra * 1000)
    benchmark(lambda: _insert_into_tree(big, next(it)))
