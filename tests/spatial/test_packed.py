"""Unit tests for the packed grid's range-expansion helper."""

import numpy as np

from repro.spatial.grid import _expand_ranges


class TestExpandRanges:
    def test_matches_naive(self, rng):
        starts = rng.integers(0, 50, 20)
        counts = rng.integers(0, 6, 20)
        want = np.concatenate(
            [np.arange(s, s + c) for s, c in zip(starts, counts)]
        ) if counts.sum() else np.empty(0, dtype=np.intp)
        got = _expand_ranges(starts.astype(np.intp), counts.astype(np.intp))
        assert np.array_equal(got, want)

    def test_empty(self):
        assert _expand_ranges(np.empty(0, dtype=np.intp),
                              np.empty(0, dtype=np.intp)).size == 0
