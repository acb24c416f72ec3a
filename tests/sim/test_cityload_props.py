"""Property tests for the Zipf hotspot-popularity model.

Raising the exponent monotonically concentrates mass on the
top-ranked hotspot (the Lu & Colmenares POI skew model the perf
ledger's hotspot map draws from), and out-of-range arguments are
refused.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import zipf_weights


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 64),
       exponents=st.lists(st.floats(0.0, 4.0, allow_nan=False),
                          min_size=2, max_size=6))
def test_zipf_exponent_concentrates_top_cell(n, exponents):
    """Top-rank mass is monotone non-decreasing in the exponent."""
    ordered = sorted(exponents)
    tops = [zipf_weights(n, s)[0] for s in ordered]
    for lo, hi in zip(tops, tops[1:]):
        assert hi >= lo - 1e-12
    for s in ordered:
        w = zipf_weights(n, s)
        assert w.shape == (n,)
        assert np.isclose(w.sum(), 1.0)
        assert (w > 0.0).all()
        # ranks are sorted most-popular-first
        assert (np.diff(w) <= 1e-12).all()


def test_zipf_weights_validates():
    with pytest.raises(ValueError):
        zipf_weights(0, 1.0)
    with pytest.raises(ValueError):
        zipf_weights(4, -0.5)
