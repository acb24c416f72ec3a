"""Zipf popularity over a city's points of interest.

Crowd-sourced uploads and investigator queries cluster at a few
hotspots; after Lu & Colmenares' POI model, the ``k``-th most popular
hotspot draws mass proportional to ``k**-exponent``.  The perf ledger
(``benchmarks/perf/workloads.py``) draws its hotspot map from
:func:`zipf_weights`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["zipf_weights"]


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalised Zipf mass over ranks ``1..n``: ``w_k ∝ k**-exponent``.

    ``exponent=0`` is uniform; raising it monotonically concentrates
    mass on the top rank (the property test pins this).  ``n`` must be
    positive and ``exponent`` non-negative.
    """
    if n < 1:
        raise ValueError(f"need at least one rank, got {n}")
    if exponent < 0.0:
        raise ValueError(f"zipf exponent must be >= 0, got {exponent}")
    w = np.arange(1, n + 1, dtype=float) ** -float(exponent)
    return w / w.sum()
