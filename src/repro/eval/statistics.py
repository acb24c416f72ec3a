"""Bootstrap statistics for experiment metrics.

Accuracy numbers from a few dozen queries deserve error bars.  The
non-parametric bootstrap needs no distributional assumptions and works
for any statistic, which suits ranking metrics (bounded, skewed,
frequently saturated at 0 or 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BootstrapCI", "bootstrap_ci", "paired_bootstrap_diff",
           "percentile"]


def percentile(samples, q: float) -> float:
    """Empirical percentile with the reporting layer's edge-case contract.

    The one shared definition used by the simulation report and the
    perf ledger (``benchmarks/perf/metrics.py``), so their latency
    summaries agree:

    * ``q`` is in **percent** (``50`` = median, ``99.9`` = p999) and
      must lie in ``[0, 100]`` -- anything else raises ``ValueError``
      (catching the classic fraction-vs-percent mixup of ``q=0.99``
      silently meaning "roughly the minimum");
    * an empty sample list reports ``0.0`` -- dashboards render a
      stage that never ran as zero, not as a crash;
    * a single sample is every percentile of itself, and ``q=0`` /
      ``q=100`` are the exact min / max (no interpolation past the
      data).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        return 0.0
    return float(np.percentile(arr, q))


@dataclass(frozen=True)
class BootstrapCI:
    """Point estimate with a percentile confidence interval."""

    estimate: float
    lo: float
    hi: float
    confidence: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.estimate:.3f} "
                f"[{self.lo:.3f}, {self.hi:.3f}]@{self.confidence:.0%}")

    def contains(self, value: float) -> bool:
        """True if ``value`` lies inside the interval."""
        return self.lo <= value <= self.hi


def bootstrap_ci(values, statistic=np.mean, n_boot: int = 2000,
                 confidence: float = 0.95,
                 rng: np.random.Generator | None = None) -> BootstrapCI:
    """Percentile bootstrap CI of ``statistic`` over ``values``.

    Parameters
    ----------
    values : array-like, non-empty
    statistic : callable
        Maps a 1-D array to a scalar (default: the mean).
    n_boot : int
        Resamples; 2000 is ample for 95 % percentile intervals.
    confidence : float in (0, 1)
    rng : numpy Generator, optional
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if n_boot < 100:
        raise ValueError("n_boot too small for stable percentiles")
    rng = rng or np.random.default_rng()
    idx = rng.integers(0, v.size, size=(n_boot, v.size))
    stats = np.apply_along_axis(statistic, 1, v[idx])
    alpha = (1.0 - confidence) / 2.0
    return BootstrapCI(
        estimate=float(statistic(v)),
        lo=float(np.quantile(stats, alpha)),
        hi=float(np.quantile(stats, 1.0 - alpha)),
        confidence=confidence,
    )


def paired_bootstrap_diff(a, b, n_boot: int = 2000,
                          confidence: float = 0.95,
                          rng: np.random.Generator | None = None
                          ) -> BootstrapCI:
    """CI of ``mean(a) - mean(b)`` for *paired* samples (same queries).

    Pairing resamples query indices, keeping each query's two scores
    together -- the right comparison for two systems evaluated on the
    same query set.  A CI excluding 0 indicates a systematic difference.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError("paired samples must have equal length")
    return bootstrap_ci(a - b, statistic=np.mean, n_boot=n_boot,
                        confidence=confidence, rng=rng)
