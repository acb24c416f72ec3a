"""The shared percentile helper's edge-case contract.

``repro.eval.statistics.percentile`` is the one definition both
``SimulationReport.latency_percentile`` and the perf ledger report
through; these tests pin the edges that used to be easy to get wrong
when each caller hand-rolled ``np.percentile``:

* empty samples report 0.0 (a stage that never ran renders as zero,
  not a crash);
* ``q`` is in percent and validated -- the classic fraction/percent
  mixup (``q=0.99`` silently meaning "the bottom of the
  distribution") raises instead;
* a single sample is every percentile of itself;
* ``q=0`` / ``q=100`` are the exact min / max.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.statistics import percentile
from repro.sim.simulation import SimulationReport


def test_empty_samples_report_zero():
    assert percentile([], 50.0) == 0.0
    assert percentile([], 0.0) == 0.0
    assert percentile([], 100.0) == 0.0


def test_single_sample_is_every_percentile():
    for q in (0.0, 1.0, 50.0, 99.0, 99.9, 100.0):
        assert percentile([42.5], q) == 42.5


def test_extremes_are_exact_min_and_max():
    samples = [5.0, 1.0, 9.0, 3.0]
    assert percentile(samples, 0.0) == 1.0
    assert percentile(samples, 100.0) == 9.0


def test_median_of_known_samples():
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == 3.0
    assert percentile(np.arange(101.0), 99.0) == 99.0


@pytest.mark.parametrize("bad_q", [-0.1, 100.1, 0.99 * 1000.0])
def test_out_of_range_q_raises(bad_q):
    with pytest.raises(ValueError, match="percentile q"):
        percentile([1.0, 2.0], bad_q)


def test_simulation_report_delegates_to_shared_helper():
    report = SimulationReport()
    assert report.latency_percentile(99.0) == 0.0       # no samples yet
    report.query_latencies_ms.append(7.0)
    for q in (0.0, 50.0, 99.9, 100.0):                  # single sample
        assert report.latency_percentile(q) == 7.0
    report.query_latencies_ms.extend([1.0, 3.0])
    assert report.latency_percentile(0.0) == 1.0
    assert report.latency_percentile(100.0) == 7.0
    with pytest.raises(ValueError):
        report.latency_percentile(0.99 * 1000.0)
