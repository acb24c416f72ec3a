"""Shared benchmark fixtures.

Each benchmark regenerates one of the paper's figures/claims: it prints
the figure's rows through :class:`repro.eval.harness.Table` (directly to
the terminal, bypassing pytest capture, so the tables show up in the
run's output even under ``-q``), asserts its own gate, and times the
figure's hot kernel with pytest-benchmark.  Nothing here writes into
the checkout; the serving stack's perf record is the ledger under
``benchmarks/perf/`` (``BENCHMARK.json``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CameraModel
from repro.eval.harness import Table


@pytest.fixture
def camera() -> CameraModel:
    return CameraModel(half_angle=30.0, radius=100.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2015)


@pytest.fixture
def show(capsys):
    """Print a Table (or string) straight to the terminal."""
    def _show(obj) -> None:
        text = obj.render() if isinstance(obj, Table) else str(obj)
        with capsys.disabled():
            print(text)
    return _show
