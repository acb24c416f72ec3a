"""Every serving package imports cleanly when it is the first one loaded.

``repro.core.server`` builds ``CloudServer`` on
``repro.shard.server.ShardedCloudServer``, and the router takes its
ingest pipeline and stats from ``repro.core.ingest``: a top-level
import of ``repro.core.server`` from the router's side would be a
cycle.  Each case runs in a fresh interpreter, so no module another
test imported can mask it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["repro", "repro.core", "repro.core.server",
                                    "repro.shard", "repro.shard.server"])
def test_imports_first_in_a_fresh_interpreter(module):
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import {module}; "
         "from repro.core.server import (CloudServer, IngestOutcome, "
         "IngestStatus, ServerStats); "
         "from repro.shard.server import ShardedCloudServer; "
         "assert issubclass(CloudServer, ShardedCloudServer)"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
