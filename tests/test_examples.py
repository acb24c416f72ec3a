"""Every script under ``examples/`` runs to completion.

Each runs in its own interpreter, as a reader would start it, with the
source tree on ``PYTHONPATH``; a module an example imports going away
fails here instead of going unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-B", str(script)],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
