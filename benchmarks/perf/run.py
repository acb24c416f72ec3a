#!/usr/bin/env python3
"""Driver entry point: ``python3 benchmarks/perf/run.py --workload ...``.

The command ``BENCHMARK.json`` names.  Runs from the root of any
checkout without installation: it puts the checkout's ``src`` (the
program under test) and root (this package) on ``sys.path`` and hands
over to ``python -m benchmarks.perf run``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT}/src/repro not found: no program here to benchmark")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.perf.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["run", *sys.argv[1:]]))
