"""``python -m benchmarks.perf`` (from the repo root, ``PYTHONPATH=src``)."""

import sys

from benchmarks.perf.cli import main

sys.exit(main())
