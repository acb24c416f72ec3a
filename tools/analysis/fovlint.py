#!/usr/bin/env python3
"""Standalone launcher for the FoV domain lint rules (RF001-RF015).

The real engine lives in :mod:`repro.analysis` (inside ``src/``), where
it is importable, typed, and unit-tested; this shim only bootstraps
``sys.path`` so the linter runs from a bare checkout without an
editable install, then hands its arguments to ``repro-fov lint``::

    python tools/analysis/fovlint.py src/repro
    python tools/analysis/fovlint.py --select RF009 --select RF010 src
    python tools/analysis/fovlint.py --format json src/repro

Exit codes: 0 clean, 1 any finding, 2 usage/parse error.
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


if __name__ == "__main__":
    from repro.cli import main
    raise SystemExit(main(["lint", *sys.argv[1:]]))
