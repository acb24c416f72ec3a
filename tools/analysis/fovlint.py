#!/usr/bin/env python3
"""Standalone launcher for the FoV domain lint rules (RF001-RF015).

The real engine lives in :mod:`repro.analysis` (inside ``src/``), where
it is importable, typed, and unit-tested; this shim only bootstraps
``sys.path`` so the linter runs from a bare checkout without an
editable install::

    python tools/analysis/fovlint.py src/repro
    python tools/analysis/fovlint.py --select RF009 --select RF010 src
    python tools/analysis/fovlint.py --baseline tools/analysis/baseline.json \
        --format sarif src/repro > fovlint.sarif

Exit codes: 0 clean, 1 findings at/above the severity threshold,
2 usage/parse error.  Equivalent to ``repro-fov lint`` once the
package is installed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[2]
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and delegate to :func:`repro.analysis.run_lint`."""
    parser = argparse.ArgumentParser(
        prog="fovlint",
        description="Domain-aware static analysis for the FoV retrieval "
                    "codebase: per-file rules (degree/radian misuse, "
                    "lat/lng order, __all__ drift, mutable defaults, "
                    "nondeterminism, scalar/array normalisation, wire "
                    "unpacking, metric-name literals) plus whole-program "
                    "concurrency rules (lock discipline, lock-order "
                    "cycles, epoch protocol, blocking-under-lock, "
                    "instrument-catalog drift) and the "
                    "hot-path vectorisation ratchet.",
    )
    parser.add_argument("paths", nargs="*", default=[str(_SRC / "repro")],
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--select", action="append", metavar="RFxxx",
                        help="run only these rule ids (repeatable)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", dest="lint_format",
                        help="report format (sarif for CI annotation)")
    parser.add_argument("--baseline", metavar="FILE",
                        help="subtract known findings recorded in FILE")
    parser.add_argument("--write-baseline", metavar="FILE",
                        dest="write_baseline",
                        help="snapshot current findings to FILE and exit 0")
    parser.add_argument("--severity-threshold",
                        choices=("warning", "error"), default="warning",
                        dest="severity_threshold",
                        help="exit 1 only for findings at or above this "
                             "severity (default: warning)")
    args = parser.parse_args(argv)

    from repro.analysis import run_lint
    return run_lint(args.paths, select=args.select,
                    output_format=args.lint_format,
                    baseline=args.baseline,
                    write_baseline_to=args.write_baseline,
                    severity_threshold=args.severity_threshold,
                    root=_REPO_ROOT)


if __name__ == "__main__":
    raise SystemExit(main())
