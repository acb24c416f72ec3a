"""Domain-aware static analysis for the FoV codebase (``fovlint``).

The retrieval pipeline's correctness hangs on conventions that no unit
test localises when they break: azimuths are compass *degrees* in
``[0, 360)``, trig runs on *radians*, positions carry an explicit
lat/lng axis order, the similarity kernels promise scalar/array dual
forms, and wire payloads decode only through the validated protocol
layer.  This package mechanises those conventions as per-file AST lint
rules (RF001-RF008, and the RF015 hot-loop ratchet) plus a second,
whole-program phase: a cross-module
:class:`~repro.analysis.model.ProjectModel` of locks, guarded regions,
epochs and call edges that the concurrency rules (RF009-RF013) check
for lock discipline, lock-order cycles, epoch protocol,
blocking-under-lock and instrument-catalog drift.  See
``docs/STATIC_ANALYSIS.md``.

There is one gate: every finding fails the run.  The only suppression
is an inline ``# fovlint: disable=RFxxx`` pragma on the offending line.

Entry points:

* ``repro-fov lint [paths]`` -- the CLI subcommand;
* ``tools/analysis/fovlint.py`` -- the same subcommand from a bare
  checkout (no install needed);
* :func:`repro.analysis.run_lint` -- programmatic / pytest-importable.
"""

from repro.analysis.engine import (
    LintReport,
    ModuleInfo,
    ProjectInfo,
    Rule,
    Violation,
    all_rules,
    lint_paths,
    lint_source,
    run_lint,
)
from repro.analysis.model import ProjectModel, build_model

__all__ = [
    "LintReport",
    "ModuleInfo",
    "ProjectInfo",
    "ProjectModel",
    "Rule",
    "Violation",
    "all_rules",
    "build_model",
    "lint_paths",
    "lint_source",
    "run_lint",
]
