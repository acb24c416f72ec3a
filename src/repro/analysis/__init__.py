"""Domain-aware static analysis for the FoV codebase (``fovlint``).

The retrieval pipeline's correctness hangs on conventions that no unit
test localises when they break: azimuths are compass *degrees* in
``[0, 360)``, trig runs on *radians*, positions carry an explicit
lat/lng axis order, the similarity kernels promise scalar/array dual
forms, and wire payloads decode only through the validated protocol
layer.  This package mechanises those conventions as AST lint rules
(RF001-RF008) plus a second, whole-program phase: a cross-module
:class:`~repro.analysis.model.ProjectModel` of locks, guarded regions,
epochs and call edges that the concurrency rules (RF009-RF013) check
for lock discipline, lock-order cycles, epoch protocol,
blocking-under-lock and instrument-catalog drift.  See
``docs/STATIC_ANALYSIS.md``.

Entry points:

* ``repro-fov lint [paths]`` -- the CLI subcommand;
* ``tools/analysis/fovlint.py`` -- standalone runner (no install needed);
* :func:`repro.analysis.run_lint` -- programmatic / pytest-importable.
"""

from repro.analysis.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
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
from repro.analysis.sarif import to_sarif

__all__ = [
    "BaselineError",
    "LintReport",
    "ModuleInfo",
    "ProjectInfo",
    "ProjectModel",
    "Rule",
    "Violation",
    "all_rules",
    "apply_baseline",
    "build_model",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "run_lint",
    "to_sarif",
    "write_baseline",
]
