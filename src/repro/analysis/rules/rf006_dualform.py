"""RF006: scalar/array dual-form functions must normalise explicitly.

Many geometry helpers promise "float or ndarray" outputs -- a scalar in
gives a scalar out, an array in gives an array out.  numpy makes it
easy to *almost* keep that promise: ``np.minimum(x, y)`` on two Python
floats returns a 0-d ``np.float64``, which survives ``==`` but breaks
``json.dumps`` and exact-type tests.  Functions that document the dual
form must therefore route their return through an explicit
normalisation: an ``_as_float``-style helper, an ``np.ndim``/``.ndim``
shape check, or an ``isinstance`` dispatch.

The rule triggers only on functions whose docstring *Returns* section
(or first line) declares the dual form -- phrases like ``float or
ndarray`` / ``scalar or array`` -- and flags those whose body shows
none of the accepted normalisation idioms.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.engine import ModuleInfo, ProjectInfo, Violation

__all__ = ["RF006DualFormNormalize"]

_DUAL_FORM_RE = re.compile(
    r"(float|scalar)s?\s+or\s+(nd)?arrays?|scalars?\s+or\s+ndarrays?",
    re.IGNORECASE,
)
_NORMALIZER_RE = re.compile(r"as_float|as_scalar|to_scalar")


def _declares_dual_form(docstring: str) -> bool:
    """True when the Returns section (or summary line) promises both forms."""
    lines = docstring.splitlines()
    first = lines[0] if lines else ""
    if _DUAL_FORM_RE.search(first):
        return True
    in_returns = False
    for line in lines:
        stripped = line.strip().lower()
        if stripped in ("returns", "yields"):
            in_returns = True
            continue
        if in_returns:
            if stripped.startswith("---"):
                continue
            if not stripped:
                in_returns = False
                continue
            if _DUAL_FORM_RE.search(line):
                return True
    return False


def _has_normalization(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Does the body call ``_as_float``-style, check ndim, or isinstance?"""
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else (
                f.attr if isinstance(f, ast.Attribute) else "")
            if _NORMALIZER_RE.search(name):
                return True
            if name == "isinstance":
                return True
            if name == "ndim":        # np.ndim(x)
                return True
        elif isinstance(node, ast.Attribute) and node.attr == "ndim":
            return True
    return False


class RF006DualFormNormalize:
    """Documented dual-form returns need explicit scalar normalisation."""

    rule_id = "RF006"
    summary = "dual-form (scalar/array) function lacks explicit normalisation"

    def check(self, module: ModuleInfo, project: ProjectInfo) -> list[Violation]:
        """Match docstring promises against body idioms per function."""
        out: list[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            doc = ast.get_docstring(node)
            if not doc or not _declares_dual_form(doc):
                continue
            if _has_normalization(node):
                continue
            out.append(Violation(
                rule_id=self.rule_id,
                path=str(module.path),
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"{node.name}() documents a scalar-or-array return but "
                    f"never normalises (call _as_float, check ndim, or "
                    f"dispatch on isinstance)"
                ),
            ))
        return out
