"""RF008: metric and span names are literal, snake_case, dot-namespaced.

The observability subsystem (:mod:`repro.obs`) keys everything --
registry families, span histograms, exposition output -- by name.  Two
properties keep that namespace sane, and both only hold if names are
*authoring-time constants*:

* **bounded cardinality** -- a name assembled at runtime (an f-string
  with a user id, a concatenated suffix) mints a new family per value,
  which is a memory leak wearing a metrics hat.  Varying *label
  values* is fine; varying *names* is not.
* **greppability** -- dashboards, alerts and the round-trip parser all
  reference names as literals; a computed name cannot be found by
  searching the tree.

The rule inspects every call whose callee is ``counter``, ``gauge``,
``histogram`` or ``span`` (method or function).  The first positional
argument must be a plain string literal matching
``name(.name)+`` in snake_case -- an f-string (``JoinedStr``), a
string concatenation, ``%``/``format`` expression, or a malformed
literal is flagged.  Non-literal expressions that are plain names
(e.g. a variable) are ignored: helpers legitimately forward a name
parameter (and ``np.histogram(data, bins)`` takes an array first), so
the rule targets *inline construction* of names, where the literal
should have been written instead.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.engine import ModuleInfo, ProjectInfo, Violation

__all__ = ["RF008MetricNameLiteral"]

_INSTRUMENT_CALLEES = frozenset({"counter", "gauge", "histogram", "span"})

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: Expression shapes that *construct* a string at runtime: these are
#: always wrong as a metric/span name, whatever they evaluate to.
_RUNTIME_STRING_NODES = (ast.JoinedStr, ast.BinOp, ast.Call)


def _callee_name(func: ast.expr) -> str | None:
    """Final attribute/function name of a call target, if resolvable."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _first_name_arg(node: ast.Call) -> ast.expr | None:
    """The expression passed as the instrument name, if present."""
    if node.args:
        return node.args[0]
    for kw in node.keywords:
        if kw.arg == "name":
            return kw.value
    return None


class RF008MetricNameLiteral:
    """Metric/span names must be literal snake_case dotted strings."""

    rule_id = "RF008"
    summary = "metric or span name is not a literal dot-namespaced string"

    def check(self, module: ModuleInfo, project: ProjectInfo) -> list[Violation]:
        """Flag runtime-assembled or malformed instrument names."""
        if not module.in_package("repro"):
            return []
        out: list[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee_name(node.func)
            if callee not in _INSTRUMENT_CALLEES:
                continue
            arg = _first_name_arg(node)
            if arg is None:
                continue
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                if not _NAME_RE.match(arg.value):
                    out.append(Violation(
                        rule_id=self.rule_id,
                        path=str(module.path),
                        line=arg.lineno,
                        col=arg.col_offset,
                        message=(f"{callee} name {arg.value!r} must be "
                                 f"snake_case and dot-namespaced, e.g. "
                                 f"'ingest.bundles'"),
                    ))
                continue
            if isinstance(arg, _RUNTIME_STRING_NODES):
                out.append(Violation(
                    rule_id=self.rule_id,
                    path=str(module.path),
                    line=arg.lineno,
                    col=arg.col_offset,
                    message=(f"{callee} name is assembled at runtime; "
                             f"metric/span names must be literal strings "
                             f"(vary label values, never names -- "
                             f"unbounded names leak families)"),
                ))
        return out
