"""RF004: no mutable default arguments.

A ``def f(results=[])`` default is evaluated once at definition time and
shared across every call -- in a retrieval pipeline that accumulates
candidate lists per query, the second query silently inherits the
first query's candidates.  The rule flags list/dict/set literals,
comprehensions, and bare ``list()``/``dict()``/``set()`` calls used as
positional or keyword-only defaults, in every linted module.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import ModuleInfo, ProjectInfo, Violation

__all__ = ["RF004MutableDefault"]

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "deque"})


def _is_mutable(expr: ast.expr) -> bool:
    """True when the default expression builds a fresh mutable container."""
    if isinstance(expr, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        return name in _MUTABLE_CALLS
    return False


class RF004MutableDefault:
    """List/dict/set defaults shared across calls."""

    rule_id = "RF004"
    summary = "mutable default argument (shared across calls)"

    def check(self, module: ModuleInfo, project: ProjectInfo) -> list[Violation]:
        """Inspect the defaults of every function definition."""
        out: list[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            for arg, default in zip(positional[len(positional)
                                               - len(args.defaults):],
                                    args.defaults):
                self._flag(default, arg.arg, node.name, module, out)
            for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
                if kw_default is not None:
                    self._flag(kw_default, arg.arg, node.name, module, out)
        return out

    def _flag(self, default: ast.expr, param: str, func: str,
              module: ModuleInfo, out: list[Violation]) -> None:
        if _is_mutable(default):
            out.append(Violation(
                rule_id=self.rule_id,
                path=str(module.path),
                line=default.lineno,
                col=default.col_offset,
                message=(
                    f"{func}() parameter {param!r} has a mutable default; "
                    f"use None and create the container in the body"
                ),
            ))
